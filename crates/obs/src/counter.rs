//! Lock-free sharded counters.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of independent shards per counter. Each shard sits on its own
/// cache line so concurrent builder threads don't bounce one line.
const SHARDS: usize = 8;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Monotonic thread id used to pick a shard (round-robin assignment at
/// first use per thread).
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

#[inline]
fn shard_index() -> usize {
    SHARD.with(|s| *s)
}

/// A lock-free monotonic counter.
///
/// Increments go to a per-thread shard with `Relaxed` ordering — the
/// cheapest possible atomic on every target — and reads sum the shards.
/// Totals are exact once writer threads quiesce (tests join their
/// threads first); mid-flight reads may lag by in-flight increments,
/// which is the usual metrics contract.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// Creates a zeroed counter (registry use; prefer
    /// [`crate::global`]`().counter(name)`).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Zeroes the counter (snapshot scoping in tests and repro runs).
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let c = std::sync::Arc::new(Counter::new());
        let threads = 8;
        let per_thread = 100_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
    }
}
