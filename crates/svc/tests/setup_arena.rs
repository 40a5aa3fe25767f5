//! The set-up arena invariant: `ShardedIndex::build` allocates every
//! shard's AB bit arrays on the calling thread, and the set-up threads
//! that fill them allocate nothing that grows with the row count. A
//! buffer a set-up thread allocates lands in that thread's own malloc
//! arena, which outlives the build and counts in the process's peak
//! RSS; DESIGN.md §11, "Set-up", has the measured cost.
//!
//! A counting global allocator splits every byte allocated during a
//! build between the test's own thread and every other thread. This
//! file holds one test on purpose: a second test running beside it
//! would count as a set-up thread.

use ab::{AbConfig, Level};
use bitmap::{BinnedColumn, BinnedTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use svc::ShardedIndex;

/// Whether allocations are being counted.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated by the test's own thread while counting.
static CALLER_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated by every other thread while counting.
static OTHER_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's own thread. `const`-initialised and without a
    /// destructor, so reading it never allocates.
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let total = if IS_CALLER.try_with(Cell::get).unwrap_or(false) {
            &CALLER_BYTES
        } else {
            &OTHER_BYTES
        };
        total.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// The system allocator, counting what it hands out.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are this allocator's; the counting beside
// it touches only atomics and a thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Two attributes of `rows` rows.
fn table(rows: usize) -> BinnedTable {
    let column = |name: &str, salt: u64, card: u32| {
        let bins = (0..rows as u64)
            .map(|i| (hashkit::splitmix64(i ^ salt) % u64::from(card)) as u32)
            .collect();
        BinnedColumn::new(name, bins, card)
    };
    BinnedTable::new(vec![column("a", 0, 8), column("b", 0xF00, 13)])
}

/// What one two-shard build allocates: (caller bytes, other threads'
/// bytes, the index's AB bytes).
fn build(table: &BinnedTable) -> (usize, usize, usize) {
    let config = AbConfig::new(Level::PerAttribute).with_alpha(8);
    CALLER_BYTES.store(0, Ordering::Relaxed);
    OTHER_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let index = ShardedIndex::build(table, &config, 2, false);
    COUNTING.store(false, Ordering::SeqCst);
    let counted = (
        CALLER_BYTES.load(Ordering::Relaxed),
        OTHER_BYTES.load(Ordering::Relaxed),
        index.size_bytes(),
    );
    drop(index);
    counted
}

#[test]
fn set_up_threads_allocate_nothing_that_grows_with_the_rows() {
    IS_CALLER.with(|c| c.set(true));
    // The first build registers the `ab.build.*` metrics; measure after.
    build(&table(4096));
    let (small, large) = (table(64 << 10), table(256 << 10));
    let (small_caller, small_workers, small_ab) = build(&small);
    let (large_caller, large_workers, large_ab) = build(&large);
    let grown = large_ab - small_ab;
    assert_eq!(grown, 3 * small_ab, "the bit arrays scale with the rows");
    eprintln!(
        "64 Ki rows: caller {small_caller} B, set-up threads {small_workers} B; \
         256 Ki rows: caller {large_caller} B, set-up threads {large_workers} B; \
         AB {small_ab} -> {large_ab} B"
    );
    // The bit arrays are the caller's: its bytes grow by theirs.
    assert!(
        large_caller >= small_caller + grown,
        "caller bytes {small_caller} -> {large_caller}, bit arrays grew by {grown}"
    );
    // The set-up threads' bytes do not grow at all, within a margin far
    // below one shard's bit arrays.
    assert!(
        large_workers <= small_workers + small_ab / 16,
        "set-up threads allocated {small_workers} B at 64 Ki rows and \
         {large_workers} B at 256 Ki rows"
    );
}
