//! Deterministic fault injection for the query service.
//!
//! A [`FaultPlan`] is a seeded registry of [`FaultRule`]s keyed by
//! **named injection points** ([`points`]) that the service evaluates
//! at well-defined moments: before a shard job runs and before each
//! of its stages, at pool submission, and over serialized index bytes
//! before decode. Firing decisions come from a `splitmix64` stream
//! over `(seed, point, hit index)`, so a plan with a fixed seed
//! injects a reproducible *sequence* of faults without any `rand`
//! dependency — the substrate of the chaos test suite and CI's
//! `chaos-smoke` job. Without a plan, an injection point is one
//! `Option` check.
//!
//! Faults on offer:
//!
//! * [`Fault::Panic`] — `panic!` at the point (exercises quarantine);
//! * [`Fault::Latency`] — sleep, for deadline/cancellation races;
//! * [`Fault::Overloaded`] — spurious load-shed, for retry/backoff;
//! * [`Fault::FlipByte`] — flip one deterministic byte of a byte
//!   stream (decode-time corruption; only [`corrupt`] applies it).

use crate::error::SvcError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Named injection points wired into the service.
pub mod points {
    /// Runs at the start of every shard query job, on the worker
    /// thread — a [`super::Fault::Panic`] here simulates a shard
    /// panicking mid-query.
    pub const SHARD_QUERY: &str = "shard.query";
    /// Runs before every stage of a shard query job — a slice of
    /// cells, or the rows [`ab::AbIndex::stages`] cut — ahead of the
    /// stage's deadline check: a [`super::Fault::Latency`] here holds
    /// a job *between* two stages, a [`super::Fault::Panic`] fails it
    /// with part of its answer already computed, and the number of
    /// times it was evaluated is the number of stages entered.
    pub const SHARD_STAGE: &str = "shard.stage";
    /// Runs at request fan-out, before each pool submission — a
    /// [`super::Fault::Overloaded`] here simulates spurious shedding.
    pub const POOL_SUBMIT: &str = "pool.submit";
    /// Applied by [`super::corrupt`] to serialized index bytes before
    /// decode — simulates bit-rot on the persistence path.
    pub const IO_DECODE: &str = "io.decode";
    /// Segment-store write path, step 1: creating the temp file
    /// ([`store::SegmentIo::create`]).
    pub const STORE_CREATE: &str = "store.create";
    /// Segment-store write path, step 2: writing the page image
    /// ([`store::SegmentIo::write_all`]). A [`super::Fault::ShortWrite`]
    /// here leaves a torn temp file; a [`super::Fault::FlipByte`]
    /// writes a silently-corrupted image that must fail CRC at open.
    pub const STORE_WRITE: &str = "store.write";
    /// Segment-store write path, step 3: fsync of the temp file
    /// ([`store::SegmentIo::sync_file`]).
    pub const STORE_SYNC_FILE: &str = "store.sync_file";
    /// Segment-store write path, step 4: the atomic rename
    /// ([`store::SegmentIo::rename`]).
    pub const STORE_RENAME: &str = "store.rename";
    /// Segment-store write path, step 5: fsync of the directory
    /// ([`store::SegmentIo::sync_dir`]).
    pub const STORE_SYNC_DIR: &str = "store.sync_dir";
}

/// What happens when a rule fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// `panic!` at the injection point.
    Panic,
    /// Sleep for the given duration before proceeding.
    Latency(Duration),
    /// Return a spurious [`SvcError::Overloaded`] (depth/capacity 0
    /// mark it as injected rather than a real queue observation).
    Overloaded,
    /// XOR one deterministically-chosen byte of the stream with the
    /// given mask (only meaningful at byte-stream points; see
    /// [`corrupt`]).
    FlipByte {
        /// Mask XORed into the chosen byte (must be non-zero to have
        /// any effect).
        xor: u8,
    },
    /// Fail the syscall with a simulated `EIO` (only meaningful at the
    /// `store.*` points, where [`ChaosSegmentIo`] applies it — a
    /// crashed writer is indistinguishable from one whose syscall
    /// errored and aborted, which is exactly what the crash-matrix
    /// test leans on).
    Eio,
    /// Write only the first half of the buffer, then fail — a torn
    /// write (only meaningful at [`points::STORE_WRITE`]).
    ShortWrite,
}

/// One injection rule: where, what, how often, and for how long.
#[derive(Clone, Copy, Debug)]
pub struct FaultRule {
    point: &'static str,
    fault: Fault,
    one_in: u64,
    shard: Option<usize>,
    max_fires: u64,
}

impl FaultRule {
    /// A rule that fires on **every** hit of `point` until capped.
    pub fn new(point: &'static str, fault: Fault) -> Self {
        FaultRule {
            point,
            fault,
            one_in: 1,
            shard: None,
            max_fires: 0,
        }
    }

    /// Fire on (deterministically) one in `n` hits instead of every
    /// hit.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn one_in(mut self, n: u64) -> Self {
        assert!(n >= 1, "one_in needs n >= 1");
        self.one_in = n;
        self
    }

    /// Restrict the rule to hits tagged with this shard id.
    pub fn on_shard(mut self, shard: usize) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Stop firing after `n` fires (0 = unlimited).
    pub fn max_fires(mut self, n: u64) -> Self {
        self.max_fires = n;
        self
    }
}

#[derive(Debug)]
struct RuleState {
    rule: FaultRule,
    hits: AtomicU64,
    fires: AtomicU64,
}

/// A seeded registry of fault rules. Shared (via `Arc`) with the
/// services whose injection points it should drive; absent a plan,
/// every injection point is a no-op.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<RuleState>,
}

impl FaultPlan {
    /// An empty plan with the given PRNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(RuleState {
            rule,
            hits: AtomicU64::new(0),
            fires: AtomicU64::new(0),
        });
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total times any rule at `point` has fired.
    pub fn fires(&self, point: &str) -> u64 {
        self.rules
            .iter()
            .filter(|r| r.rule.point == point)
            .map(|r| r.fires.load(Ordering::Relaxed))
            .sum()
    }

    /// Total times `point` has been evaluated (fired or not).
    pub fn hits(&self, point: &str) -> u64 {
        self.rules
            .iter()
            .filter(|r| r.rule.point == point)
            .map(|r| r.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Evaluates every matching rule at a point; first rule to fire
    /// wins. Deterministic in the seed and per-rule hit index.
    fn decide(&self, point: &str, shard: Option<usize>) -> Option<Fault> {
        for rs in &self.rules {
            if rs.rule.point != point {
                continue;
            }
            if rs.rule.shard.is_some() && rs.rule.shard != shard {
                continue;
            }
            let hit = rs.hits.fetch_add(1, Ordering::Relaxed);
            let fire = rs.rule.one_in <= 1
                || hashkit::splitmix64(self.seed ^ mix_str(point) ^ hit)
                    .is_multiple_of(rs.rule.one_in);
            if !fire {
                continue;
            }
            if rs.rule.max_fires > 0 {
                let admitted = rs
                    .fires
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
                        (f < rs.rule.max_fires).then_some(f + 1)
                    })
                    .is_ok();
                if !admitted {
                    continue;
                }
            } else {
                rs.fires.fetch_add(1, Ordering::Relaxed);
            }
            obs::counter!("svc.chaos.injected").inc();
            return Some(rs.rule.fault);
        }
        None
    }
}

/// FNV-1a over the point name, to decorrelate per-point streams.
fn mix_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Evaluates an injection point: may panic, sleep, or return a
/// spurious typed error according to the plan. `None` plan — and any
/// byte-flip fault, which only [`corrupt`] applies — is a no-op.
pub fn inject(
    plan: Option<&FaultPlan>,
    point: &'static str,
    shard: Option<usize>,
) -> Result<(), SvcError> {
    let Some(plan) = plan else { return Ok(()) };
    match plan.decide(point, shard) {
        // Byte-stream and syscall faults are applied by `corrupt` and
        // `ChaosSegmentIo` respectively, not here.
        None | Some(Fault::FlipByte { .. } | Fault::Eio | Fault::ShortWrite) => Ok(()),
        Some(Fault::Panic) => panic!("chaos: injected panic at {point} (shard {shard:?})"),
        Some(Fault::Latency(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(Fault::Overloaded) => Err(SvcError::Overloaded {
            depth: 0,
            capacity: 0,
        }),
    }
}

/// Applies a byte-flip fault to a serialized byte stream: when a
/// [`Fault::FlipByte`] rule at `point` fires, one deterministically
/// chosen byte is XORed with the rule's mask. Returns the flipped
/// offset, `None` when nothing fired.
pub fn corrupt(plan: Option<&FaultPlan>, point: &'static str, bytes: &mut [u8]) -> Option<usize> {
    let plan = plan?;
    if bytes.is_empty() {
        return None;
    }
    match plan.decide(point, None) {
        Some(Fault::FlipByte { xor }) => {
            let hit = plan.hits(point);
            let off = (hashkit::splitmix64(plan.seed ^ mix_str(point) ^ hit) % bytes.len() as u64)
                as usize;
            bytes[off] ^= xor;
            Some(off)
        }
        _ => None,
    }
}

/// A fault-injecting [`store::SegmentIo`]: forwards every syscall to
/// [`store::RealIo`] unless a rule at the matching `store.*` point
/// fires first. [`Fault::Eio`] fails the call before it runs (after
/// the rename for [`points::STORE_SYNC_DIR`] — by then the new file
/// has already landed, which is the point: durability of the *name*
/// is the last thing to become crash-safe). [`Fault::ShortWrite`]
/// tears the image write half-way; [`Fault::FlipByte`] silently
/// corrupts one byte of the written image, which must then fail CRC
/// verification at open. [`Fault::Panic`] and [`Fault::Latency`] act
/// as at any other point.
#[derive(Debug)]
pub struct ChaosSegmentIo {
    plan: std::sync::Arc<FaultPlan>,
}

impl ChaosSegmentIo {
    /// Wraps the real syscalls with this plan's `store.*` rules.
    pub fn new(plan: std::sync::Arc<FaultPlan>) -> Self {
        ChaosSegmentIo { plan }
    }

    fn decide(&self, point: &'static str) -> Option<Fault> {
        match self.plan.decide(point, None) {
            Some(Fault::Panic) => panic!("chaos: injected panic at {point}"),
            Some(Fault::Latency(d)) => {
                std::thread::sleep(d);
                None
            }
            decision => decision,
        }
    }
}

/// The simulated-syscall-failure error every injected store fault
/// surfaces as.
fn injected_eio(point: &'static str) -> std::io::Error {
    std::io::Error::other(format!("chaos: injected EIO at {point}"))
}

impl store::SegmentIo for ChaosSegmentIo {
    fn create(&self, path: &std::path::Path) -> std::io::Result<std::fs::File> {
        if self.decide(points::STORE_CREATE).is_some() {
            return Err(injected_eio(points::STORE_CREATE));
        }
        store::RealIo.create(path)
    }

    fn write_all(&self, file: &mut std::fs::File, buf: &[u8]) -> std::io::Result<()> {
        match self.decide(points::STORE_WRITE) {
            Some(Fault::ShortWrite) => {
                store::RealIo.write_all(file, &buf[..buf.len() / 2])?;
                Err(injected_eio(points::STORE_WRITE))
            }
            Some(Fault::FlipByte { xor }) => {
                let mut torn = buf.to_vec();
                if !torn.is_empty() {
                    let hit = self.plan.hits(points::STORE_WRITE);
                    let off =
                        hashkit::splitmix64(self.plan.seed ^ mix_str(points::STORE_WRITE) ^ hit)
                            % torn.len() as u64;
                    torn[off as usize] ^= xor;
                }
                store::RealIo.write_all(file, &torn)
            }
            Some(_) => Err(injected_eio(points::STORE_WRITE)),
            None => store::RealIo.write_all(file, buf),
        }
    }

    fn sync_file(&self, file: &std::fs::File) -> std::io::Result<()> {
        if self.decide(points::STORE_SYNC_FILE).is_some() {
            return Err(injected_eio(points::STORE_SYNC_FILE));
        }
        store::RealIo.sync_file(file)
    }

    fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
        if self.decide(points::STORE_RENAME).is_some() {
            return Err(injected_eio(points::STORE_RENAME));
        }
        store::RealIo.rename(from, to)
    }

    fn sync_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        // Real syscall first: an injected failure here models a crash
        // *after* the rename landed — new state, durability pending.
        store::RealIo.sync_dir(dir)?;
        if self.decide(points::STORE_SYNC_DIR).is_some() {
            return Err(injected_eio(points::STORE_SYNC_DIR));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_rule_fires_every_hit() {
        let plan =
            FaultPlan::new(7).with_rule(FaultRule::new(points::POOL_SUBMIT, Fault::Overloaded));
        for _ in 0..5 {
            assert_eq!(
                inject(Some(&plan), points::POOL_SUBMIT, None),
                Err(SvcError::Overloaded {
                    depth: 0,
                    capacity: 0
                })
            );
        }
        assert_eq!(plan.fires(points::POOL_SUBMIT), 5);
        // Other points are untouched.
        assert_eq!(inject(Some(&plan), points::SHARD_QUERY, None), Ok(()));
        assert_eq!(inject(None, points::POOL_SUBMIT, None), Ok(()));
    }

    #[test]
    fn one_in_n_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed)
                .with_rule(FaultRule::new(points::POOL_SUBMIT, Fault::Overloaded).one_in(4));
            (0..64)
                .map(|_| inject(Some(&plan), points::POOL_SUBMIT, None).is_err())
                .collect::<Vec<bool>>()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same firing sequence");
        assert_ne!(a, run(43), "different seed, different sequence");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(fired > 0 && fired < 64, "1-in-4 fired {fired}/64");
    }

    #[test]
    fn shard_filter_and_fire_cap_apply() {
        let plan = FaultPlan::new(1).with_rule(
            FaultRule::new(points::SHARD_QUERY, Fault::Overloaded)
                .on_shard(2)
                .max_fires(3),
        );
        for _ in 0..10 {
            assert_eq!(inject(Some(&plan), points::SHARD_QUERY, Some(1)), Ok(()));
        }
        let mut fired = 0;
        for _ in 0..10 {
            if inject(Some(&plan), points::SHARD_QUERY, Some(2)).is_err() {
                fired += 1;
            }
        }
        assert_eq!(fired, 3, "max_fires cap");
        assert_eq!(plan.fires(points::SHARD_QUERY), 3);
    }

    #[test]
    #[should_panic(expected = "chaos: injected panic")]
    fn panic_fault_panics() {
        let plan = FaultPlan::new(0).with_rule(FaultRule::new(points::SHARD_QUERY, Fault::Panic));
        let _ = inject(Some(&plan), points::SHARD_QUERY, Some(0));
    }

    #[test]
    fn latency_fault_sleeps_and_continues() {
        let plan = FaultPlan::new(0).with_rule(FaultRule::new(
            points::SHARD_QUERY,
            Fault::Latency(Duration::from_millis(5)),
        ));
        let start = std::time::Instant::now();
        assert_eq!(inject(Some(&plan), points::SHARD_QUERY, None), Ok(()));
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn corrupt_flips_exactly_one_byte_deterministically() {
        let original: Vec<u8> = (0..=255u8).collect();
        let flip = |seed: u64| {
            let plan = FaultPlan::new(seed).with_rule(FaultRule::new(
                points::IO_DECODE,
                Fault::FlipByte { xor: 0xFF },
            ));
            let mut bytes = original.clone();
            let off = corrupt(Some(&plan), points::IO_DECODE, &mut bytes);
            (off, bytes)
        };
        let (off_a, bytes_a) = flip(9);
        let (off_b, bytes_b) = flip(9);
        assert_eq!(off_a, off_b);
        assert_eq!(bytes_a, bytes_b);
        let diffs = original
            .iter()
            .zip(&bytes_a)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
        assert_eq!(
            off_a.unwrap(),
            original
                .iter()
                .zip(&bytes_a)
                .position(|(a, b)| a != b)
                .unwrap()
        );
        // Panic/latency rules never touch bytes.
        let plan = FaultPlan::new(0).with_rule(FaultRule::new(points::IO_DECODE, Fault::Panic));
        let mut bytes = original.clone();
        assert_eq!(corrupt(Some(&plan), points::IO_DECODE, &mut bytes), None);
        assert_eq!(bytes, original);
        assert_eq!(corrupt(None, points::IO_DECODE, &mut bytes), None);
    }
}
