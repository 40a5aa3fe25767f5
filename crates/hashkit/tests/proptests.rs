//! Property tests for the hash machinery.

use hashkit::partow::{self, RosterFn};
use hashkit::{
    decimal_key_bytes, decimal_key_bytes_swar, CellMapper, HashFamily, HashKind, LockstepLanes,
};
use proptest::prelude::*;

/// `F` over `s`, stopped after `at` bytes and resumed from the saved
/// state.
fn stopped_and_resumed<F: RosterFn>(s: &[u8], at: usize) -> u64 {
    let saved = F::resume(F::start(s.len()), &s[..at]);
    F::resume(saved, &s[at..]).hash()
}

/// Each named kind with its function, stopped and resumed (a kind and
/// its stream in `partow` share the name).
macro_rules! stopped_and_resumed {
    ($($kind:ident)*) => {
        [$((HashKind::$kind, stopped_and_resumed::<partow::$kind> as fn(&[u8], usize) -> u64)),*]
    };
}

/// Steps one lockstep batch over `rows` 24 times and each row's own
/// probe alongside, and checks every position agrees: roster function
/// `kind` alone (past the roster: the default roster), the shifted
/// mapper at `shift` (0: row only), a prime or a power-of-two AB size.
fn lockstep_agrees_with_next_position(
    rows: &[u64],
    kind: usize,
    shift: u32,
    prime_n: bool,
) -> Result<(), TestCaseError> {
    let family = match HashKind::ROSTER.get(kind) {
        Some(&kind) => HashFamily::Independent(vec![kind]),
        None => HashFamily::default_independent(),
    };
    let mapper = if shift == 0 {
        CellMapper::RowOnly
    } else {
        CellMapper::Shifted { shift }
    };
    let n = if prime_n { 1_000_003 } else { 1 << 21 };
    let col = (1u64 << shift) - 1;
    let prober = family.col_prober(col, mapper, n);
    let mut lanes = LockstepLanes::new();
    lanes.open(&prober, rows.iter().map(|&row| (row, col)));
    let mut scalar: Vec<_> = rows.iter().map(|&row| prober.begin(row)).collect();
    let mut out = vec![0u64; rows.len()];
    for step in 0..24 {
        prober.next_positions_lockstep(&mut lanes, &mut out);
        for ((lane, &got), &row) in scalar.iter_mut().zip(&out).zip(rows) {
            prop_assert_eq!(got, prober.next_position(lane), "row {} step {}", row, step);
        }
    }
    Ok(())
}

fn any_family() -> impl Strategy<Value = HashFamily> {
    prop_oneof![
        Just(HashFamily::default_independent()),
        Just(HashFamily::Sha1Split),
        Just(HashFamily::DoubleHashing),
        Just(HashFamily::Independent(vec![HashKind::Bkdr])),
        (1u64..64).prop_map(|c| HashFamily::ColumnGroup { num_columns: c }),
    ]
}

proptest! {
    /// The lazy prober and the batch positions API are the same
    /// function — the membership fast path cannot drift from insertion.
    #[test]
    fn prober_equals_positions(family in any_family(), row in 0u64..1_000_000,
                               k in 1usize..16, npow in 6u32..24) {
        let n = 1u64 << npow;
        let col = match &family {
            HashFamily::ColumnGroup { num_columns } => row % num_columns,
            _ => row % 16,
        };
        let mapper = CellMapper::for_columns(64);
        let mut batch = Vec::new();
        family.positions(row, col, mapper, k, n, &mut batch);
        let lazy: Vec<u64> = family.prober(row, col, mapper, n).take(k).collect();
        prop_assert_eq!(batch, lazy);
    }

    /// Every probe position stays inside the AB, for power-of-two and
    /// odd sizes alike.
    #[test]
    fn positions_in_range(family in any_family(), row in 0u64..1_000_000,
                          k in 1usize..12, n in 1u64..5_000_000) {
        let col = match &family {
            HashFamily::ColumnGroup { num_columns } => row % num_columns,
            _ => 3,
        };
        let mut out = Vec::new();
        family.positions(row, col, CellMapper::for_columns(64), k, n, &mut out);
        prop_assert_eq!(out.len(), k);
        prop_assert!(out.iter().all(|&p| p < n), "{:?} escaped n={}", out, n);
    }

    /// Decimal key encoding round-trips through string parsing.
    #[test]
    fn decimal_key_roundtrip(x in any::<u64>()) {
        let (buf, len) = decimal_key_bytes(x);
        let s = std::str::from_utf8(&buf[..len]).unwrap();
        prop_assert_eq!(s.parse::<u64>().unwrap(), x);
        prop_assert_eq!(s, x.to_string());
        // The encoder `ColProber::begin` uses agrees byte for byte,
        // zero padding included.
        prop_assert_eq!(decimal_key_bytes_swar(x), (buf, len));
    }

    /// A roster function's state saved after any prefix of a digit
    /// string resumes over the rest to the whole-string value — AP's
    /// parity, DEK's start from the total length and RS's running
    /// multiplier all travel in the saved state. That value is the one
    /// `HashKind` dispatches to, which `tests/golden.rs` pins.
    #[test]
    fn resumed_prefix_state_reaches_the_whole_string_value(
        digits in prop::collection::vec(b'0'..=b'9', 1..=20), split in 0usize..=20,
    ) {
        let split = split.min(digits.len());
        for (kind, resumed) in stopped_and_resumed!(Rs Js Pjw Elf Bkdr Sdbm Djb Dek Ap Fnv) {
            let whole = kind.hash_bytes(&digits, 0);
            prop_assert_eq!(resumed(&digits, split), whole, "{:?} at {}", kind, split);
        }
    }

    /// The lockstep step is `next_position` lane by lane on arbitrary
    /// 64-bit rows — whatever prefixes their re-seeded keys fall on —
    /// under both mappers and both reductions, for any batch size, 24
    /// steps deep (14 of them re-seeded on the default roster, 23 on a
    /// roster of one).
    #[test]
    fn lockstep_equals_next_position_on_arbitrary_rows(
        rows in prop::collection::vec(any::<u64>(), 1..=256),
        kind in 0usize..=10, shift in 0u32..=7, prime_n in any::<bool>(),
    ) {
        lockstep_agrees_with_next_position(&rows, kind, shift, prime_n)?;
    }

    /// The same on runs of nearby rows of any magnitude (from `first`
    /// shifted right by `magnitude`, every `stride`-th row), the shape a
    /// build hands a batch: their keys split at 10⁴ or 10⁸,
    /// or not at all (below 10⁴, or across more prefixes than the batch
    /// holds), as do their re-seeded keys.
    #[test]
    fn lockstep_equals_next_position_on_runs_of_rows(
        first in any::<u64>(), magnitude in 0u32..=64, stride in 1u64..=400,
        len in 1u64..=256, kind in 0usize..=10, shift in 0u32..=7, prime_n in any::<bool>(),
    ) {
        let first = first.checked_shr(magnitude).unwrap_or(0);
        let rows: Vec<u64> = (0..len).map(|i| first.wrapping_add(i * stride)).collect();
        lockstep_agrees_with_next_position(&rows, kind, shift, prime_n)?;
    }

    /// The shifted cell mapper is injective within its width.
    #[test]
    fn shifted_mapper_injective(r1 in 0u64..10_000, c1 in 0u64..100,
                                r2 in 0u64..10_000, c2 in 0u64..100) {
        let m = CellMapper::for_columns(100);
        if (r1, c1) != (r2, c2) {
            prop_assert_ne!(m.map(r1, c1), m.map(r2, c2));
        }
    }

    /// SHA-1 digest splitting is prefix-stable: the first chunks do
    /// not change when more are requested.
    #[test]
    fn split_digest_prefix_stable(x in any::<u64>(), k1 in 1usize..10, extra in 1usize..10) {
        let a = hashkit::split_digest(x, k1, 16);
        let b = hashkit::split_digest(x, k1 + extra, 16);
        prop_assert_eq!(&a[..], &b[..k1]);
    }

    /// Different hash kinds rarely agree; check a weak non-collision
    /// property across the roster on random keys.
    #[test]
    fn roster_kinds_mostly_disagree(x in 1u64..u64::MAX) {
        let values: Vec<u64> = HashKind::ROSTER.iter().map(|k| k.hash(x)).collect();
        let distinct: std::collections::HashSet<_> = values.iter().collect();
        prop_assert!(distinct.len() >= HashKind::ROSTER.len() - 1,
            "too many collisions on {}: {:?}", x, values);
    }
}
