//! Property tests for the hash machinery.

use hashkit::{decimal_key_bytes, decimal_key_bytes_swar, CellMapper, HashFamily, HashKind};
use proptest::prelude::*;

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
