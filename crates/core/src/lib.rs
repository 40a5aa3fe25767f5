//! # Approximate Bitmap (AB) encoding
//!
//! A Rust reproduction of *Apaydin, Ferhatosmanoglu, Canahuate, Tosun —
//! "Approximate Encoding for Direct Access and Query Processing over
//! Compressed Bitmaps" (VLDB 2006)*.
//!
//! Run-length compressed bitmaps (WAH, BBC) answer full-column queries
//! fast but lose *direct access*: testing "is bit (row, column) set?"
//! requires scanning the compressed stream. The AB stores the set bits
//! of a bitmap table in a Bloom-style hash-addressed bit array instead:
//!
//! * any cell — and therefore any subset of rows × columns — is tested
//!   in O(k) bit probes (paper contribution 2: O(c) retrieval for a
//!   c-cell subset);
//! * **no false negatives** ever occur; false positives arrive at the
//!   controllable rate `(1 − e^{−k/α})^k` where `α` is the number of
//!   AB bits per set bit (§4.1);
//! * the encoding applies at three levels — per data set, per
//!   attribute, per column (§3.2) — with closed-form size trade-offs
//!   (§4.2);
//! * parameters follow either a maximum size or a minimum precision
//!   (contribution 3).
//!
//! ## Quick start
//!
//! ```
//! use ab::{prune_false_positives, AbConfig, AbIndex, Level};
//! use bitmap::{
//!     AttrRange, BinnedTable, BitmapIndex, Column, Encoding, EquiDepth, RectQuery, Table,
//! };
//!
//! // A little sales table, physically ordered by date.
//! let table = Table::new(vec![
//!     Column::new("amount", (0..365).map(|d| (d * 37 % 100) as f64).collect()),
//!     Column::new("region", (0..365).map(|d| (d % 4) as f64).collect()),
//! ]);
//!
//! let binned = BinnedTable::from_table(&table, &EquiDepth::new(4));
//! let index = AbIndex::build(&binned, &AbConfig::new(Level::PerAttribute).with_alpha(16));
//!
//! // "last week's rows where amount falls in the top bin"
//! let q = RectQuery::new(vec![AttrRange::new(0, 3, 3)], 358, 364);
//! let fast_approximate = index.execute_rect(&q); // 100% recall
//! let exact_index = BitmapIndex::build(&binned, Encoding::Equality);
//! let exact = prune_false_positives(&exact_index, &q, &fast_approximate); // second step
//! assert_eq!(exact, exact_index.evaluate_rows(&q));
//! ```
//!
//! ## Module map
//!
//! | paper section | module |
//! |---|---|
//! | §3.1–3.2 insertion/encoding | [`encoding`] |
//! | §3.2 levels | [`level`] |
//! | §3.3 query processing (Figs 5, 7) | [`query`] |
//! | §4 analysis (FP rate, sizing) | [`analysis`] |
//! | §1 exact second step | [`exact`] |
//! | contribution 3 parameter modes | [`config`] |
//! | updates (future work in §7) | [`counting`] |
//! | persistence | [`io`] |

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod analysis;
pub mod blocked;
pub mod config;
pub mod counting;
pub mod encoding;
pub mod exact;
pub mod hier;
pub mod hybrid;
pub mod io;
pub mod kernel;
pub mod level;
pub mod planner;
pub mod query;

pub use analysis::{
    ab_bits, ab_size_bytes, alpha_for_precision, choose_level, fp_rate, fp_rate_exact, level_sizes,
    optimal_k, precision, AbParams, Level, LevelSizes,
};
pub use blocked::BlockedAb;
pub use config::{AbConfig, Sizing};
pub use counting::CountingAb;
pub use encoding::ApproximateBitmap;
pub use exact::{prune_false_positives, row_matches};
pub use hier::{BinBlocks, HierAb, HierConfig, HierLevelSpec, HierPrune};
pub use hybrid::{HybridAb, HybridBin, HybridConfig};
pub use kernel::{
    HierMode, HybridMode, KernelKind, KernelOpts, TierMode, MAX_BATCH_ROWS, PREFETCH_ACTIVE,
};

pub use io::{
    crc32, from_bytes, segment_extents, segments, shards_from_bytes, shards_to_bytes, to_bytes,
    IoError, Segment, SegmentExtent, SEGMENT_HEADER_LEN,
};
pub use level::{shard_ranges, AbIndex, AttributeMeta, UnfilledIndex};
pub use planner::plan_descent;
pub use query::{validate_ranges, Cell, PrecisionStats, QueryError, QueryStats};
