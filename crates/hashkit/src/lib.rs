//! Hash functions for Approximate Bitmap encoding.
//!
//! The AB inserts each set bit of a bitmap table into a Bloom-style bit
//! array via `k` hash functions of the mapping string `x = F(i, j)`
//! (paper §3). This crate supplies every piece of that machinery:
//!
//! * [`mod@sha1`] — SHA-1 from scratch, with digest splitting for the
//!   paper's *single hash function* approach (Table 1).
//! * [`partow`] — the General Purpose Hash Function Algorithms Library
//!   functions (RS, JS, PJW, ELF, BKDR, SDBM, DJB, DEK, AP) plus FNV,
//!   widened to 64 bits.
//! * [`simple`] — the paper's Circular and Column-Group hashes and a
//!   multiply-shift mixer.
//! * [`family`] — [`CellMapper`] (the `F(i, j)` mapping of §3.2.1) and
//!   [`HashFamily`] (independent / SHA-1-split / double-hashing /
//!   column-group strategies producing `k` AB positions per cell).
//!
//! # Example
//!
//! ```
//! use hashkit::{CellMapper, HashFamily};
//!
//! let family = HashFamily::default_independent();
//! let mapper = CellMapper::for_columns(100);
//! let mut positions = Vec::new();
//! family.positions(42, 7, mapper, 4, 1 << 16, &mut positions);
//! assert_eq!(positions.len(), 4);
//! assert!(positions.iter().all(|&p| p < (1 << 16)));
//! ```

#![warn(missing_docs)]

pub mod family;
pub mod partow;
pub mod sha1;
pub mod simple;

pub use family::{
    CellMapper, ColProber, HashFamily, HashKind, LockstepLanes, Prober, RowProbe, LANES,
};
pub use partow::{decimal_key_bytes, decimal_key_bytes_swar, splitmix64};
pub use sha1::{sha1, split_digest, DigestStream};
pub use simple::{circular_hash, column_group_hash, multiply_shift};
