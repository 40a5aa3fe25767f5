//! # TCP front end for the AB query service
//!
//! A zero-dependency network layer that puts [`svc::Service`] behind
//! a real socket, so the repo's headline throughput numbers are
//! end-to-end (client → wire → admission → shards → wire → client)
//! instead of in-process:
//!
//! * [`frame`] — the `ABQ/2` wire protocol: 16-byte versioned header,
//!   length-prefixed payload, CRC-32 trailer (reusing [`ab::crc32`]),
//!   typed error frames, incremental [`frame::FrameReader`];
//! * [`sys`] — SIGINT/SIGTERM capture for graceful drains, the
//!   crate's one `unsafe` site;
//! * [`server`] — blocking `std::net` threads: one accept thread, and
//!   per connection a reader and a writer, around a bounded handler
//!   pool: pipelined requests per connection, admission control at
//!   accept *and* dispatch (reusing [`svc::WorkerPool`] shedding),
//!   per-request deadlines over the wire, graceful shutdown;
//! * [`client`] — a blocking [`Client`] for tests and tooling, with
//!   explicit pipelining.
//!
//! ## Quick start
//!
//! ```
//! use ab::{AbConfig, Level};
//! use bitmap::{AttrRange, BinnedColumn, BinnedTable, RectQuery};
//! use std::sync::Arc;
//! use svc::{Service, SvcConfig};
//!
//! let table = BinnedTable::new(vec![BinnedColumn::new(
//!     "temp",
//!     (0..500).map(|i| (i % 8) as u32).collect(),
//!     8,
//! )]);
//! let svc = Arc::new(Service::build(
//!     &table,
//!     &AbConfig::new(Level::PerAttribute).with_alpha(16),
//!     &SvcConfig { threads: 2, shards: 2, ..SvcConfig::default() },
//! ));
//! let server = net::NetServer::bind("127.0.0.1:0", Arc::clone(&svc), net::NetConfig::default())
//!     .unwrap();
//! let mut client = net::Client::connect(server.local_addr()).unwrap();
//! let q = RectQuery::new(vec![AttrRange::new(0, 6, 7)], 0, 499);
//! let over_wire = client.query_rect(&q, 0).unwrap();
//! let in_proc = svc.try_query_rect(&q).unwrap().value;
//! let in_proc: Vec<u64> = in_proc.into_iter().map(|r| r as u64).collect();
//! assert_eq!(over_wire, in_proc); // bit-identical across the socket
//! server.shutdown(std::time::Duration::from_secs(1));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod client;
pub mod frame;
pub mod server;
pub mod sys;

pub use client::{Client, NetError};
pub use frame::{ErrorCode, Frame, FrameError, FrameReader, Request, Response, Schema};
pub use server::{NetConfig, NetServer};
