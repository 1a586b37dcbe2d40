//! # bcp-serve — the `repro serve` sweep server
//!
//! A long-running local job server for sweep workloads: clients submit
//! cells (canonical `.scn` text + quality + seed) over a line-delimited
//! JSON protocol on a Unix socket, a worker pool packs them onto the
//! machine's thread budget by shard count, and results land in a
//! content-addressed on-disk cache ([`bcp_snapshot::cache`]) — so
//! identical cells across submissions, and across server restarts, run
//! exactly once and are served instantly ever after.
//!
//! The three guarantees:
//!
//! * **Dedup** — a cell is identified by its [`CellKey`]
//!   (exact emitted `.scn` text, quality tier, seed); equal keys share
//!   one execution and one cached result, within and across submissions.
//! * **Preemption survival** — long cells pause on a sim-time grid and
//!   write a checkpoint ([`bcp_snapshot`] format) between segments; a
//!   killed server resumes each interrupted cell from its last
//!   checkpoint on restart, and the resumed result is byte-identical to
//!   an uninterrupted run (modulo the wall-clock `engine` block). Only a
//!   checkpoint that decodes and embeds the cell's own scenario is
//!   resumed; any other starts the cell cold.
//! * **Streaming** — running cells emit per-window series deltas (the
//!   `SeriesState` sampler) which `watch` subscribers receive live.
//!
//! The scheduler generalises `sweep_worker_budget`: instead of dividing
//! the thread budget by the *largest* shard count up front, workers pack
//! cells dynamically so that the *sum* of running cells' shard counts
//! never exceeds the budget (with skip-ahead, so a narrow cell behind a
//! wide one is not head-of-line blocked).
//!
//! See [`proto`] for the wire protocol, [`server`] for the daemon, and
//! [`client`] for the `submit`/`status`/`watch` side.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod proto;
pub mod server;

pub use bcp_snapshot::cache::CellKey;
pub use proto::{CellSpec, Request};
pub use server::{run_server, ServeConfig};
