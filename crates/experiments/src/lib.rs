//! # bcp-experiments — regenerate every table and figure of the paper
//!
//! One [`registry::Experiment`] per artifact of the evaluation: Table 1,
//! the four analytic figures (1–4), the six simulation figures (5–10) and
//! the two prototype figures (11–12). The `repro` binary drives them:
//!
//! ```text
//! repro list                      # what can be reproduced
//! repro all --quick               # everything, minutes-scale
//! repro fig6 --paper              # one figure at the paper's full scale
//! repro all --json --out results/ # persist .txt/.json/.csv artifacts
//! repro run examples/specs/single_hop.scn   # any .scn file → RunStats JSON
//! ```
//!
//! Simulation sweeps run on all cores; figure pairs that share sweeps
//! (5+6, 8+9) compute them once.
//!
//! Nothing here measures speed. Throughput is the repository benchmark's
//! job (`perfbench/`, driven by `BENCHMARK.json`); the engine's exact
//! window, barrier and queue counts are pinned by the spec goldens in
//! `tests/phys_layer.rs`.
//!
//! # Examples
//!
//! ```
//! use bcp_experiments::registry::{self, RunCtx};
//! use bcp_experiments::suite::Quality;
//!
//! let table1 = registry::find("table1").expect("registered");
//! let output = (table1.run)(&RunCtx::new(Quality::Test));
//! assert!(output.render(table1.title).contains("Cabletron"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod broadcast;
pub mod fork;
pub mod idle_floor;
pub mod lifetime;
pub mod output;
pub mod registry;
pub mod suite;

pub use output::Output;
pub use registry::{all, find, Experiment, RunCtx};
pub use suite::{Quality, SweepJob, SweepSpec};
