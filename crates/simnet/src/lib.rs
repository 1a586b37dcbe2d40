//! # bcp-simnet — the dual-radio network simulator
//!
//! Assembles every substrate of the reproduction into full-node
//! simulations of the paper's Section 4 evaluation:
//!
//! * [`scenario::Scenario`] — one run's parameterisation, with presets
//!   for the paper's single-hop (Lucent 11 Mbps) and multi-hop (Cabletron)
//!   grid scenarios.
//! * [`spec::ScenarioBuilder`] — validated scenario construction (typed
//!   [`spec::SpecError`]s instead of panics), plus the `.scn` text format
//!   ([`spec::parse_spec`] / [`spec::emit_spec`]) so whole scenarios live
//!   in version-controlled files.
//! * [`scenario::ModelKind`] — the three compared stacks: `Sensor`,
//!   `Dot11` and `DualRadio` (BCP).
//! * [`world::World`] — the event-driven core binding radios, MACs,
//!   routing, the shared media and the BCP machines together.
//! * [`metrics::RunStats`] — goodput, normalized energy (J/Kbit) and mean
//!   delay, exactly as the paper defines them — plus, when the scenario
//!   provisions finite batteries ([`scenario::Scenario::with_battery`]),
//!   the lifetime measures `time_to_first_death_s`,
//!   `time_to_partition_s` and `delivered_before_first_death`.
//!
//! With a battery configured, a node whose supply empties goes silent
//! (no transmitting, receiving, or relaying), survivors rebuild their
//! routes around the corpse, and identical seeds reproduce identical
//! death times.
//!
//! Beyond the paper's convergecast, [`TrafficPattern`] opens the dual
//! workloads: sink-to-all broadcast down a dissemination tree (flooding
//! on the low radio, or BCP bulk relay per tree edge on the high radio)
//! and deterministic many-to-many gossip flows — with per-flow
//! [`FlowStats`] whose sums equal the global counters exactly.
//!
//! # Examples
//!
//! A scaled-down single-hop run (5 senders, burst 100, 60 simulated
//! seconds):
//!
//! ```
//! use bcp_simnet::{ModelKind, Scenario};
//! use bcp_sim::time::SimDuration;
//!
//! let stats = Scenario::single_hop(ModelKind::DualRadio, 5, 100, 1)
//!     .with_duration(SimDuration::from_secs(60))
//!     .run();
//! assert!(stats.goodput > 0.0 && stats.goodput <= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
mod dispatch;
pub mod events;
mod fate;
pub mod metrics;
pub mod node;
mod power;
mod routes;
pub mod scenario;
mod shard;
pub mod snapshot;
pub mod spec;
pub mod world;

pub use bcp_mac::sleep::SleepSchedule;
pub use bcp_traffic::TrafficPattern;
pub use metrics::{EngineStats, FlowStats, Metrics, NodePowerReport, RunStats, SeriesSample};
pub use scenario::{HighRoute, ModelKind, Scenario, WorkloadKind};
pub use snapshot::{explore, fork_with_power, ExploreLimits, ExploreReport, ForkError, WorldState};
pub use spec::{emit_spec, parse_spec, ScenarioBuilder, SpecError};
pub use world::{LiveWorld, RunOptions, RunOutput, World};
