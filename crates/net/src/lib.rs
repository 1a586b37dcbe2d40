//! # bcp-net — topology, loss models, routing and addressing
//!
//! The network substrate under the BCP simulator:
//!
//! * [`addr`] — node identities and the low↔high radio address map BCP
//!   needs for its wake-up handshake.
//! * [`topo`] — node placements: the paper's 6×6/40 m grid, the 200 m
//!   multi-hop line, and random fields.
//! * [`loss`] — channel loss processes (perfect, Bernoulli,
//!   Gilbert–Elliott bursts).
//! * [`propagation`] — received-power links: log-distance path loss,
//!   per-link log-normal shadowing, and the SINR capture rule behind the
//!   `phys = logn:…` profile.
//! * [`routing`] — deterministic shortest-hop routes per radio (the
//!   paper's "two separate trees"), one column per destination and built
//!   only for the destinations asked for, and the learned high-radio
//!   [`ShortcutTable`] of Section 3.
//! * [`partition`] — spatial strip partitioning of a topology into shards
//!   for the multi-core conservative simulator.
//!
//! # Examples
//!
//! The paper's two evaluation geometries:
//!
//! ```
//! use bcp_net::addr::NodeId;
//! use bcp_net::routing::Routes;
//! use bcp_net::topo::Topology;
//!
//! // Single-hop study: 6×6 grid; sensor radio and Lucent-11 both 40 m.
//! let grid = Topology::grid(6, 40.0);
//! let sensor = Routes::shortest_hop(&grid, 40.0);
//! assert_eq!(sensor.hops(NodeId(35), NodeId(0)), Some(10));
//!
//! // Multi-hop study: Cabletron's 250 m reaches a central sink in one hop.
//! let dot11 = Routes::shortest_hop(&grid, 250.0);
//! assert_eq!(dot11.hops(NodeId(35), NodeId(14)), Some(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod loss;
pub mod partition;
pub mod propagation;
pub mod routing;
pub mod topo;

pub use addr::{AddrMap, HighAddr, LowAddr, NodeId};
pub use loss::{LossModel, LossState};
pub use partition::Partition;
pub use propagation::{PathLoss, PhysModel, ShadowMap};
pub use routing::{Routes, ShortcutTable};
pub use topo::{Position, Topology};
