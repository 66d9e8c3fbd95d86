//! # dqos-topology
//!
//! Network topologies for the deadline-QoS simulator.
//!
//! The paper evaluates a *butterfly multi-stage interconnection network
//! (MIN) with 128 endpoints*, concretely a **folded (bidirectional)
//! perfect-shuffle** built from 16-port switches. For 128 endpoints and
//! radix-16 switches the standard realisation is a two-stage folded Clos:
//! 16 leaf switches (8 host ports + 8 uplinks each) fully connected to
//! 8 spine switches (16 downlinks each). [`FoldedClos`] builds that
//! network — and any other two-stage instance — and provides:
//!
//! * deterministic node/port/link identifiers ([`ids`]),
//! * minimal **up/down routes** between any host pair, one candidate per
//!   spine ([`FoldedClos::route`]), which is what the paper's fixed,
//!   admission-assigned routing needs,
//! * link enumeration along a route for the admission controller's
//!   bandwidth ledger.
//!
//! Up/down routing in a folded Clos is deadlock-free (no cyclic channel
//! dependencies: every route ascends zero or more times, turns once, and
//! then only descends), which the tests check structurally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clos;
pub mod ids;
pub mod route;

pub use clos::{ClosParams, FoldedClos, LinkEnd, PathLinks};
pub use ids::{HostId, LinkId, NodeId, Port, SwitchId};
pub use route::{PortPath, Route, RouteHop, MAX_ROUTE_HOPS};
