//! # dqos-netsim
//!
//! The whole-network simulator: wires the folded-Clos topology, the
//! switch models, the end-host NICs/sinks, and the Table-1 traffic
//! generators into one deterministic event loop, and defines the paper's
//! experiments on top.
//!
//! * [`config`] — [`SimConfig`]: all knobs with §4 defaults, plus the
//!   `paper()` (128 hosts) and `bench()` (reduced, minutes-not-hours)
//!   presets.
//! * [`flows`] — per-host stamping records and fixed-route assignment:
//!   per-stream records for admitted video flows, aggregated records for
//!   control and the two weighted best-effort classes.
//! * [`collect`] — the statistics collector feeding `dqos-stats`,
//!   gated on the measurement window.
//! * [`network`] — the [`Network`] assembly: topology wiring. Deadlines
//!   travel between clock domains as TTDs exactly as §3.3 prescribes,
//!   so the simulation is invariant to arbitrary per-node clock offsets
//!   (an integration test asserts bit-equality).
//! * `runtime` (private) — the component runtime: node models wrapped
//!   into one [`dqos_sim_core::World`] driven by the calendar loop.
//! * `arena` (private) — the struct-of-arrays packet arena full packets
//!   park in while 40-byte tokens ride the hot path (see DESIGN.md §10).
//! * [`presets`] — shared example/experiment configuration recipes.
//! * [`experiments`] — [`run_one`], one configuration to completion.
//!   Sweeps run independent configurations in parallel with
//!   [`dqos_sim_core::par_map`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collect;
pub mod config;
pub mod error;
pub mod experiments;
pub mod flows;
pub mod network;
pub mod presets;
mod arena;
mod runtime;

pub use collect::Collector;
pub use config::{ClockOffsets, SimConfig, VideoDeadlines};
pub use error::{SimError, StallSnapshot, Violation};
pub use flows::{AdmissionDiag, FlowTable, RerouteStats};
pub use experiments::run_one;
pub use network::{Network, RunSummary};
pub use runtime::CALENDAR_ENTRY_BYTES;
pub use dqos_trace::{Trace, TraceSettings};
