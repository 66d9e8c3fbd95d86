//! Experiment harness: one (architecture, load) point of the paper's
//! sweeps.
//!
//! Each point is one independent, deterministic simulation. Sweeps
//! (the figure benches' `dqos_bench::run_sweep`, `examples/paper_scale.rs`)
//! run points on a scoped worker pool ([`dqos_sim_core::par_map`]);
//! determinism is unaffected, since parallelism is across runs and
//! results come back in input order.

use crate::config::SimConfig;
use crate::network::{Network, RunSummary};
use dqos_stats::Report;

/// Run one configuration to completion.
pub fn run_one(cfg: SimConfig) -> (Report, RunSummary) {
    Network::new(cfg).run()
}
