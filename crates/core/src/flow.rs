//! Flow identifiers.
//!
//! A *flow* in the paper is a single connection or application stream:
//! source, destination, a **fixed route**, and whatever is needed to
//! compute deadlines (usually the reserved average bandwidth). Regulated
//! flows are admitted individually; unregulated (best-effort) traffic
//! uses **aggregated** flow records — one generic record per class at
//! each host, with a weighting bandwidth — which is how the EDF
//! architectures differentiate multiple best-effort classes inside one
//! VC (Figure 4). Those stamping records live at the end hosts: the
//! simulator's in `dqos-netsim::flows`, the daemon's in dqos-d's flow
//! table; a packet carries only its [`FlowId`].

use std::fmt;

/// Dense flow identifier, unique across the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The id as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}
