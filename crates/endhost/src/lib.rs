//! # dqos-endhost
//!
//! The end-host network interface of §3.2, plus the receive side.
//!
//! Egress ([`Nic`]) mirrors the paper's two-VC organisation:
//!
//! * **Regulated VC**: two queues, one feeding the other. Packets wait in
//!   an *eligible-time* queue (ascending eligible time); once eligible
//!   they move to an injection queue sorted by ascending deadline
//!   (kept as one deadline run per traffic class, merged at the head;
//!   see `runs`).
//!   Injection happens when the link is free and credits are available.
//! * **Best-effort VC**: one deadline-sorted queue, injected "only when
//!   the link is available, there are credits, and the regulated traffic
//!   VC has no packets ready to inject" — strict priority, with packets
//!   still waiting for eligibility explicitly *not* blocking best-effort.
//!
//! Under *Traditional 2 VCs* the same structure degrades to two plain
//! FIFOs with no eligible-time stage (no deadlines exist).
//!
//! Ingress ([`Sink`]) consumes packets at link rate, returns credits,
//! verifies per-flow in-order delivery (the property the appendix
//! proves), and reassembles application messages/frames so the paper's
//! *frame latency* (Figure 3) can be measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod nic;
mod runs;
pub mod sink;

pub use nic::{Nic, NicConfig, NicStats};
pub use sink::{CompletedMessage, Sink, SinkStats};
