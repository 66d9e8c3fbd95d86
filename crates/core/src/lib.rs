//! # dqos-core
//!
//! The paper's primary contribution, as a library: everything a host or
//! switch needs to run deadline-based QoS without per-flow state in the
//! fabric.
//!
//! * [`class`] — the four traffic classes of Table 1 and their mapping
//!   onto the two virtual channels (regulated VC0, best-effort VC1).
//! * [`packet`] — the packet format: a deadline tag, routing information,
//!   and *nothing else* that a switch needs (§3: "only the information in
//!   the header of packets is used").
//! * [`deadline`] — the Virtual-Clock deadline calculus of §3.1:
//!   average-bandwidth stamping, the frame-spread method for multimedia,
//!   full-link-bandwidth stamping for control traffic, and eligible-time
//!   smoothing.
//! * [`flow`] — flow identifiers. Per-flow stamping state, including the
//!   aggregated records of the weighted best-effort classes, is kept at
//!   the **end hosts** (the switches keep none).
//! * [`clock`] — the time-to-destination (TTD) transport of §3.3 that
//!   removes the need for global clock synchronisation.
//! * [`admission`] — the centralised admission control with a per-link
//!   bandwidth ledger and load-balanced fixed-path assignment.
//! * [`arch`] — descriptors for the four evaluated switch architectures
//!   (*Traditional 2 VCs*, *Ideal*, *Simple 2 VCs*, *Advanced 2 VCs*).
//! * [`action`] — what a switch or NIC handler asks the runtime to
//!   schedule: every network element is a state machine whose `on_*`
//!   handlers push [`NodeAction`]s into a caller-owned buffer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod admission;
pub mod arch;
pub mod class;
pub mod clock;
pub mod deadline;
pub mod flow;
pub mod packet;

pub use action::NodeAction;
pub use admission::{AdmissionController, AdmissionError, AdmissionState, AdmittedFlow};
pub use arch::{Architecture, SwitchQueueKind};
pub use class::{TrafficClass, Vc, NUM_CLASSES, NUM_VCS};
pub use clock::{ClockDomain, Ttd};
pub use deadline::{segment_message, segment_message_into, DeadlineMode, Stamper};
pub use deadline::StampedTimes;
pub use flow::FlowId;
pub use packet::{MsgTag, Packet, PacketId, PktTok};
