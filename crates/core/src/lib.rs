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
//! * [`flow`] — per-flow stamping state kept at the **end hosts** (the
//!   switches keep none), including the aggregated flow records used for
//!   weighted best-effort classes.
//! * [`clock`] — the time-to-destination (TTD) transport of §3.3 that
//!   removes the need for global clock synchronisation.
//! * [`admission`] — the centralised admission control with a per-link
//!   bandwidth ledger and load-balanced fixed-path assignment.
//! * [`arch`] — descriptors for the four evaluated switch architectures
//!   (*Traditional 2 VCs*, *Ideal*, *Simple 2 VCs*, *Advanced 2 VCs*).
//! * [`model`] / [`action`] — the component contract: every network
//!   element is a [`NodeModel`](model::NodeModel) state machine that
//!   consumes typed events and emits [`NodeAction`]s for the runtime to
//!   schedule; the partitioned executor in `dqos-sim-core` can then
//!   place any node in any partition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod admission;
pub mod model;
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
pub use flow::{Flow, FlowId, FlowSpec, PartStamp};
pub use model::{Actions, NicEvent, NodeModel, SwitchEvent};
pub use packet::{MsgTag, Packet, PacketId, PktTok};
