//! # dqos-queues
//!
//! The buffer structures the paper builds its scheduling on, behind one
//! trait ([`SchedQueue`]):
//!
//! * [`FifoQueue`] — a plain FIFO. Used by *Traditional 2 VCs* (which
//!   round-robins) and *Simple 2 VCs* (whose arbiter compares the
//!   deadlines at the queue **heads** only — the merge-sort argument of
//!   §3.2).
//! * [`HeapQueue`] — a deadline-ordered heap, modelling the pipelined
//!   heap of Ioannou & Katevenis. This is the *Ideal* architecture's
//!   buffer: it always exposes the true minimum deadline, and the paper
//!   deems it unfeasible for high-radix single-chip switches.
//! * [`TwoQueue`] — the paper's contribution (§3.4): an *ordered queue*
//!   plus a *take-over queue*, both FIFO. Enqueue compares against the
//!   ordered queue's tail; dequeue takes the smaller of the two heads.
//!   The appendix proves this never reorders packets within a flow; the
//!   property tests here replay those theorems against adversarial
//!   inputs.
//! * [`SortedQueue`] — true ordered-insert queue, used in the **end
//!   hosts** (which, unlike switches, can afford real sorted queues) for
//!   the eligible-time queue. [`DeadlineSortedQueue`] keys it by
//!   deadline: it is the reference order the NIC's per-class injection
//!   runs are tested against (`dqos-endhost`), not a hot-path queue.
//! * [`Voq`] — per-output-port composition of any of the above
//!   (virtual output queuing, the paper's head-of-line-blocking
//!   countermeasure at the switch level).
//! * [`FlatFifo`] / [`FlatTwoQueue`] — flat ring/slot re-implementations
//!   of the FIFO and two-queue structures used on the simulator's hot
//!   path ([`flat`]); observably identical to the originals, which stay
//!   around as differential-test oracles.
//!
//! All structures are generic over any [`Deadlined`] item so the
//! simulator's `Packet` and the tests' tiny stand-ins share the code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fifo;
pub mod flat;
pub mod heap;
pub mod sorted;
pub mod traits;
pub mod two_queue;
pub mod voq;

pub use fifo::FifoQueue;
pub use flat::{FlatFifo, FlatTwoQueue};
pub use heap::HeapQueue;
pub use sorted::{DeadlineSortedQueue, SortedQueue};
pub use traits::{AnyQueue, Deadlined, SchedQueue};
pub use two_queue::TwoQueue;
pub use voq::Voq;
