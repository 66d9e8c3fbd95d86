//! # dqos-sim-core
//!
//! Deterministic discrete-event simulation kernel used by the
//! `deadline-qos` workspace, the reproduction of *"Deadline-based QoS
//! Algorithms for High-performance Networks"* (IPPS 2007).
//!
//! The kernel is deliberately small and allocation-light:
//!
//! * [`SimTime`] / [`SimDuration`] — integer nanosecond timestamps. One
//!   simulation tick is one nanosecond, so at the paper's 8 Gb/s link rate
//!   a packet's serialisation time in ticks equals its length in bytes.
//! * [`EventQueue`] — a two-level bucketed calendar queue (timing-wheel
//!   near buckets + sorted overflow) with a monotonically increasing
//!   sequence number so that events scheduled for the same tick are
//!   delivered in FIFO order (stable, deterministic tie-breaking).
//!   [`BinaryHeapQueue`] is the original heap calendar, kept as the
//!   reference oracle for differential tests and benches.
//! * [`execute`] / [`PartWorld`] — the driver loop: the serial oracle
//!   for one partition, the conservative-parallel executor for several.
//! * [`rng`] / [`dist`] — a seedable, version-stable PRNG
//!   (xoshiro256\*\*, implemented in-tree — no `rand` dependency) plus
//!   the distributions the paper's workloads need (exponential, bounded
//!   Pareto, log-normal).
//! * [`pool`] — a scoped std::thread worker pool for parallel sweeps
//!   (one deterministic single-threaded simulation per worker).
//!
//! Determinism contract: given the same seed and the same sequence of
//! `schedule` calls, a simulation built on this kernel replays exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod exec;
pub mod pool;
pub mod queue;
pub mod ring;
pub mod rng;
pub mod time;

/// The atomic/thread shim `ring`/`exec` are written against: a verbatim
/// `std::sync::atomic` + `std::thread` re-export in plain builds, the
/// controlled scheduler of `dqos-mcheck-rt` under the `mcheck-rt`
/// feature (systematic interleaving exploration + happens-before race
/// detection on the production protocol code — see DESIGN.md §13).
pub use dqos_mcheck_rt::tsync;

// Compile-time proof that the shim is zero-cost when the checker is
// off: the identity coercion only type-checks if `tsync::AtomicU64`
// *is* `std::sync::atomic::AtomicU64` (a re-export, not a wrapper).
#[cfg(not(feature = "mcheck-rt"))]
const _TSYNC_IS_STD: fn(&tsync::AtomicU64) -> &std::sync::atomic::AtomicU64 = |x| x;

pub use exec::{execute, ExecConfig, ExecEdge, ExecError, ExecResult, Outbox, PartWorld};
pub use pool::{default_workers, par_map};
pub use queue::{BinaryHeapQueue, EventQueue, ScheduledEvent};
pub use ring::{RingMsg, SpscRing};
pub use rng::{SimRng, SplitMix64};
pub use time::{Bandwidth, SimDuration, SimTime};
