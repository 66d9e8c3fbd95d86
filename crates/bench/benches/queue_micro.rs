//! **Micro-bench — queue structures (§3.2/§6 feasibility argument).**
//!
//! The paper's case for the two-queue system is cost: a FIFO pair is
//! hardware-trivial while a heap ("Ideal") is not. In software the same
//! ordering shows up as per-operation cost: an enqueue+dequeue churn at
//! several occupancies for each structure.
//!
//! Run: `cargo bench -p dqos-bench --bench queue_micro`

use dqos_bench::harness::measure;
use dqos_queues::{FifoQueue, HeapQueue, SchedQueue, TwoQueue};
use dqos_sim_core::{SimRng, SimTime};
use std::hint::black_box;

/// Minimal deadline-carrying item (mirrors a packet header).
#[derive(Debug, Clone, Copy)]
struct Item {
    deadline: SimTime,
    len: u32,
}

impl dqos_queues::Deadlined for Item {
    fn deadline(&self) -> SimTime {
        self.deadline
    }
    fn len_bytes(&self) -> u32 {
        self.len
    }
}

/// Pre-generate a deadline stream resembling switch arrivals: mostly
/// ascending (per-flow virtual clocks) with occasional late low-deadline
/// packets (the order errors that exercise the take-over queue).
fn deadline_stream(n: usize, seed: u64) -> Vec<Item> {
    let mut rng = SimRng::new(seed);
    let mut clock = 0u64;
    (0..n)
        .map(|_| {
            clock += rng.range_u64(1, 2_000);
            let d = if rng.chance(0.1) {
                clock.saturating_sub(rng.range_u64(0, 10_000))
            } else {
                clock
            };
            Item { deadline: SimTime::from_ns(d), len: 2048 }
        })
        .collect()
}

fn churn<Q: SchedQueue<Item>>(q: &mut Q, stream: &[Item], occupancy: usize) -> u64 {
    // Fill to the working occupancy, then enqueue+dequeue per item.
    let mut out = 0u64;
    for (i, item) in stream.iter().enumerate() {
        q.enqueue(*item);
        if i >= occupancy {
            out += q.dequeue().map(|p| p.len as u64).unwrap_or(0);
        }
    }
    while let Some(p) = q.dequeue() {
        out += p.len as u64;
    }
    out
}

fn main() {
    let stream = deadline_stream(4096, 42);
    let n = stream.len() as u64;
    println!("# queue churn micro-bench ({n} ops per repetition)\n");
    for occupancy in [4usize, 64, 1024] {
        measure(&format!("queue_churn/fifo/{occupancy}"), n, 9, || {
            black_box(churn(&mut FifoQueue::new(), &stream, occupancy))
        });
        measure(&format!("queue_churn/two_queue/{occupancy}"), n, 9, || {
            black_box(churn(&mut TwoQueue::new(), &stream, occupancy))
        });
        measure(&format!("queue_churn/heap/{occupancy}"), n, 9, || {
            black_box(churn(&mut HeapQueue::new(), &stream, occupancy))
        });
        println!();
    }
}
