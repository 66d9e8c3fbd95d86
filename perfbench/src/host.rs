//! Host facts, memory, the host-speed reference, and the statistics
//! helpers every workload uses.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Host seconds one pass of [`HostSpeed`]'s loop is defined to take: the
/// speed the simulator workloads' times are reported at. It is what a
/// pass took on a 2-vCPU Intel Xeon VM; any fixed value would do, since
/// only ratios between runs matter.
pub const REFERENCE_PASS_S: f64 = 0.06;

/// Pending events of [`HostSpeed`]'s reference loop.
const PENDING: u64 = 1 << 15;
/// Index mask of its state table (1 Mi words, 8 MiB).
const STATE_MASK: usize = (1 << 20) - 1;

/// The host-speed reference: a fixed discrete-event loop written here,
/// so no change to the repository's crates can move it. A binary heap of
/// 32 Ki pending events drives random reads and writes to an 8 MiB state
/// table, with an occasional small allocation: the same mix of heap
/// work, cache misses and `malloc` the simulator does. On a shared host
/// the simulator's speed drifts by ±20 % over tens of seconds with its
/// neighbours' load; this loop drifts with it, so dividing by it leaves
/// the code's own speed. Passes run between measured units and turn
/// each unit's host seconds into reference seconds.
#[derive(Debug, Clone)]
pub struct HostSpeed {
    /// Seconds of every timed pass so far.
    pub passes: Vec<f64>,
    /// Resident MiB the loop's own memory added: subtract it from
    /// [`peak_rss_mib`] to leave the measured program's peak.
    pub resident_mib: f64,
    clock: fn() -> f64,
    state: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl HostSpeed {
    /// Allocate the loop's memory, warm it with an untimed pass, and
    /// time the first pass on `clock` (seconds; the clock the measured
    /// units are timed on: [`cpu_s`] or [`wall_s`]).
    pub fn start(clock: fn() -> f64) -> HostSpeed {
        let before = status_mib("VmRSS:");
        let mut s = HostSpeed {
            passes: Vec::new(),
            resident_mib: 0.0,
            clock,
            state: vec![0; STATE_MASK + 1],
            heap: BinaryHeap::with_capacity(PENDING as usize),
        };
        s.run();
        s.resident_mib = status_mib("VmRSS:") - before;
        s.pass();
        s
    }

    /// One pass of the reference loop over the probe's own memory.
    fn run(&mut self) -> u64 {
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (state, heap) = (&mut self.state, &mut self.heap);
        state.fill(0);
        heap.clear();
        for i in 0..PENDING {
            heap.push(Reverse((next() % 10_000, i)));
        }
        let mut acc = 0u64;
        for _ in 0..300_000 {
            let Reverse((t, n)) = heap.pop().expect("the heap never empties");
            let r = next();
            let i = (r ^ n) as usize & STATE_MASK;
            state[i] = state[i].wrapping_add(t);
            acc ^= state[(n as usize).wrapping_mul(7919) & STATE_MASK];
            if r % 64 == 0 {
                let v: Vec<u64> = Vec::with_capacity(16 + (r % 200) as usize);
                acc ^= black_box(v).capacity() as u64;
            }
            heap.push(Reverse((t + 1 + r % 2000, (r >> 32) % PENDING)));
        }
        black_box(acc)
    }

    fn pass(&mut self) -> f64 {
        let t = (self.clock)();
        self.run();
        let s = (self.clock)() - t;
        self.passes.push(s);
        s
    }

    /// Time a pass and return the factor that scales the unit measured
    /// since the previous pass to reference seconds:
    /// [`REFERENCE_PASS_S`] over the mean of the passes on either side.
    pub fn factor(&mut self) -> f64 {
        let before = *self.passes.last().expect("started with a pass");
        let after = self.pass();
        REFERENCE_PASS_S / ((before + after) / 2.0)
    }
}

/// Seconds this thread has run on a CPU (`CLOCK_THREAD_CPUTIME_ID`):
/// unlike wall time it leaves out time the hypervisor stole and time
/// other processes ran. (`/proc/thread-self/schedstat` gives the same
/// count, but for a running thread only as of its last scheduler tick.)
/// Falls back to [`wall_s`] off Linux or if the call fails.
#[allow(unsafe_code)]
pub fn cpu_s() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit
        // words on 64-bit Linux) through a pointer to a live local.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9;
        }
    }
    wall_s()
}

/// Wall seconds since this process first asked.
pub fn wall_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Facts about the machine a run measured on, so a noisy figure can be
/// traced to the host (few CPUs, stolen time) rather than the code.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// First `model name` line of `/proc/cpuinfo` (empty if unreadable).
    pub cpu_model: String,
    /// `steal` ticks (all CPUs) from `/proc/stat` when the run started.
    steal_start: Option<u64>,
    started: Instant,
}

impl HostFacts {
    /// Read the facts at the start of a run.
    pub fn capture() -> HostFacts {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_default();
        HostFacts {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu_model,
            steal_start: steal_ticks(),
            started: Instant::now(),
        }
    }

    /// One JSON object with the facts and the steal ticks accumulated
    /// since [`HostFacts::capture`] (`null` where `/proc/stat` is absent).
    pub fn to_json(&self) -> String {
        let steal = match (self.steal_start, steal_ticks()) {
            (Some(a), Some(b)) => format!("{}", b.saturating_sub(a)),
            _ => "null".to_string(),
        };
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"steal_ticks\": {}, \"wall_s\": {:.3}}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], ""),
            steal,
            self.started.elapsed().as_secs_f64()
        )
    }
}

/// Total `steal` ticks over all CPUs (8th value of the `cpu` line).
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// A memory line of `/proc/self/status`, MiB (0 where unreadable).
fn status_mib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Median of `xs` (mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` of `xs` (`q = 0.99` is the value 99 % of
/// samples do not exceed).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Time `f` in batches until `slice_s` host seconds have passed (at least
/// `min_batches` batches), returning the median ns per item. `f` does one
/// batch and returns how many items it processed.
pub fn ns_per_item(slice_s: f64, min_batches: usize, mut f: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut per_item = Vec::new();
    while per_item.len() < min_batches || start.elapsed().as_secs_f64() < slice_s {
        let t = Instant::now();
        let n = f();
        let ns = t.elapsed().as_nanos() as f64;
        per_item.push(ns / n.max(1) as f64);
    }
    median(&per_item)
}

/// 64-bit FNV-1a, for digests of reports.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn host_speed_passes_are_the_same_work() {
        let mut s = HostSpeed::start(cpu_s);
        let sum = s.run();
        assert_eq!(s.run(), sum, "every pass does identical work");
        let f = s.factor();
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(s.passes.len(), 2);
        assert!(s.resident_mib >= 0.0);
    }
}
