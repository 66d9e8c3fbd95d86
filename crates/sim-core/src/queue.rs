//! The event calendar.
//!
//! Two implementations share one API and one semantics contract:
//!
//! * [`EventQueue`] — the production calendar: a **two-level bucketed
//!   calendar queue** (timing-wheel-style near buckets plus a sorted
//!   overflow heap). Scheduling and popping are O(1) amortised for the
//!   dense, short-horizon event patterns a network simulation produces,
//!   instead of the O(log n) per operation of a binary heap.
//! * [`BinaryHeapQueue`] — the original binary-heap calendar, kept only as
//!   the reference oracle of the differential tests (this module's and
//!   `tests/calendar_differential.rs`).
//!
//! **Semantics contract** (identical for both): events pop in
//! non-decreasing time order, and events that share a tick pop in the
//! order they were scheduled (stable FIFO tie-break on a monotonically
//! increasing sequence number). Scheduling in the past is a logic error
//! and panics in debug builds.
//!
//! # Bucketed calendar design
//!
//! Time is divided into buckets of `2^shift` ns. The wheel is a ring of
//! `n_buckets` (a power of two) slots covering the *horizon*
//! `[cur_abs, cur_abs + n_buckets)` in absolute bucket indices, where
//! `cur_abs = now >> shift` is the cursor. An event at time `t` with
//! absolute bucket `abs = t >> shift`:
//!
//! * lands in ring slot `abs & (n_buckets - 1)` if `abs` is inside the
//!   horizon — an O(1) push onto an unsorted per-bucket `Vec`;
//! * otherwise goes to the **overflow** binary heap.
//!
//! Buckets sort lazily: a bucket is only sorted (descending by
//! `(time, seq)`, so the minimum pops from the back in O(1)) the first
//! time the cursor drains it, and a later push into a sorted bucket just
//! clears its sorted flag. A per-slot occupancy bitmap (`Vec<u64>`,
//! scanned with `trailing_zeros`) lets the cursor skip runs of empty
//! buckets 64 at a time.
//!
//! Whenever the cursor advances, overflow events whose bucket has come
//! inside the horizon migrate into the wheel (each event migrates at most
//! once). This preserves the invariant that every overflow event is
//! strictly beyond every wheel event, so the wheel — when non-empty —
//! always holds the global minimum, and the `(time, seq)` sort inside a
//! bucket restores exact FIFO order even when equal-tick events arrive
//! via different levels.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event popped from the queue: when it fires and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The tick at which the event fires.
    pub time: SimTime,
    /// The simulation-defined payload.
    pub payload: E,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// Min-heap ordering on (time, seq): earlier time first; among equal times,
// the event scheduled first fires first (deterministic FIFO).
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest
        // (time, seq) on top.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[derive(Debug)]
struct Bucket<E> {
    items: Vec<Entry<E>>,
    /// True when `items` is sorted descending by `(time, seq)` — the
    /// minimum is at the back. Lazily established on first drain.
    sorted: bool,
}

impl<E> Default for Bucket<E> {
    fn default() -> Self {
        Bucket { items: Vec::new(), sorted: true }
    }
}

/// Default bucket width: `2^3` = 8 ns. At the paper's 8 Gb/s links one
/// byte serialises in 1 ns, so an 8 ns bucket is a fraction of even a
/// minimum-size packet — same-bucket collisions stay rare.
const DEFAULT_SHIFT: u32 = 3;
/// Default wheel size: 1024 buckets × 8 ns ≈ 8 µs horizon, which covers
/// packet serialisation (~2 µs for an MTU at 8 Gb/s), link flight and
/// credit round-trips; only far-future events (idle source wake-ups, long
/// Pareto OFF periods) take the overflow path. On a schedule/pop churn
/// micro-bench (since retired; git holds it) this geometry beat both
/// wider buckets (deeper per-bucket sorts) and larger rings (bucket
/// headers and the occupancy bitmap fall out of cache) at every tested
/// occupancy; perfbench's `queue.ns_per_op` row prices the calendar now.
const DEFAULT_BUCKETS: usize = 1024;

/// A discrete-event calendar (two-level bucketed implementation).
///
/// Events are `(SimTime, E)` pairs; [`EventQueue::pop`] returns them in
/// non-decreasing time order, with FIFO order among events that share a
/// tick. Scheduling in the past is a logic error and panics in debug
/// builds (it would silently reorder causality).
#[derive(Debug)]
pub struct EventQueue<E> {
    buckets: Vec<Bucket<E>>,
    /// One bit per ring slot; set iff the slot's bucket is non-empty.
    occupancy: Vec<u64>,
    /// Second level: one bit per `occupancy` word, set iff the word is
    /// non-zero. Valid only when the ring has at most 64 words (4096
    /// buckets); larger rings fall back to scanning the words directly.
    word_occ: u64,
    /// Events beyond the wheel horizon, min-first by `(time, seq)`.
    overflow: BinaryHeap<Entry<E>>,
    /// log2 of the bucket width in ns.
    shift: u32,
    /// `n_buckets - 1`; `n_buckets` is a power of two.
    mask: u64,
    /// Absolute bucket index of the cursor (`now >> shift`).
    cur_abs: u64,
    /// Events currently in the wheel (excludes overflow).
    wheel_len: usize,
    len: usize,
    /// Most events ever pending at once (diagnostic high-water mark).
    peak_len: usize,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Bytes one pending event occupies in a bucket or the overflow
    /// heap: the time, the ordering key and the payload, padded.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<E>>();

    /// An empty calendar at time zero with the default geometry.
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_SHIFT, DEFAULT_BUCKETS)
    }

    /// An empty calendar with pre-allocated overflow capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.overflow.reserve(cap.min(1 << 20));
        q
    }

    /// An empty calendar with an explicit bucket width (`2^shift` ns) and
    /// wheel size. `n_buckets` is rounded up to a power of two, minimum
    /// 64 (one occupancy word). Small geometries are useful in tests to
    /// force the overflow/migration paths.
    pub fn with_geometry(shift: u32, n_buckets: usize) -> Self {
        assert!(shift < 32, "bucket width 2^{shift} ns is absurdly large");
        let n = n_buckets.next_power_of_two().max(64);
        EventQueue {
            buckets: (0..n).map(|_| Bucket::default()).collect(),
            occupancy: vec![0u64; n / 64],
            word_occ: 0,
            overflow: BinaryHeap::new(),
            shift,
            mask: (n - 1) as u64,
            cur_abs: 0,
            wheel_len: 0,
            len: 0,
            peak_len: 0,
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    #[inline]
    fn n_buckets(&self) -> u64 {
        self.mask + 1
    }

    /// The time of the most recently popped event (the current simulation
    /// clock).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// `at` must not precede the current clock.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        let abs = at.as_ns() >> self.shift;
        let entry = Entry { time: at, seq, payload };
        // `abs >= cur_abs` whenever `at >= now`; the saturating_sub keeps
        // release builds from indexing garbage if that contract is broken.
        if abs.saturating_sub(self.cur_abs) < self.n_buckets() {
            self.push_wheel(abs, entry);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Schedule `payload` to fire at absolute time `at`, ordered among
    /// same-tick events by the caller-supplied `key` instead of the
    /// internal insertion counter.
    ///
    /// This is the simulation's determinism hook: keys encode
    /// `(source node, per-source sequence)` so that the pop order at a
    /// tick is a pure function of who sent what, not of the order in
    /// which sends reached this calendar. A calendar must be driven
    /// either entirely through [`EventQueue::schedule`] or entirely
    /// through `schedule_keyed` — mixing counter values with caller keys
    /// would interleave the two keyspaces arbitrarily.
    ///
    /// `at` must not precede the current clock.
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        let abs = at.as_ns() >> self.shift;
        let entry = Entry { time: at, seq: key, payload };
        if abs.saturating_sub(self.cur_abs) < self.n_buckets() {
            self.push_wheel(abs, entry);
        } else {
            self.overflow.push(entry);
        }
    }

    #[inline]
    fn push_wheel(&mut self, abs: u64, entry: Entry<E>) {
        let slot = (abs & self.mask) as usize;
        let b = &mut self.buckets[slot];
        b.sorted = b.items.is_empty();
        b.items.push(entry);
        self.occupancy[slot >> 6] |= 1u64 << (slot & 63);
        self.word_occ |= 1u64 << ((slot >> 6) & 63);
        self.wheel_len += 1;
    }

    /// Move the cursor to `new_abs` and pull every overflow event whose
    /// bucket is now inside the horizon into the wheel. Migrated events
    /// always land at or ahead of the new cursor, never behind it.
    fn advance_to(&mut self, new_abs: u64) {
        self.cur_abs = new_abs;
        if self.overflow.is_empty() {
            return;
        }
        while let Some(top) = self.overflow.peek() {
            let abs = top.time.as_ns() >> self.shift;
            if abs.saturating_sub(self.cur_abs) >= self.n_buckets() {
                break;
            }
            // tidy: allow(no-unwrap) -- the while-let peek above proved the
            // overflow heap is non-empty.
            let entry = self.overflow.pop().expect("peeked");
            // Still pending, so `len` is untouched; push_wheel bumps
            // `wheel_len` to account for the level change.
            self.push_wheel(abs, entry);
        }
    }

    /// Ring offset (0..n_buckets) of the first occupied slot at or after
    /// the cursor, scanning the occupancy bitmap a word at a time.
    fn next_occupied_offset(&self) -> Option<u64> {
        let start = self.cur_abs & self.mask;
        let nw = self.occupancy.len();
        let w0 = (start >> 6) as usize;
        let b0 = (start & 63) as u32;
        let first = self.occupancy[w0] & (!0u64 << b0);
        if first != 0 {
            let slot = ((w0 as u64) << 6) | first.trailing_zeros() as u64;
            return Some(slot - start);
        }
        if nw <= 64 {
            // Small ring: the second-level bitmap finds the next
            // non-empty word in O(1). Rotate so that word `w0 + 1` is at
            // bit 0, take the first set bit, and rotate back.
            let occ = if nw == 64 {
                self.word_occ
            } else {
                // Replicate the ring so the rotation below never pulls in
                // vacant high bits.
                let m = (1u64 << nw) - 1;
                let w = self.word_occ & m;
                w | (w << nw)
            };
            let rot = occ.rotate_right((w0 as u32 + 1) & 63);
            if rot == 0 {
                return None;
            }
            let w = (w0 + 1 + rot.trailing_zeros() as usize) & (nw - 1);
            let word = if w == w0 {
                // Came all the way around: only the wrapped low bits of
                // the cursor word remain.
                self.occupancy[w0] & !(!0u64 << b0)
            } else {
                self.occupancy[w]
            };
            if word == 0 {
                return None;
            }
            let slot = ((w as u64) << 6) | word.trailing_zeros() as u64;
            return Some(slot.wrapping_sub(start) & self.mask);
        }
        // Large ring: scan word by word. `nw` is a power of two
        // (n_buckets is, and is at least 64), so the wrap is a mask.
        let wmask = nw - 1;
        for i in 1..nw {
            let w = (w0 + i) & wmask;
            let word = self.occupancy[w];
            if word != 0 {
                let slot = ((w as u64) << 6) | word.trailing_zeros() as u64;
                return Some(slot.wrapping_sub(start) & self.mask);
            }
        }
        let wrapped = self.occupancy[w0] & !(!0u64 << b0);
        if wrapped != 0 {
            let slot = ((w0 as u64) << 6) | wrapped.trailing_zeros() as u64;
            return Some(slot.wrapping_sub(start) & self.mask);
        }
        None
    }

    /// Remove and return the earliest event, advancing the clock to its
    /// timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            // Everything pending is beyond the horizon: jump the cursor to
            // the overflow minimum, which migrates it (and any followers
            // inside the new horizon) into the wheel.
            // tidy: allow(no-unwrap) -- len > 0 and wheel_len == 0, so the
            // remaining events all live in the overflow heap.
            let t = self.overflow.peek().expect("len > 0, wheel empty").time;
            self.advance_to(t.as_ns() >> self.shift);
        } else {
            let slot = (self.cur_abs & self.mask) as usize;
            if self.buckets[slot].items.is_empty() {
                // The cursor bucket is empty, so the nearest occupied
                // slot is strictly ahead.
                let off = self
                    .next_occupied_offset()
                    // tidy: allow(no-unwrap) -- wheel_len > 0 means some
                    // bucket is occupied, so the bitmap scan finds a slot.
                    .expect("wheel_len > 0 implies an occupied slot");
                self.advance_to(self.cur_abs + off);
            }
        }
        let slot = (self.cur_abs & self.mask) as usize;
        let b = &mut self.buckets[slot];
        if !b.sorted {
            // Descending, so the (time, seq) minimum pops from the back.
            b.items
                .sort_unstable_by(|a, b| (b.time, b.seq).cmp(&(a.time, a.seq)));
            b.sorted = true;
        }
        // tidy: allow(no-unwrap) -- the cursor was just advanced to an
        // occupied slot (or was already on one), so the bucket has items.
        let e = b.items.pop().expect("cursor bucket is non-empty");
        if b.items.is_empty() {
            let w = slot >> 6;
            self.occupancy[w] &= !(1u64 << (slot & 63));
            if self.occupancy[w] == 0 {
                self.word_occ &= !(1u64 << (w & 63));
            }
        }
        self.wheel_len -= 1;
        self.len -= 1;
        debug_assert!(e.time >= self.now, "event queue time went backwards");
        debug_assert_eq!(e.time.as_ns() >> self.shift, self.cur_abs);
        self.now = e.time;
        Some(ScheduledEvent { time: e.time, payload: e.payload })
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the calendar is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Most events ever pending at once (a diagnostic high-water mark).
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

/// The original binary-heap calendar, kept as the reference oracle.
///
/// Same API and semantics as [`EventQueue`]; differential tests assert
/// bit-identical pop order between the two. Nothing else uses it.
#[derive(Debug)]
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// An empty calendar at time zero.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` to fire at absolute time `at` (`at >= now`).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time: at, seq, payload });
    }

    /// Remove and return the earliest event, advancing the clock.
    #[inline]
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let e = self.heap.pop()?;
        debug_assert!(e.time >= self.now, "event queue time went backwards");
        self.now = e.time;
        Some(ScheduledEvent { time: e.time, payload: e.payload })
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the calendar is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), "c");
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_tick_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ns(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7));
        assert!(q.pop().is_none());
        // Clock is preserved after drain.
        assert_eq!(q.now(), SimTime::from_ns(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 1u32);
        let e = q.pop().unwrap();
        assert_eq!(e.payload, 1);
        // Schedule relative to the new clock.
        q.schedule(q.now() + SimDuration::from_ns(5), 2);
        q.schedule(q.now() + SimDuration::from_ns(1), 3);
        assert_eq!(q.pop().unwrap().payload, 3);
        assert_eq!(q.pop().unwrap().payload, 2);
    }

    #[test]
    fn overflow_events_come_back_in_order() {
        // Tiny wheel (64 buckets × 1 ns = 64 ns horizon) so that most
        // events take the overflow + migration path.
        let mut q = EventQueue::with_geometry(0, 64);
        let times = [500u64, 3, 70, 64, 63, 1000, 65, 2, 500, 129];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(t), i);
        }
        let mut sorted: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        sorted.sort(); // (time, insertion order) — insertion order == seq order
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time.as_ns(), e.payload))).collect();
        assert_eq!(got, sorted);
    }

    #[test]
    fn equal_ticks_split_across_wheel_and_overflow_stay_fifo() {
        let mut q = EventQueue::with_geometry(0, 64);
        // 100 is beyond the horizon [0, 64): goes to overflow.
        q.schedule(SimTime::from_ns(100), 0);
        q.schedule(SimTime::from_ns(50), 1);
        assert_eq!(q.pop().unwrap().payload, 1);
        // Cursor is now at 50; 100 is inside [50, 114) so this insert goes
        // straight to the wheel while event 0 still sits in overflow.
        q.schedule(SimTime::from_ns(100), 2);
        // FIFO among the equal tick demands 0 before 2.
        assert_eq!(q.pop().unwrap().payload, 0);
        assert_eq!(q.pop().unwrap().payload, 2);
    }

    #[test]
    fn drain_refill_cycles_wrap_the_ring() {
        let mut q = EventQueue::with_geometry(0, 64);
        let mut t = 0u64;
        let mut rng = SimRng::new(77);
        for _ in 0..50 {
            // Refill with a burst that straddles the horizon, then drain.
            let base = t;
            let mut expect = Vec::new();
            for i in 0..40 {
                let at = base + rng.range_u64(0, 200);
                q.schedule(SimTime::from_ns(at), i);
                expect.push(at);
            }
            expect.sort_unstable();
            for &want in &expect {
                let e = q.pop().unwrap();
                assert_eq!(e.time.as_ns(), want);
                t = e.time.as_ns();
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn differential_vs_reference_heap_small() {
        let mut rng = SimRng::new(2024);
        let mut fast = EventQueue::with_geometry(2, 64);
        let mut oracle = BinaryHeapQueue::new();
        let mut pending = 0u32;
        for step in 0..20_000u64 {
            if pending == 0 || (pending < 512 && rng.chance(0.55)) {
                let at = SimTime::from_ns(
                    fast.now().as_ns() + rng.range_u64(0, 700),
                );
                fast.schedule(at, step);
                oracle.schedule(at, step);
                pending += 1;
            } else {
                let a = fast.pop().unwrap();
                let b = oracle.pop().unwrap();
                assert_eq!((a.time, a.payload), (b.time, b.payload));
                pending -= 1;
            }
            assert_eq!(fast.len(), oracle.len());
        }
        while let Some(b) = oracle.pop() {
            let a = fast.pop().unwrap();
            assert_eq!((a.time, a.payload), (b.time, b.payload));
        }
        assert!(fast.is_empty());
    }

    /// Randomized schedules via the in-house RNG: events pop in time
    /// order, FIFO among equal times.
    #[test]
    fn stable_time_order_randomized() {
        let mut rng = SimRng::new(31337);
        for case in 0..200u64 {
            let n = 1 + rng.index(200);
            let mut q = EventQueue::with_geometry((case % 5) as u32, 64);
            for i in 0..n {
                q.schedule(SimTime::from_ns(rng.range_u64(0, 999)), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some(e) = q.pop() {
                if let Some((lt, lidx)) = last {
                    assert!(e.time >= lt);
                    if e.time == lt {
                        assert!(e.payload > lidx, "FIFO violated among equal ticks");
                    }
                }
                last = Some((e.time, e.payload));
            }
        }
    }
}
