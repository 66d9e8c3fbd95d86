//! Paged struct-of-arrays packet arena: resident storage for every
//! packet between stamping and delivery.
//!
//! The hot path moves 40-byte [`PktTok`] tokens (see `dqos_core`); the
//! rest of the [`Packet`] parks here the whole time. Each page is laid
//! out as parallel arrays so the one field the forwarding path actually
//! reads per hop — the interned route, for the next hop's output port —
//! sits in its own densely packed lane, while the statistics-only cold
//! fields (message tag, flow id, destination) stay out of the cache
//! until delivery reassembles the packet.
//!
//! The arena keeps only what the token does not carry: id, class,
//! length, deadline and hop come back from the token at
//! [`SoaArena::take`], the source host is the top bits of the packet id
//! (ids are `(src << PKT_ID_HOST_SHIFT) | counter`), and the injection
//! time is not kept at all (nothing reads it). That is 38 bytes per
//! slot.
//!
//! Occupancy and the corruption flag share a one-byte state lane: both
//! are written on rare paths (insert/take, fault rolls) but checking
//! them must not drag the cold lane in.
//!
//! Storage grows one fixed page at a time, never by doubling, so a deep
//! run holds at most one partly used page beyond its live packets and
//! never a second copy during a reallocation. Vacant slots are threaded
//! into a LIFO free list through their cold lane's message-id word
//! (reuse keeps the working set hot), and a new slot is minted only
//! when that list is
//! empty — so the slots minted are exactly the run's peak residency,
//! which [`SoaArena::high_water`] reports.

use dqos_core::{FlowId, MsgTag, Packet, PktTok};
use dqos_sim_core::SimTime;
use dqos_topology::{HostId, Port, PortPath};

/// Packet ids are `(src << PKT_ID_HOST_SHIFT) | per-host counter`; the
/// arena recovers the source host from them.
pub(crate) const PKT_ID_HOST_SHIFT: u32 = 40;

const PAGE_SHIFT: u32 = 10;
/// Slots per page (a page is ≈38 KiB).
pub(crate) const PAGE_SLOTS: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = PAGE_SLOTS as u32 - 1;

/// End of the free list.
const NIL: u32 = u32::MAX;

/// Slot state bits (the `state` lane).
const OCCUPIED: u8 = 1 << 0;
const CORRUPTED: u8 = 1 << 1;

/// Cold per-packet fields: what neither the token nor the packet id
/// carries and the forwarding path never reads. Written at
/// [`SoaArena::insert`], read back at [`SoaArena::take`]. A vacant
/// slot's `msg.msg_id` holds the next free slot instead.
#[derive(Debug, Clone, Copy)]
struct ColdSlot {
    flow: FlowId,
    dst: HostId,
    msg: MsgTag,
}

// A widened cold slot must fail the build: a loaded paper fabric keeps
// ≈10⁵ of them.
const _: () = assert!(std::mem::size_of::<ColdSlot>() <= 32);

/// One fixed-size page of slots, lane by lane (38 bytes per slot in
/// release builds).
#[derive(Debug)]
struct Page {
    /// Hot lane: the interned route, read once per switch hop to pick
    /// the next output port. 5 bytes per slot, ~12 routes per line.
    route: [PortPath; PAGE_SLOTS],
    /// Hot lane: occupancy + corruption bits.
    state: [u8; PAGE_SLOTS],
    /// Cold lane: stats-only fields, touched at insert/take only.
    cold: [ColdSlot; PAGE_SLOTS],
    /// Debug builds only: the resident packet's id, so a stale or
    /// duplicated token whose slot was reused is caught at `take`
    /// instead of rebuilding another packet under its own id.
    #[cfg(debug_assertions)]
    ids: [u64; PAGE_SLOTS],
}

impl Page {
    fn new() -> Box<Self> {
        let vacant = ColdSlot {
            flow: FlowId(0),
            dst: HostId(0),
            msg: MsgTag { msg_id: NIL as u64, part: 0, parts: 0, created_at: SimTime::ZERO },
        };
        Box::new(Page {
            route: [PortPath::new(&[Port(0)]); PAGE_SLOTS],
            state: [0; PAGE_SLOTS],
            cold: [vacant; PAGE_SLOTS],
            #[cfg(debug_assertions)]
            ids: [0; PAGE_SLOTS],
        })
    }
}

/// Page and in-page index of `slot`.
#[inline]
fn split(slot: u32) -> (usize, usize) {
    ((slot >> PAGE_SHIFT) as usize, (slot & PAGE_MASK) as usize)
}

/// The paged struct-of-arrays arena. One per [`crate::runtime::Sim`].
#[derive(Debug)]
pub(crate) struct SoaArena {
    pages: Vec<Box<Page>>,
    /// Slots handed out so far (`[0, minted)`); equal to the peak number
    /// of resident packets, since a slot is minted only when none is free.
    minted: u32,
    /// Most recently vacated slot, or [`NIL`].
    free: u32,
    live: usize,
}

impl SoaArena {
    /// An empty arena; pages are allocated as residency first reaches them.
    pub(crate) fn new() -> Self {
        SoaArena { pages: Vec::new(), minted: 0, free: NIL, live: 0 }
    }

    /// Park `pkt`, returning its slot. Only the fields the token does not
    /// carry are stored (module docs); the token owns the rest from
    /// this point.
    pub(crate) fn insert(&mut self, pkt: &Packet) -> u32 {
        debug_assert_eq!(
            pkt.id >> PKT_ID_HOST_SHIFT,
            pkt.src.0 as u64,
            "packet ids carry their source host"
        );
        let slot = if self.free != NIL {
            let slot = self.free;
            let (p, i) = split(slot);
            debug_assert_eq!(self.pages[p].state[i] & OCCUPIED, 0, "free list held a live slot");
            self.free = self.pages[p].cold[i].msg.msg_id as u32;
            slot
        } else {
            let slot = self.minted;
            if slot & PAGE_MASK == 0 {
                self.pages.push(Page::new());
            }
            self.minted += 1;
            slot
        };
        let (p, i) = split(slot);
        let page = &mut self.pages[p];
        page.route[i] = pkt.route;
        page.state[i] = OCCUPIED | if pkt.corrupted { CORRUPTED } else { 0 };
        page.cold[i] = ColdSlot { flow: pkt.flow, dst: pkt.dst, msg: pkt.msg };
        #[cfg(debug_assertions)]
        {
            page.ids[i] = pkt.id;
        }
        self.live += 1;
        slot
    }

    /// Reassemble the packet `tok` stands for and vacate its slot.
    ///
    /// Id, class, length, deadline and hop come from the token (the
    /// deadline is therefore the TTD-re-encoded one of whichever node
    /// holds it);
    /// `eligible` is `None` (meaningless after injection) and
    /// `injected_at` is [`SimTime::ZERO`] (not kept).
    ///
    /// Panics if the slot is vacant: a double take means the simulation
    /// duplicated or mis-routed a packet, which must never be absorbed.
    pub(crate) fn take(&mut self, tok: &PktTok) -> Packet {
        let slot = tok.slot;
        let (p, i) = split(slot);
        assert!(
            slot < self.minted && self.pages[p].state[i] & OCCUPIED != 0,
            "packet taken twice from arena"
        );
        let page = &mut self.pages[p];
        let corrupted = page.state[i] & CORRUPTED != 0;
        page.state[i] = 0;
        #[cfg(debug_assertions)]
        debug_assert_eq!(page.ids[i], tok.id, "token does not own this slot");
        let c = page.cold[i];
        page.cold[i].msg.msg_id = self.free as u64;
        self.free = slot;
        self.live -= 1;
        Packet {
            id: tok.id,
            flow: c.flow,
            class: tok.class,
            src: HostId((tok.id >> PKT_ID_HOST_SHIFT) as u32),
            dst: c.dst,
            len: tok.len,
            deadline: tok.deadline,
            eligible: None,
            route: page.route[i],
            hop: tok.hop,
            injected_at: SimTime::ZERO,
            msg: c.msg,
            corrupted,
        }
    }

    /// The interned route of a resident packet (the per-hop read).
    #[inline]
    pub(crate) fn route(&self, slot: u32) -> PortPath {
        let (p, i) = split(slot);
        debug_assert!(self.pages[p].state[i] & OCCUPIED != 0, "route of vacant slot");
        self.pages[p].route[i]
    }

    /// Output port at hop `hop` of a resident packet's route.
    #[inline]
    pub(crate) fn out_port_at(&self, slot: u32, hop: u8) -> Port {
        self.route(slot)
            .port(hop as usize)
            // tidy: allow(no-unwrap) -- the runtime advances hop only when
            // a switch ships toward another switch, so it cannot pass the
            // route's end.
            .expect("packet hop index within route")
    }

    /// Flag a resident packet as damaged in flight (fault injection).
    #[inline]
    pub(crate) fn set_corrupted(&mut self, slot: u32) {
        let (p, i) = split(slot);
        debug_assert!(self.pages[p].state[i] & OCCUPIED != 0, "corrupting vacant slot");
        self.pages[p].state[i] |= CORRUPTED;
    }

    /// Packets currently resident.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Most packets ever simultaneously resident.
    pub(crate) fn high_water(&self) -> usize {
        self.minted as usize
    }

    /// Pages allocated.
    #[cfg(test)]
    fn pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqos_core::{FlowId, MsgTag, TrafficClass};
    use dqos_sim_core::SimRng;
    use dqos_topology::{Port, Route, RouteHop, SwitchId};

    const SRC: u32 = 3;

    fn pkt(n: u64) -> Packet {
        let route = Route::new(
            HostId(SRC),
            HostId(9),
            vec![
                RouteHop { switch: SwitchId(0), out_port: Port(8) },
                RouteHop { switch: SwitchId(2), out_port: Port(1) },
            ],
        )
        .port_path();
        Packet {
            id: (SRC as u64) << PKT_ID_HOST_SHIFT | n,
            flow: FlowId(7),
            class: TrafficClass::Multimedia,
            src: HostId(SRC),
            dst: HostId(9),
            len: 2048,
            deadline: SimTime::from_us(50),
            eligible: Some(SimTime::from_us(30)),
            route,
            hop: 0,
            injected_at: SimTime::from_ns(5),
            msg: MsgTag { msg_id: n, part: 1, parts: 4, created_at: SimTime::from_ns(2) },
            corrupted: false,
        }
    }

    /// Park packet `n`, returning the token the runtime would build.
    fn park(a: &mut SoaArena, n: u64) -> PktTok {
        let p = pkt(n);
        let slot = a.insert(&p);
        PktTok::of(&p, slot, Port(8))
    }

    #[test]
    fn roundtrip_takes_header_fields_from_the_token() {
        let mut a = SoaArena::new();
        let p = pkt(42);
        let mut tok = park(&mut a, 42);
        assert_eq!(a.live(), 1);
        assert_eq!(a.route(tok.slot), p.route);
        assert_eq!(a.out_port_at(tok.slot, 1), Port(1));
        // In flight the token's deadline is re-encoded and its hop advances.
        tok.deadline = SimTime::from_us(61);
        tok.hop = 1;
        let back = a.take(&tok);
        assert_eq!(back.id, p.id);
        assert_eq!(back.src, p.src, "source recovered from the id");
        assert_eq!((back.flow, back.dst, back.msg), (p.flow, p.dst, p.msg));
        assert_eq!((back.class, back.len, back.route), (p.class, p.len, p.route));
        assert_eq!(back.deadline, SimTime::from_us(61), "deadline is the token's");
        assert_eq!(back.hop, 1, "hop is the token's");
        assert_eq!(back.eligible, None, "eligible is token-owned after insert");
        assert_eq!(back.injected_at, SimTime::ZERO, "injection time is not kept");
        assert!(!back.corrupted);
        assert_eq!(a.live(), 0);
        assert_eq!(a.high_water(), 1);
    }

    #[test]
    fn slots_recycle_lifo_across_page_boundaries() {
        let mut a = SoaArena::new();
        let n = 2 * PAGE_SLOTS + 3;
        let toks: Vec<PktTok> = (0..n as u64).map(|k| park(&mut a, k)).collect();
        assert_eq!(a.high_water(), n);
        assert_eq!(a.pages(), 3);
        // Free a slot on each side of both page boundaries; they come
        // back last-freed first, and reuse mints nothing.
        let freed = [PAGE_SLOTS - 1, PAGE_SLOTS, 2 * PAGE_SLOTS - 1, 2 * PAGE_SLOTS];
        for &k in &freed {
            assert_eq!(a.take(&toks[k]).msg.msg_id, k as u64);
        }
        for &k in freed.iter().rev() {
            let t = park(&mut a, 1000 + k as u64);
            assert_eq!(t.slot, toks[k].slot, "LIFO slot reuse");
            assert_eq!(a.take(&t).msg.msg_id, 1000 + k as u64);
            let again = park(&mut a, 2000 + k as u64);
            assert_eq!(again.slot, toks[k].slot);
            assert_eq!(a.route(again.slot), pkt(0).route);
        }
        assert_eq!(a.high_water(), n, "reuse does not raise the peak");
        assert_eq!(a.pages(), 3);
        assert_eq!(a.live(), n);
    }

    #[test]
    fn pages_follow_high_water() {
        let mut rng = SimRng::new(0xA4E7A);
        let mut a = SoaArena::new();
        let mut resident: Vec<PktTok> = Vec::new();
        let mut peak = 0usize;
        for k in 0..40_000u64 {
            // Drift upward past three pages, then drain most of it.
            let grow = if k < 30_000 { 0.6 } else { 0.2 };
            if resident.is_empty() || rng.chance(grow) {
                resident.push(park(&mut a, k));
            } else {
                let t = resident.swap_remove(rng.index(resident.len()));
                assert_eq!(a.take(&t).id, t.id);
            }
            peak = peak.max(resident.len());
            assert_eq!(a.live(), resident.len());
            assert_eq!(a.high_water(), peak);
            assert!(a.pages() <= a.high_water().div_ceil(PAGE_SLOTS));
        }
        assert!(peak > 3 * PAGE_SLOTS, "the walk must cross pages (peak {peak})");
    }

    #[test]
    fn corruption_flag_survives_residency() {
        let mut a = SoaArena::new();
        let tok = park(&mut a, 7);
        a.set_corrupted(tok.slot);
        assert!(a.take(&tok).corrupted);
        let next = park(&mut a, 8);
        assert_eq!(next.slot, tok.slot);
        assert!(!a.take(&next).corrupted, "a reused slot starts clean");
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let mut a = SoaArena::new();
        let tok = park(&mut a, 0);
        a.take(&tok);
        a.take(&tok);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_on_a_later_page_panics() {
        let mut a = SoaArena::new();
        let toks: Vec<PktTok> = (0..PAGE_SLOTS as u64 + 2).map(|k| park(&mut a, k)).collect();
        let last = toks[PAGE_SLOTS + 1];
        a.take(&last);
        a.take(&last);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "token does not own this slot")]
    fn stale_token_on_a_reused_slot_panics_in_debug_builds() {
        let mut a = SoaArena::new();
        let stale = park(&mut a, 0);
        a.take(&stale);
        let next = park(&mut a, 1);
        assert_eq!(next.slot, stale.slot);
        a.take(&stale);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn take_of_a_never_minted_slot_panics() {
        let mut a = SoaArena::new();
        let mut tok = park(&mut a, 0);
        tok.slot = 5;
        a.take(&tok);
    }
}
