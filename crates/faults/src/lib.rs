//! # dqos-faults
//!
//! Deterministic fault injection for the network simulator.
//!
//! The paper evaluates its deadline-based QoS algorithms on a perfect
//! lossless fabric; this crate provides the machinery to ask what
//! survives a *degraded* one. A [`FaultPlan`] is a declarative, seeded
//! description of everything that goes wrong during a run:
//!
//! * **Timed events** — a link (or a whole switch, meaning all of its
//!   links) goes down at a given simulation time and optionally comes
//!   back up later.
//! * **Per-link impairments** — independent per-packet drop and
//!   corruption probabilities, and a per-credit loss probability on the
//!   reverse channel (lost credits are never resynthesised, so a high
//!   enough loss rate manufactures a genuine credit deadlock — the
//!   stall-watchdog test case).
//! * **Clock drift** — per-node rate skew in parts-per-million,
//!   generalising the constant-offset clock-domain ablation of §3.3.
//!
//! Plans are *compiled* against a concrete [`FoldedClos`] into a
//! [`CompiledFaults`] table: selectors resolve to directed [`LinkId`]s,
//! probabilities to integer thresholds, and all randomness comes from
//! dedicated SplitMix64 streams seeded from the plan — one stream **per
//! (link, impairment kind)**, so the roll sequence a link sees is a pure
//! function of the plan and of how many packets crossed *that* link, not
//! of how traffic on unrelated links interleaved with it (each link's
//! rolls happen at exactly one node). A fault run is bit-reproducible
//! for a fixed (config seed, plan) pair, and an empty plan draws nothing
//! and perturbs nothing.
//!
//! Mutable link up/down state lives in a separate [`LinkState`], mutated
//! only at the plan's timed instants, apart from the stochastic tables.
//! The timed schedule itself is driven through [`FaultInjector`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dqos_sim_core::{SimTime, SplitMix64};
use dqos_topology::{FoldedClos, HostId, LinkId, SwitchId};

/// A node reference for clock-drift specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    /// A host, by index.
    Host(u32),
    /// A switch, by index (leaves first, then spines).
    Switch(u32),
}

/// Selects one or more directed links of the topology.
///
/// Selectors are resolved at compile time against the concrete network;
/// the symbolic forms exist so plans can be written without knowing the
/// topology's link numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSelector {
    /// One directed link by id.
    Link(LinkId),
    /// Both directions of the cable between a leaf and a spine
    /// (identified by leaf index and spine index).
    LeafSpine {
        /// Leaf switch index.
        leaf: u16,
        /// Spine index (`0 ..` spines, *not* a switch id).
        spine: u16,
    },
    /// Both directions of a host's cable (injection + delivery link).
    HostLink(u32),
}

/// What a timed fault event does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The selected link(s) stop carrying packets.
    LinkDown(LinkSelector),
    /// The selected link(s) carry packets again.
    LinkUp(LinkSelector),
    /// Every link touching the switch goes down (whole-switch failure).
    SwitchDown(
        /// Switch index.
        u32,
    ),
    /// Every link touching the switch comes back.
    SwitchUp(
        /// Switch index.
        u32,
    ),
}

/// One timed fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedFault {
    /// Global simulation time at which the fault applies.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Stochastic impairment of one link (applied to every packet or credit
/// that crosses it, independently, for the whole run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkImpairment {
    /// Which link(s) the impairment applies to.
    pub selector: LinkSelector,
    /// Probability a packet crossing the link is silently dropped
    /// (the sender's consumed credit is resynthesised, as real hardware
    /// frees the never-filled buffer slot).
    pub drop_prob: f64,
    /// Probability a packet arrives with a bad CRC: it traverses the
    /// fabric but is discarded at the destination sink.
    pub corrupt_prob: f64,
    /// Probability a credit returning over the link's reverse channel is
    /// lost. Lost credits are **not** resynthesised: buffer accounting
    /// leaks, which can starve the sender into a credit deadlock.
    pub credit_loss_prob: f64,
}

/// Per-node clock rate skew: the node's local clock runs at
/// `1 + ppm/1e6` times the global rate (on top of any constant offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDriftSpec {
    /// The node whose clock drifts.
    pub node: NodeRef,
    /// Rate skew in parts per million (positive = fast clock).
    pub skew_ppm: i32,
}

/// A declarative, seeded fault scenario. An empty (default) plan injects
/// nothing and must leave simulation results bit-identical to a run
/// without any fault machinery.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the impairment rolls (independent of the traffic seed).
    pub seed: u64,
    /// Timed link/switch down/up events.
    pub timed: Vec<TimedFault>,
    /// Stochastic per-link impairments.
    pub impairments: Vec<LinkImpairment>,
    /// Per-node clock rate skews.
    pub drift: Vec<ClockDriftSpec>,
}

impl FaultPlan {
    /// An empty plan with the given impairment seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..Default::default() }
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.timed.is_empty() && self.impairments.is_empty() && self.drift.is_empty()
    }

    /// Add a timed fault.
    pub fn at(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.timed.push(TimedFault { at, kind });
        self
    }

    /// Kill spine `j` (all its links) at `at`.
    pub fn spine_down(self, at: SimTime, spine: u16, net: &FoldedClos) -> Self {
        self.at(at, FaultKind::SwitchDown(net.spine(spine).0))
    }

    /// Restore spine `j` at `at`.
    pub fn spine_up(self, at: SimTime, spine: u16, net: &FoldedClos) -> Self {
        self.at(at, FaultKind::SwitchUp(net.spine(spine).0))
    }

    /// Add a stochastic impairment.
    pub fn impair(mut self, imp: LinkImpairment) -> Self {
        self.impairments.push(imp);
        self
    }

    /// Add a clock rate skew.
    pub fn with_drift(mut self, node: NodeRef, skew_ppm: i32) -> Self {
        self.drift.push(ClockDriftSpec { node, skew_ppm });
        self
    }

    /// Resolve the plan against a concrete network.
    ///
    /// Impairments whose selectors overlap on a link (say a
    /// [`LinkSelector::Link`] and a [`LinkSelector::LeafSpine`] covering
    /// it) compose as independent loss processes — the link's effective
    /// probability is `1 - (1-p1)(1-p2)` — so a later impairment can
    /// only add risk, never silently erase an earlier one.
    pub fn compile(&self, net: &FoldedClos) -> CompiledFaults {
        let n = net.n_links() as usize;
        let mut c = CompiledFaults {
            enabled: true,
            timed: Vec::with_capacity(self.timed.len()),
            drop_thresh: vec![0; n],
            corrupt_thresh: vec![0; n],
            credit_thresh: vec![0; n],
            any_impairment: false,
            state: LinkState::new(n),
            host_skew: vec![0; net.n_hosts() as usize],
            sw_skew: vec![0; net.n_switches() as usize],
            drop_rng: (0..n).map(|l| stream(self.seed, 0, l)).collect(),
            corrupt_rng: (0..n).map(|l| stream(self.seed, 1, l)).collect(),
            credit_rng: (0..n).map(|l| stream(self.seed, 2, l)).collect(),
        };
        for tf in &self.timed {
            let (links, down) = match tf.kind {
                FaultKind::LinkDown(sel) => (resolve(sel, net), true),
                FaultKind::LinkUp(sel) => (resolve(sel, net), false),
                FaultKind::SwitchDown(sw) => (net.switch_links(SwitchId(sw)), true),
                FaultKind::SwitchUp(sw) => (net.switch_links(SwitchId(sw)), false),
            };
            c.timed.push(CompiledTimed { at: tf.at, links, down });
        }
        c.timed.sort_by_key(|t| t.at);
        let mut drop_p = vec![0.0f64; n];
        let mut corrupt_p = vec![0.0f64; n];
        let mut credit_p = vec![0.0f64; n];
        for imp in &self.impairments {
            for l in resolve(imp.selector, net) {
                let i = l.idx();
                drop_p[i] = union(drop_p[i], imp.drop_prob);
                corrupt_p[i] = union(corrupt_p[i], imp.corrupt_prob);
                credit_p[i] = union(credit_p[i], imp.credit_loss_prob);
            }
            c.any_impairment = true;
        }
        for i in 0..n {
            c.drop_thresh[i] = threshold(drop_p[i]);
            c.corrupt_thresh[i] = threshold(corrupt_p[i]);
            c.credit_thresh[i] = threshold(credit_p[i]);
        }
        for d in &self.drift {
            match d.node {
                NodeRef::Host(h) => c.host_skew[h as usize] = d.skew_ppm,
                NodeRef::Switch(s) => c.sw_skew[s as usize] = d.skew_ppm,
            }
        }
        c
    }
}

/// Independent-union of two probabilities, `1 - (1-a)(1-b)`. The
/// identity cases short-circuit so a lone impairment keeps its exact
/// threshold (bit-identical to composing with nothing).
fn union(a: f64, b: f64) -> f64 {
    let b = b.clamp(0.0, 1.0);
    if a <= 0.0 {
        b
    } else if b <= 0.0 {
        a
    } else {
        1.0 - (1.0 - a) * (1.0 - b)
    }
}

/// Resolve a selector to concrete directed links.
fn resolve(sel: LinkSelector, net: &FoldedClos) -> Vec<LinkId> {
    match sel {
        LinkSelector::Link(l) => vec![l],
        LinkSelector::LeafSpine { leaf, spine } => {
            net.leaf_spine_links(leaf, spine).to_vec()
        }
        LinkSelector::HostLink(h) => {
            vec![net.host_out_link(HostId(h)).link, net.host_delivery_link(HostId(h))]
        }
    }
}

/// The private random stream for impairment `kind` on link `link_idx`.
/// One stream per (link, kind) pair: each is consumed by exactly one
/// node (the one that ships packets onto, or returns credits over, that
/// link), so the sequence of rolls is interleaving-independent.
fn stream(seed: u64, kind: u64, link_idx: usize) -> SplitMix64 {
    let mut mix =
        SplitMix64::new(seed ^ 0xFA17_0BAD_5EED_0001 ^ (kind << 56) ^ (link_idx as u64));
    SplitMix64::new(mix.next_u64())
}

/// Probability → 64-bit comparison threshold. `p >= 1` maps to the
/// sentinel `u64::MAX` ("always, no draw needed"), `p <= 0` to 0
/// ("never, no draw needed").
fn threshold(p: f64) -> u64 {
    if p >= 1.0 {
        u64::MAX
    } else if p <= 0.0 {
        0
    } else {
        (p * 18_446_744_073_709_551_616.0) as u64
    }
}

/// One resolved timed fault: the links to flip and their new state.
#[derive(Debug, Clone)]
pub struct CompiledTimed {
    /// When it applies (global time).
    pub at: SimTime,
    /// The directed links affected.
    pub links: Vec<LinkId>,
    /// `true` = links go down, `false` = links come back up.
    pub down: bool,
}

/// Mutable link up/down state, separated from the stochastic tables of
/// [`CompiledFaults`] (mutated only at the plan's timed instants).
#[derive(Debug, Clone, Default)]
pub struct LinkState {
    /// Per-link count of active down-causes: a link can be covered by
    /// several overlapping down intervals (a `SwitchDown` plus a
    /// `LinkDown`, say) and only comes back up when the last one lifts.
    down_causes: Vec<u32>,
}

impl LinkState {
    /// All-links-up state for a topology with `n_links` directed links.
    pub fn new(n_links: usize) -> Self {
        LinkState { down_causes: vec![0; n_links] }
    }

    /// Whether `link` is currently failed.
    #[inline]
    pub fn is_down(&self, link: LinkId) -> bool {
        self.down_causes[link.idx()] > 0
    }

    /// Apply one resolved timed fault, returning the links whose state
    /// actually *changed* and the new state (`true` = now down).
    ///
    /// Down-causes are refcounted per link, so with overlapping down
    /// intervals the first Up event does not resurrect a link another
    /// interval still holds down — it is omitted from the returned list
    /// (which is what drives flow re-routing and the admission
    /// controller's link state), and `is_down` keeps reporting it failed
    /// until the last cause lifts. An Up with no matching Down is
    /// ignored rather than underflowing.
    pub fn apply_timed(&mut self, t: &CompiledTimed) -> (Vec<LinkId>, bool) {
        let down = t.down;
        let mut changed = Vec::with_capacity(t.links.len());
        for &l in &t.links {
            let causes = &mut self.down_causes[l.idx()];
            if down {
                *causes += 1;
                if *causes == 1 {
                    changed.push(l);
                }
            } else if *causes > 0 {
                *causes -= 1;
                if *causes == 0 {
                    changed.push(l);
                }
            }
        }
        (changed, down)
    }
}

/// The timed-fault schedule with its live link state. The runtime drives
/// one injector per simulation (at the executor's epochs) through
/// [`FaultInjector::apply`] and fans the changed links out to routing,
/// admission, and the per-link down flags.
#[derive(Debug)]
pub struct FaultInjector {
    timed: Vec<CompiledTimed>,
    state: LinkState,
}

impl FaultInjector {
    /// Current link up/down state.
    pub fn state(&self) -> &LinkState {
        &self.state
    }

    /// The schedule being driven (sorted by time).
    pub fn timed(&self) -> &[CompiledTimed] {
        &self.timed
    }

    /// Apply the `idx`-th entry of the schedule: the links whose state
    /// changed, plus their new state (`true` = down).
    pub fn apply(&mut self, idx: usize) -> (Vec<LinkId>, bool) {
        let t = self.timed[idx].clone();
        self.state.apply_timed(&t)
    }
}

/// A [`FaultPlan`] resolved against a concrete topology, ready for the
/// event loop: O(1) per-link state/threshold lookups, a private RNG
/// stream per (link, impairment kind) for the rolls.
#[derive(Debug, Clone)]
pub struct CompiledFaults {
    enabled: bool,
    timed: Vec<CompiledTimed>,
    drop_thresh: Vec<u64>,
    corrupt_thresh: Vec<u64>,
    credit_thresh: Vec<u64>,
    any_impairment: bool,
    state: LinkState,
    host_skew: Vec<i32>,
    sw_skew: Vec<i32>,
    drop_rng: Vec<SplitMix64>,
    corrupt_rng: Vec<SplitMix64>,
    credit_rng: Vec<SplitMix64>,
}

impl CompiledFaults {
    /// The no-faults table used by plain (fault-free) simulations: every
    /// query short-circuits and no state is allocated.
    pub fn disabled() -> Self {
        CompiledFaults {
            enabled: false,
            timed: Vec::new(),
            drop_thresh: Vec::new(),
            corrupt_thresh: Vec::new(),
            credit_thresh: Vec::new(),
            any_impairment: false,
            state: LinkState::default(),
            host_skew: Vec::new(),
            sw_skew: Vec::new(),
            drop_rng: Vec::new(),
            corrupt_rng: Vec::new(),
            credit_rng: Vec::new(),
        }
    }

    /// Whether any fault machinery is active for this run.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The timed fault schedule (sorted by time).
    pub fn timed(&self) -> &[CompiledTimed] {
        &self.timed
    }

    /// Apply timed fault `idx` to the *internal* link state, returning
    /// the links whose state actually changed and the new state (`true`
    /// = now down). See [`LinkState::apply_timed`]. Simulations that
    /// keep link state elsewhere drive a [`FaultInjector`] instead of
    /// calling this.
    pub fn apply_timed(&mut self, idx: usize) -> (Vec<LinkId>, bool) {
        let t = self.timed[idx].clone();
        self.state.apply_timed(&t)
    }

    /// Whether `link` is currently failed (per the internal state).
    #[inline]
    pub fn is_link_down(&self, link: LinkId) -> bool {
        self.enabled && self.state.is_down(link)
    }

    /// A fresh all-links-up state sized for this topology.
    pub fn link_state(&self) -> LinkState {
        LinkState::new(self.drop_thresh.len())
    }

    /// The timed schedule as a drivable [`FaultInjector`] node.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            timed: self.timed.clone(),
            state: LinkState::new(self.drop_thresh.len()),
        }
    }

    #[inline]
    fn roll(rng: &mut SplitMix64, thresh: u64) -> bool {
        if thresh == 0 {
            false
        } else if thresh == u64::MAX {
            true
        } else {
            rng.next_u64() < thresh
        }
    }

    /// Roll the per-packet drop impairment for `link`.
    #[inline]
    pub fn roll_drop(&mut self, link: LinkId) -> bool {
        self.any_impairment && {
            let i = link.idx();
            Self::roll(&mut self.drop_rng[i], self.drop_thresh[i])
        }
    }

    /// Roll the per-packet corruption impairment for `link`.
    #[inline]
    pub fn roll_corrupt(&mut self, link: LinkId) -> bool {
        self.any_impairment && {
            let i = link.idx();
            Self::roll(&mut self.corrupt_rng[i], self.corrupt_thresh[i])
        }
    }

    /// Roll the per-credit loss impairment for the reverse channel of
    /// data link `link`.
    #[inline]
    pub fn roll_credit_loss(&mut self, link: LinkId) -> bool {
        self.any_impairment && {
            let i = link.idx();
            Self::roll(&mut self.credit_rng[i], self.credit_thresh[i])
        }
    }

    /// Clock rate skew for a host, ppm.
    pub fn host_skew_ppm(&self, host: u32) -> i32 {
        if self.enabled { self.host_skew[host as usize] } else { 0 }
    }

    /// Clock rate skew for a switch, ppm.
    pub fn switch_skew_ppm(&self, sw: u32) -> i32 {
        if self.enabled { self.sw_skew[sw as usize] } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqos_topology::ClosParams;

    fn net() -> FoldedClos {
        FoldedClos::build(ClosParams::scaled(16))
    }

    #[test]
    fn empty_plan_compiles_inert() {
        let net = net();
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        let c = plan.compile(&net);
        assert!(c.enabled());
        assert!(c.timed().is_empty());
        let mut c2 = c.clone();
        for l in 0..net.n_links() {
            assert!(!c2.is_link_down(LinkId(l)));
            assert!(!c2.roll_drop(LinkId(l)));
            assert!(!c2.roll_corrupt(LinkId(l)));
        }
        // No randomness was consumed by any of those queries.
        assert_eq!(format!("{:?}", c.drop_rng), format!("{:?}", c2.drop_rng));
        assert_eq!(format!("{:?}", c.corrupt_rng), format!("{:?}", c2.corrupt_rng));
    }

    #[test]
    fn disabled_table_answers_everything_without_state() {
        let mut d = CompiledFaults::disabled();
        assert!(!d.enabled());
        assert!(!d.is_link_down(LinkId(0)));
        assert!(!d.roll_drop(LinkId(123)));
        assert_eq!(d.host_skew_ppm(5), 0);
    }

    #[test]
    fn switch_down_resolves_all_its_links() {
        let net = net();
        let spine0 = net.spine(0);
        let plan = FaultPlan::new(1).at(SimTime::from_ms(1), FaultKind::SwitchDown(spine0.0));
        let mut c = plan.compile(&net);
        assert_eq!(c.timed().len(), 1);
        // A spine in a 2-leaf network touches 2 leaves × 2 directions.
        assert_eq!(c.timed()[0].links.len(), 4);
        let (links, down) = c.apply_timed(0);
        assert!(down);
        for l in links {
            assert!(c.is_link_down(l));
        }
        // The leaf-spine selector agrees with the switch-wide one.
        let pair = net.leaf_spine_links(0, 0);
        assert!(c.is_link_down(pair[0]) && c.is_link_down(pair[1]));
        // Links of other spines are untouched.
        let other = net.leaf_spine_links(0, 1);
        assert!(!c.is_link_down(other[0]));
    }

    #[test]
    fn down_then_up_restores() {
        let net = net();
        let sel = LinkSelector::HostLink(3);
        let plan = FaultPlan::new(2)
            .at(SimTime::from_ms(1), FaultKind::LinkDown(sel))
            .at(SimTime::from_ms(2), FaultKind::LinkUp(sel));
        let mut c = plan.compile(&net);
        let up_link = net.host_out_link(HostId(3)).link;
        c.apply_timed(0);
        assert!(c.is_link_down(up_link));
        c.apply_timed(1);
        assert!(!c.is_link_down(up_link));
    }

    #[test]
    fn overlapping_down_intervals_are_refcounted() {
        let net = net();
        let spine0 = net.spine(0);
        let cable = LinkSelector::LeafSpine { leaf: 0, spine: 0 };
        // The switch-wide failure and the leaf-0 cable failure overlap
        // on two links; the first Up must not resurrect them.
        let plan = FaultPlan::new(4)
            .at(SimTime::from_ms(1), FaultKind::SwitchDown(spine0.0))
            .at(SimTime::from_ms(2), FaultKind::LinkDown(cable))
            .at(SimTime::from_ms(3), FaultKind::SwitchUp(spine0.0))
            .at(SimTime::from_ms(4), FaultKind::LinkUp(cable));
        let mut c = plan.compile(&net);
        let pair = net.leaf_spine_links(0, 0);
        let (ch, down) = c.apply_timed(0);
        assert!(down);
        assert_eq!(ch.len(), 4, "fresh failure changes every spine link");
        let (ch, _) = c.apply_timed(1);
        assert!(ch.is_empty(), "already-down links do not change state");
        let (ch, down) = c.apply_timed(2);
        assert!(!down);
        assert_eq!(ch.len(), 2, "only the other leaf's links come back");
        assert!(!ch.contains(&pair[0]) && !ch.contains(&pair[1]));
        assert!(c.is_link_down(pair[0]) && c.is_link_down(pair[1]), "cable fault still holds");
        let (ch, _) = c.apply_timed(3);
        assert_eq!(ch.len(), 2);
        assert!(!c.is_link_down(pair[0]) && !c.is_link_down(pair[1]));
    }

    #[test]
    fn stray_up_event_is_ignored() {
        let net = net();
        let sel = LinkSelector::HostLink(1);
        let plan = FaultPlan::new(6).at(SimTime::from_ms(1), FaultKind::LinkUp(sel));
        let mut c = plan.compile(&net);
        let (ch, down) = c.apply_timed(0);
        assert!(!down);
        assert!(ch.is_empty(), "an Up with no matching Down changes nothing");
        assert!(!c.is_link_down(net.host_out_link(HostId(1)).link));
    }

    #[test]
    fn overlapping_impairments_compose_instead_of_overwriting() {
        let net = net();
        let link = net.host_out_link(HostId(0)).link;
        let plan = FaultPlan::new(9)
            .impair(LinkImpairment {
                selector: LinkSelector::Link(link),
                drop_prob: 0.5,
                corrupt_prob: 0.3,
                credit_loss_prob: 0.0,
            })
            // HostLink(0) covers `link` too: drop composes, and its zero
            // corrupt/credit probabilities must not erase the first
            // impairment's.
            .impair(LinkImpairment {
                selector: LinkSelector::HostLink(0),
                drop_prob: 0.5,
                corrupt_prob: 0.0,
                credit_loss_prob: 0.0,
            });
        let c = plan.compile(&net);
        assert_eq!(c.drop_thresh[link.idx()], threshold(0.75), "1-(1-0.5)(1-0.5)");
        assert_eq!(c.corrupt_thresh[link.idx()], threshold(0.3), "0.0 erased 0.3");
        // The delivery link only appears in the second impairment.
        let delivery = net.host_delivery_link(HostId(0));
        assert_eq!(c.drop_thresh[delivery.idx()], threshold(0.5));
        assert_eq!(c.corrupt_thresh[delivery.idx()], 0);
    }

    #[test]
    fn timed_schedule_is_sorted() {
        let net = net();
        let sel = LinkSelector::HostLink(0);
        let plan = FaultPlan::new(3)
            .at(SimTime::from_ms(5), FaultKind::LinkUp(sel))
            .at(SimTime::from_ms(1), FaultKind::LinkDown(sel));
        let c = plan.compile(&net);
        assert!(c.timed()[0].at < c.timed()[1].at);
        assert!(c.timed()[0].down);
    }

    #[test]
    fn probability_thresholds() {
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(-1.0), 0);
        assert_eq!(threshold(1.0), u64::MAX);
        assert_eq!(threshold(2.0), u64::MAX);
        let half = threshold(0.5);
        assert!(half > u64::MAX / 2 - 2 && half < u64::MAX / 2 + 2);
    }

    #[test]
    fn certain_probabilities_do_not_draw() {
        let net = net();
        let link = net.host_out_link(HostId(0)).link;
        let plan = FaultPlan::new(7).impair(LinkImpairment {
            selector: LinkSelector::Link(link),
            drop_prob: 1.0,
            corrupt_prob: 0.0,
            credit_loss_prob: 0.0,
        });
        let mut c = plan.compile(&net);
        let before =
            (format!("{:?}", c.drop_rng[link.idx()]), format!("{:?}", c.corrupt_rng[link.idx()]));
        assert!(c.roll_drop(link));
        assert!(!c.roll_corrupt(link));
        let after =
            (format!("{:?}", c.drop_rng[link.idx()]), format!("{:?}", c.corrupt_rng[link.idx()]));
        assert_eq!(before, after, "p=1 and p=0 draw nothing");
    }

    #[test]
    fn rolls_are_seed_deterministic() {
        let net = net();
        let link = net.host_out_link(HostId(1)).link;
        let mk = |seed| {
            FaultPlan::new(seed).impair(LinkImpairment {
                selector: LinkSelector::Link(link),
                drop_prob: 0.3,
                corrupt_prob: 0.0,
                credit_loss_prob: 0.0,
            })
        };
        let mut a = mk(42).compile(&net);
        let mut b = mk(42).compile(&net);
        let sa: Vec<bool> = (0..256).map(|_| a.roll_drop(link)).collect();
        let sb: Vec<bool> = (0..256).map(|_| b.roll_drop(link)).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&x| x) && sa.iter().any(|&x| !x));
        let mut c = mk(43).compile(&net);
        let sc: Vec<bool> = (0..256).map(|_| c.roll_drop(link)).collect();
        assert_ne!(sa, sc, "different seeds give different streams");
    }

    #[test]
    fn rolls_are_interleaving_independent_across_links() {
        // The per-(link, kind) streams mean the outcome sequence a link
        // sees is independent of traffic on any other link.
        let net = net();
        let la = net.host_out_link(HostId(0)).link;
        let lb = net.host_out_link(HostId(1)).link;
        let plan = |seed| {
            let imp = |l| LinkImpairment {
                selector: LinkSelector::Link(l),
                drop_prob: 0.4,
                corrupt_prob: 0.2,
                credit_loss_prob: 0.0,
            };
            FaultPlan::new(seed).impair(imp(la)).impair(imp(lb))
        };
        // Sequential: all of link A's rolls, then all of link B's.
        let mut seq = plan(11).compile(&net);
        let sa: Vec<bool> = (0..64).map(|_| seq.roll_drop(la)).collect();
        let sb: Vec<bool> = (0..64).map(|_| seq.roll_drop(lb)).collect();
        // Interleaved, with corrupt rolls mixed in for good measure.
        let mut il = plan(11).compile(&net);
        let mut ia = Vec::new();
        let mut ib = Vec::new();
        for _ in 0..64 {
            ib.push(il.roll_drop(lb));
            il.roll_corrupt(la);
            ia.push(il.roll_drop(la));
            il.roll_corrupt(lb);
        }
        assert_eq!(sa, ia);
        assert_eq!(sb, ib);
    }

    #[test]
    fn injector_matches_internal_apply_timed() {
        let net = net();
        let sel = LinkSelector::HostLink(2);
        let plan = FaultPlan::new(5)
            .at(SimTime::from_ms(1), FaultKind::LinkDown(sel))
            .at(SimTime::from_ms(2), FaultKind::LinkUp(sel));
        let mut c = plan.compile(&net);
        let mut inj = c.injector();
        for idx in 0..c.timed().len() {
            let (a, da) = c.apply_timed(idx);
            let (b, db) = inj.apply(idx);
            assert_eq!((a, da), (b, db));
        }
        assert!(!inj.state().is_down(net.host_out_link(HostId(2)).link));
    }

    #[test]
    fn drift_specs_land_on_nodes() {
        let net = net();
        let plan = FaultPlan::new(0)
            .with_drift(NodeRef::Host(2), 150)
            .with_drift(NodeRef::Switch(1), -80);
        let c = plan.compile(&net);
        assert_eq!(c.host_skew_ppm(2), 150);
        assert_eq!(c.host_skew_ppm(3), 0);
        assert_eq!(c.switch_skew_ppm(1), -80);
        assert_eq!(c.switch_skew_ppm(0), 0);
    }
}
