//! Centralised admission control and fixed-path assignment.
//!
//! Per §3, bandwidth reservation happens at a centralised point (as in
//! InfiniBand's subnet manager or PCI AS fabric management) and **no
//! record is kept in the switches** — which is what makes fixed routing
//! mandatory: packets must use the route whose links they reserved.
//!
//! For unregulated traffic there is no reservation, but the admission
//! controller still assigns fixed, load-balanced paths (fixed routing
//! also avoids the out-of-order delivery adaptive routing would cause,
//! and balancing at path-assignment time substitutes for adaptivity).

use dqos_sim_core::Bandwidth;
use dqos_topology::{FoldedClos, HostId, LinkId, Route};
use std::fmt;

/// Why an admission request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// Every candidate path would oversubscribe at least one link.
    NoCapacity {
        /// The bandwidth that was requested.
        requested_bytes_per_sec: u64,
    },
    /// Every candidate path crosses at least one failed link.
    NoUsablePath,
    /// A release would take a link's reservation below zero — the route
    /// was never admitted at this bandwidth, or was released twice. The
    /// ledger is left untouched.
    ReleaseUnderflow {
        /// The first offending link.
        link: LinkId,
        /// Bytes/sec currently reserved on it.
        reserved_bytes_per_sec: u64,
        /// Bytes/sec the release asked to return.
        requested_bytes_per_sec: u64,
    },
    /// An [`AdmissionState`] restore was sized for a different topology;
    /// the controller is left untouched.
    StateShapeMismatch {
        /// Links the controller tracks.
        expected_links: u32,
        /// Links the snapshot was taken over.
        got_links: u32,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::NoCapacity { requested_bytes_per_sec } => {
                write!(f, "no path can fit {requested_bytes_per_sec} B/s")
            }
            AdmissionError::NoUsablePath => {
                write!(f, "every candidate path crosses a failed link")
            }
            AdmissionError::ReleaseUnderflow {
                link,
                reserved_bytes_per_sec,
                requested_bytes_per_sec,
            } => write!(
                f,
                "release of {requested_bytes_per_sec} B/s exceeds the {reserved_bytes_per_sec} B/s reserved on {link:?}"
            ),
            AdmissionError::StateShapeMismatch { expected_links, got_links } => write!(
                f,
                "admission snapshot covers {got_links} links but the controller tracks {expected_links}"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// The full mutable state of an [`AdmissionController`], exported for
/// durability (the `dqosd` daemon journals admission mutations and
/// snapshots this struct) and for bit-exact state comparison in the
/// crash-recovery chaos harness.
///
/// Everything that influences a future admission decision is here: the
/// per-link ledger, link health, and the round-robin pointers used for
/// unregulated path assignment. Two controllers with equal states answer
/// every future request identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionState {
    /// Reservable capacity per link, bytes/sec.
    pub capacity: u64,
    /// Reserved bytes/sec per directed link.
    pub reserved: Vec<u64>,
    /// Link health per directed link.
    pub link_up: Vec<bool>,
    /// Round-robin spine pointer per source leaf.
    pub rr_spine: Vec<u16>,
}

impl AdmissionState {
    /// An order-sensitive FNV-1a digest of the state: equal digests for
    /// equal states, cheap enough to query after every mutation.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.capacity);
        eat(self.reserved.len() as u64);
        for &r in &self.reserved {
            eat(r);
        }
        eat(self.link_up.len() as u64);
        for &up in &self.link_up {
            eat(up as u64);
        }
        eat(self.rr_spine.len() as u64);
        for &rr in &self.rr_spine {
            eat(rr as u64);
        }
        h
    }
}

/// A successfully admitted flow: the chosen route and spine index.
#[derive(Debug, Clone)]
pub struct AdmittedFlow {
    /// The assigned fixed route.
    pub route: Route,
    /// The path choice index that produced it (spine index, or 0 for
    /// intra-leaf pairs).
    pub choice: u16,
}

/// The central bandwidth ledger.
///
/// ```
/// use dqos_core::AdmissionController;
/// use dqos_sim_core::Bandwidth;
/// use dqos_topology::{ClosParams, FoldedClos, HostId};
///
/// let net = FoldedClos::build(ClosParams::paper());
/// let mut ac = AdmissionController::new(&net, Bandwidth::gbps(8), 1.0);
/// let flow = ac.admit(&net, HostId(0), HostId(127), Bandwidth::gbps(2)).unwrap();
/// assert_eq!(flow.route.len(), 3); // leaf -> spine -> leaf
/// // The ledger now carries the reservation on every link of the route.
/// assert!(ac.max_utilization() > 0.0);
/// ac.release(&net, &flow.route, Bandwidth::gbps(2)).unwrap();
/// assert_eq!(ac.max_utilization(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct AdmissionController {
    /// Usable capacity of every link, bytes/sec.
    capacity: u64,
    /// Reserved bytes/sec per directed link.
    reserved: Vec<u64>,
    /// Link health per directed link; failed links are excluded from
    /// every candidate path until restored (fault injection).
    link_up: Vec<bool>,
    /// Unregulated path counter per (src leaf): round-robin spine
    /// assignment for best-effort flows.
    rr_spine: Vec<u16>,
}

impl AdmissionController {
    /// Create a controller for `net`, allowing reservations up to
    /// `max_util` of `link_capacity` on every link (the paper regulates
    /// traffic so links are never oversubscribed; `max_util = 1.0`).
    pub fn new(net: &FoldedClos, link_capacity: Bandwidth, max_util: f64) -> Self {
        assert!((0.0..=1.0).contains(&max_util), "max_util must be in [0,1]");
        AdmissionController {
            capacity: (link_capacity.as_bytes_per_sec() as f64 * max_util) as u64,
            reserved: vec![0; net.n_links() as usize],
            link_up: vec![true; net.n_links() as usize],
            rr_spine: vec![0; net.params().leaves as usize],
        }
    }

    /// Reserved bandwidth on `link`, bytes/sec.
    pub fn reserved(&self, link: LinkId) -> u64 {
        self.reserved[link.idx()]
    }

    /// Whether `link` is currently healthy.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.link_up[link.idx()]
    }

    /// Mark `link` failed: it is excluded from every candidate path until
    /// [`AdmissionController::restore_link`]. Reservations already
    /// charged to it are untouched — revoking the flows that hold them is
    /// the caller's job (the flow table knows which flows those are).
    pub fn fail_link(&mut self, link: LinkId) {
        self.link_up[link.idx()] = false;
    }

    /// Mark `link` healthy again.
    pub fn restore_link(&mut self, link: LinkId) {
        self.link_up[link.idx()] = true;
    }

    /// Utilisation of `link` as a fraction of reservable capacity.
    pub fn utilization(&self, link: LinkId) -> f64 {
        self.reserved[link.idx()] as f64 / self.capacity as f64
    }

    /// Try to admit a regulated flow of `bw` from `src` to `dst`,
    /// returning the reserved route (see
    /// [`AdmissionController::admit_choice`] for how it is chosen).
    pub fn admit(
        &mut self,
        net: &FoldedClos,
        src: HostId,
        dst: HostId,
        bw: Bandwidth,
    ) -> Result<AdmittedFlow, AdmissionError> {
        let choice = self.admit_choice(net, src, dst, bw)?;
        Ok(AdmittedFlow { route: net.route(src, dst, choice), choice })
    }

    /// Try to admit a regulated flow of `bw` from `src` to `dst`,
    /// returning the path choice whose links now carry the reservation.
    ///
    /// All candidate fixed paths are examined; the one whose *worst* link
    /// would be least utilised after the reservation wins. The worst link
    /// is often an endpoint link shared by **all** candidates (the
    /// source's injection link or the destination's delivery link), so
    /// ties break on the candidate's *total* route load — which differs
    /// exactly by the spine transit links — and then on the lowest spine
    /// index, keeping the choice deterministic. Fails if every candidate
    /// would oversubscribe some link.
    ///
    /// Scoring reads the two end links once and, per candidate spine,
    /// only its uplink and downlink from the topology's flat link tables:
    /// no route, link list or other allocation is made for any
    /// candidate, winner included.
    pub fn admit_choice(
        &mut self,
        net: &FoldedClos,
        src: HostId,
        dst: HostId,
        bw: Bandwidth,
    ) -> Result<u16, AdmissionError> {
        assert_ne!(src, dst, "no route from a host to itself");
        let request = bw.as_bytes_per_sec();
        let (reserved, up) = (&self.reserved, &self.link_up);
        let inject = net.host_out_link(src).link.idx();
        let deliver = net.host_delivery_link(dst).idx();
        if !up[inject] || !up[deliver] {
            return Err(AdmissionError::NoUsablePath);
        }
        let end_worst = (reserved[inject] + request).max(reserved[deliver] + request);
        let end_total = reserved[inject] + reserved[deliver];
        let (src_leaf, dst_leaf) = (net.leaf_of(src), net.leaf_of(dst));
        let spine_links = |choice| {
            (net.spine_uplink(src_leaf, choice).idx(), net.spine_downlink(choice, dst_leaf).idx())
        };
        // `best` is only meaningful once `best_choice` names a candidate.
        const NONE: u16 = u16::MAX;
        let mut best_choice = NONE;
        let mut best = (0, 0);
        let mut any_usable = false;
        if src_leaf == dst_leaf {
            any_usable = true;
            if end_worst <= self.capacity {
                best_choice = 0;
            }
        } else {
            for choice in 0..net.params().spines {
                let (l_up, l_down) = spine_links(choice);
                let usable = up[l_up] & up[l_down];
                any_usable |= usable;
                let (r_up, r_down) = (reserved[l_up], reserved[l_down]);
                let worst_after = end_worst.max(r_up + request).max(r_down + request);
                let key = (worst_after, end_total + r_up + r_down);
                // Non-short-circuit `&`/`|`: one data-dependent branch per
                // candidate instead of four.
                let better = (best_choice == NONE) | (key < best);
                if usable & (worst_after <= self.capacity) & better {
                    best = key;
                    best_choice = choice;
                }
            }
        }
        if best_choice == NONE {
            return Err(if any_usable {
                AdmissionError::NoCapacity { requested_bytes_per_sec: request }
            } else {
                AdmissionError::NoUsablePath
            });
        }
        self.reserved[inject] += request;
        self.reserved[deliver] += request;
        if src_leaf != dst_leaf {
            let (l_up, l_down) = spine_links(best_choice);
            self.reserved[l_up] += request;
            self.reserved[l_down] += request;
        }
        Ok(best_choice)
    }

    /// Release a previously admitted reservation.
    ///
    /// The whole route is validated before any link is touched: releasing
    /// a route that was never admitted at this bandwidth (or releasing
    /// the same admission twice) returns
    /// [`AdmissionError::ReleaseUnderflow`] and leaves the ledger exactly
    /// as it was.
    pub fn release(
        &mut self,
        net: &FoldedClos,
        route: &Route,
        bw: Bandwidth,
    ) -> Result<(), AdmissionError> {
        self.release_links(&net.links_on_route(route), bw)
    }

    /// [`AdmissionController::release`] for the route identified by its
    /// path choice, as returned by [`AdmissionController::admit_choice`].
    pub fn release_choice(
        &mut self,
        net: &FoldedClos,
        src: HostId,
        dst: HostId,
        choice: u16,
        bw: Bandwidth,
    ) -> Result<(), AdmissionError> {
        self.release_links(&net.links_for_choice(src, dst, choice), bw)
    }

    fn release_links(&mut self, links: &[LinkId], bw: Bandwidth) -> Result<(), AdmissionError> {
        let request = bw.as_bytes_per_sec();
        for l in links {
            let r = self.reserved[l.idx()];
            if r < request {
                return Err(AdmissionError::ReleaseUnderflow {
                    link: *l,
                    reserved_bytes_per_sec: r,
                    requested_bytes_per_sec: request,
                });
            }
        }
        for l in links {
            self.reserved[l.idx()] -= request;
        }
        Ok(())
    }

    /// Whether every link of path `choice` from `src` to `dst` is healthy.
    pub fn path_is_up(&self, net: &FoldedClos, src: HostId, dst: HostId, choice: u16) -> bool {
        net.links_for_choice(src, dst, choice).iter().all(|l| self.link_up[l.idx()])
    }

    /// Assign a fixed path to an unregulated flow (no reservation) and
    /// return its path choice.
    ///
    /// Inter-leaf flows round-robin over spines per source leaf, which is
    /// the "admission control can ensure load balancing when assigning
    /// paths" behaviour of §3. Candidates crossing a failed link are
    /// skipped (the pointer starts at the round-robin position, so with
    /// every link healthy the choice sequence is exactly the original);
    /// if *every* candidate is degraded the round-robin choice is
    /// returned anyway — its packets will be dropped (and counted) at the
    /// failed link rather than silently rerouted.
    pub fn assign_unregulated_choice(&mut self, net: &FoldedClos, src: HostId, dst: HostId) -> u16 {
        let choices = net.route_choices(src, dst);
        if choices == 1 {
            return 0;
        }
        let leaf = net.leaf_of(src).idx();
        let start = self.rr_spine[leaf] % choices;
        for k in 0..choices {
            let choice = (start + k) % choices;
            if self.path_is_up(net, src, dst, choice) {
                self.rr_spine[leaf] = (choice + 1) % choices;
                return choice;
            }
        }
        self.rr_spine[leaf] = (start + 1) % choices;
        start
    }

    /// Export the controller's full mutable state (ledger, link health,
    /// round-robin pointers) for snapshotting or comparison.
    pub fn export_state(&self) -> AdmissionState {
        AdmissionState {
            capacity: self.capacity,
            reserved: self.reserved.clone(),
            link_up: self.link_up.clone(),
            rr_spine: self.rr_spine.clone(),
        }
    }

    /// Replace the controller's mutable state with a previously exported
    /// snapshot. The shape (link and leaf counts) must match the topology
    /// this controller was built for; a mismatched snapshot returns
    /// [`AdmissionError::StateShapeMismatch`] and changes nothing.
    pub fn restore_state(&mut self, s: &AdmissionState) -> Result<(), AdmissionError> {
        if s.reserved.len() != self.reserved.len()
            || s.link_up.len() != self.link_up.len()
            || s.rr_spine.len() != self.rr_spine.len()
        {
            return Err(AdmissionError::StateShapeMismatch {
                expected_links: self.reserved.len() as u32,
                got_links: s.reserved.len() as u32,
            });
        }
        self.capacity = s.capacity;
        self.reserved.copy_from_slice(&s.reserved);
        self.link_up.copy_from_slice(&s.link_up);
        self.rr_spine.copy_from_slice(&s.rr_spine);
        Ok(())
    }

    /// Digest of the current state (see [`AdmissionState::digest`]).
    pub fn state_digest(&self) -> u64 {
        self.export_state().digest()
    }

    /// Total bytes/sec currently reserved, summed over all links
    /// (diagnostics; one flow counts once per link it crosses).
    pub fn total_reserved(&self) -> u64 {
        self.reserved.iter().sum()
    }

    /// The maximum utilisation over all links (diagnostics / tests).
    pub fn max_utilization(&self) -> f64 {
        self.reserved
            .iter()
            .map(|&r| r as f64 / self.capacity as f64)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqos_topology::ClosParams;

    const LINK: Bandwidth = Bandwidth::gbps(8);

    fn net() -> FoldedClos {
        FoldedClos::build(ClosParams::paper())
    }

    #[test]
    fn admits_until_capacity_then_rejects() {
        let net = net();
        let mut ac = AdmissionController::new(&net, LINK, 1.0);
        // The shared bottleneck is the destination's delivery link: all
        // flows target host 127 from distinct sources on other leaves.
        let bw = Bandwidth::gbps(2);
        for i in 0..4 {
            ac.admit(&net, HostId(i), HostId(127), bw).expect("fits");
        }
        let err = ac.admit(&net, HostId(5), HostId(127), bw).unwrap_err();
        assert!(matches!(err, AdmissionError::NoCapacity { .. }));
        // The delivery link is exactly full.
        assert_eq!(ac.reserved(net.host_delivery_link(HostId(127))), LINK.as_bytes_per_sec());
    }

    #[test]
    fn release_restores_capacity() {
        let net = net();
        let mut ac = AdmissionController::new(&net, LINK, 1.0);
        let bw = Bandwidth::gbps(8);
        let adm = ac.admit(&net, HostId(0), HostId(127), bw).unwrap();
        assert!(ac.admit(&net, HostId(1), HostId(127), bw).is_err());
        ac.release(&net, &adm.route, bw).unwrap();
        assert!(ac.admit(&net, HostId(1), HostId(127), bw).is_ok());
    }

    #[test]
    fn double_release_is_an_error_and_leaves_ledger_intact() {
        let net = net();
        let mut ac = AdmissionController::new(&net, LINK, 1.0);
        let bw = Bandwidth::gbps(2);
        let adm = ac.admit(&net, HostId(0), HostId(127), bw).unwrap();
        ac.release(&net, &adm.route, bw).unwrap();
        assert_eq!(ac.max_utilization(), 0.0);
        let err = ac.release(&net, &adm.route, bw).unwrap_err();
        assert!(matches!(err, AdmissionError::ReleaseUnderflow { .. }));
        // Nothing was partially subtracted.
        assert_eq!(ac.max_utilization(), 0.0);
    }

    #[test]
    fn release_of_unknown_route_fails_without_partial_mutation() {
        let net = net();
        let mut ac = AdmissionController::new(&net, LINK, 1.0);
        let bw = Bandwidth::gbps(2);
        // Reserve via spine choice 0; attempt release on a different route
        // that shares the endpoint links but not the transit links.
        let adm = ac.admit(&net, HostId(0), HostId(127), bw).unwrap();
        let other = net.route(HostId(0), HostId(127), (adm.choice + 1) % 8);
        let before: Vec<u64> =
            net.links_on_route(&other).iter().map(|l| ac.reserved(*l)).collect();
        assert!(ac.release(&net, &other, bw).is_err());
        let after: Vec<u64> =
            net.links_on_route(&other).iter().map(|l| ac.reserved(*l)).collect();
        assert_eq!(before, after, "failed release must not touch any link");
    }

    #[test]
    fn ledger_zero_after_admit_revoke_readmit_cycles() {
        let net = net();
        let mut ac = AdmissionController::new(&net, LINK, 1.0);
        let bw = Bandwidth::mbps(400);
        for cycle in 0..10 {
            let a = ac.admit(&net, HostId(0), HostId(100), bw).unwrap();
            let b = ac.admit(&net, HostId(1), HostId(101), bw).unwrap();
            ac.release(&net, &a.route, bw).unwrap();
            // Re-admit in the freed space, then tear everything down.
            let c = ac.admit(&net, HostId(0), HostId(100), bw).unwrap();
            ac.release(&net, &b.route, bw).unwrap();
            ac.release(&net, &c.route, bw).unwrap();
            assert_eq!(ac.max_utilization(), 0.0, "cycle {cycle}: ledger not empty");
        }
    }

    #[test]
    fn failed_links_are_avoided_then_reused_after_restore() {
        let net = net();
        let mut ac = AdmissionController::new(&net, LINK, 1.0);
        let bw = Bandwidth::gbps(1);
        // Fail leaf 0's uplink to spine 0 (and the return direction).
        let [up, down] = net.leaf_spine_links(0, 0);
        ac.fail_link(up);
        ac.fail_link(down);
        assert!(!ac.link_is_up(up));
        for _ in 0..16 {
            let adm = ac.admit(&net, HostId(0), HostId(127), bw).unwrap();
            assert_ne!(adm.choice, 0, "failed spine must not be chosen");
            ac.release(&net, &adm.route, bw).unwrap();
            let c = ac.assign_unregulated_choice(&net, HostId(0), HostId(127));
            assert_ne!(c, 0, "unregulated too");
        }
        ac.restore_link(up);
        ac.restore_link(down);
        let mut used = std::collections::HashSet::new();
        for _ in 0..8 {
            used.insert(ac.assign_unregulated_choice(&net, HostId(0), HostId(127)));
        }
        assert!(used.contains(&0), "restored spine is used again");
    }

    #[test]
    fn all_paths_failed_reports_no_usable_path() {
        let net = net();
        let mut ac = AdmissionController::new(&net, LINK, 1.0);
        // Kill the destination's delivery link: every candidate crosses it.
        ac.fail_link(net.host_delivery_link(HostId(127)));
        let err = ac.admit(&net, HostId(0), HostId(127), Bandwidth::gbps(1)).unwrap_err();
        assert_eq!(err, AdmissionError::NoUsablePath);
        // The unregulated fallback still returns a (doomed) fixed route.
        let c = ac.assign_unregulated_choice(&net, HostId(0), HostId(127));
        assert!(net.check_route(&net.route(HostId(0), HostId(127), c)).is_ok());
    }

    #[test]
    fn load_balances_over_spines() {
        let net = net();
        let mut ac = AdmissionController::new(&net, LINK, 1.0);
        let bw = Bandwidth::gbps(1);
        // Eight flows from the same source leaf to distinct remote hosts:
        // each should take a different spine (the least-utilised one).
        let mut used = std::collections::HashSet::new();
        for i in 0..8u32 {
            let adm = ac.admit(&net, HostId(i % 8), HostId(64 + i), bw).unwrap();
            used.insert(adm.choice);
        }
        assert_eq!(used.len(), 8, "reservations should spread over all spines");
        assert!(ac.max_utilization() <= 0.5);
    }

    #[test]
    fn intra_leaf_flows_need_no_spine() {
        let net = net();
        let mut ac = AdmissionController::new(&net, LINK, 1.0);
        let adm = ac.admit(&net, HostId(0), HostId(1), Bandwidth::gbps(4)).unwrap();
        assert_eq!(adm.route.len(), 1);
        assert_eq!(adm.choice, 0);
    }

    #[test]
    fn max_util_fraction_respected() {
        let net = net();
        // Only half the link may be reserved.
        let mut ac = AdmissionController::new(&net, LINK, 0.5);
        assert!(ac.admit(&net, HostId(0), HostId(127), Bandwidth::gbps(4)).is_ok());
        assert!(ac.admit(&net, HostId(1), HostId(127), Bandwidth::gbps(1)).is_err());
    }

    #[test]
    fn unregulated_paths_round_robin() {
        let net = net();
        let mut ac = AdmissionController::new(&net, LINK, 1.0);
        let mut spines = vec![];
        for _ in 0..8 {
            spines.push(ac.assign_unregulated_choice(&net, HostId(0), HostId(127)));
        }
        let distinct: std::collections::HashSet<_> = spines.iter().collect();
        assert_eq!(distinct.len(), 8, "round robin covers all spines");
        // And no reservation was made.
        assert_eq!(ac.max_utilization(), 0.0);
    }

    #[test]
    fn export_restore_roundtrip_is_bit_exact() {
        let net = net();
        let mut ac = AdmissionController::new(&net, LINK, 1.0);
        let bw = Bandwidth::gbps(1);
        for i in 0..12u32 {
            let _ = ac.admit(&net, HostId(i % 8), HostId(64 + i), bw);
            let _ = ac.assign_unregulated_choice(&net, HostId(i % 16), HostId(127));
        }
        ac.fail_link(net.host_delivery_link(HostId(9)));
        let snap = ac.export_state();
        let digest = snap.digest();
        assert_eq!(ac.state_digest(), digest);

        // A fresh controller restored from the snapshot answers the next
        // request identically (and reports the same digest).
        let mut fresh = AdmissionController::new(&net, LINK, 1.0);
        assert_ne!(fresh.state_digest(), digest, "states differ before restore");
        fresh.restore_state(&snap).unwrap();
        assert_eq!(fresh.state_digest(), digest);
        assert_eq!(fresh.export_state(), snap);
        let a = ac.admit(&net, HostId(3), HostId(120), bw).unwrap();
        let b = fresh.admit(&net, HostId(3), HostId(120), bw).unwrap();
        assert_eq!(a.choice, b.choice);
        assert_eq!(ac.state_digest(), fresh.state_digest());
        let ra = ac.assign_unregulated_choice(&net, HostId(0), HostId(127));
        let rb = fresh.assign_unregulated_choice(&net, HostId(0), HostId(127));
        assert_eq!(ra, rb);
    }

    #[test]
    fn restore_of_wrong_shape_is_rejected_untouched() {
        let net = net();
        let mut ac = AdmissionController::new(&net, LINK, 1.0);
        let before = ac.export_state();
        let mut snap = before.clone();
        snap.reserved.push(0);
        let err = ac.restore_state(&snap).unwrap_err();
        assert!(matches!(err, AdmissionError::StateShapeMismatch { .. }));
        assert_eq!(ac.export_state(), before);
    }

    #[test]
    fn digest_is_sensitive_to_every_component() {
        let net = net();
        let ac = AdmissionController::new(&net, LINK, 1.0);
        let base = ac.export_state();
        let d0 = base.digest();
        let mut m = base.clone();
        m.reserved[3] = 1;
        assert_ne!(m.digest(), d0);
        let mut m = base.clone();
        m.link_up[0] = false;
        assert_ne!(m.digest(), d0);
        let mut m = base.clone();
        m.rr_spine[1] = 5;
        assert_ne!(m.digest(), d0);
        let mut m = base;
        m.capacity += 1;
        assert_ne!(m.digest(), d0);
    }

    /// The scorer as it stood before the flat link tables, kept verbatim
    /// as the differential reference for [`AdmissionController::admit_choice`].
    /// Its links come from walking a materialised `Route` through the
    /// switch wiring, so it shares nothing with the tables under test.
    fn reference_admit(
        ac: &mut AdmissionController,
        net: &FoldedClos,
        src: HostId,
        dst: HostId,
        bw: Bandwidth,
    ) -> Result<u16, AdmissionError> {
        let request = bw.as_bytes_per_sec();
        let choices = net.route_choices(src, dst);
        let mut best: Option<(u16, (u64, u64))> = None;
        let mut any_usable = false;
        for choice in 0..choices {
            let links = net.links_on_route(&net.route(src, dst, choice));
            if links.iter().any(|l| !ac.link_up[l.idx()]) {
                continue;
            }
            any_usable = true;
            let worst_after = links
                .iter()
                .map(|l| ac.reserved[l.idx()] + request)
                .max()
                .expect("route has links");
            if worst_after > ac.capacity {
                continue;
            }
            let total_after: u64 = links.iter().map(|l| ac.reserved[l.idx()]).sum();
            let key = (worst_after, total_after);
            let better = match &best {
                None => true,
                Some((_, k)) => key < *k,
            };
            if better {
                best = Some((choice, key));
            }
        }
        match best {
            Some((choice, _)) => {
                for l in net.links_on_route(&net.route(src, dst, choice)) {
                    ac.reserved[l.idx()] += request;
                }
                Ok(choice)
            }
            None if !any_usable => Err(AdmissionError::NoUsablePath),
            None => Err(AdmissionError::NoCapacity { requested_bytes_per_sec: request }),
        }
    }

    /// Over seeded random ledgers (empty, random, near-full and
    /// tie-heavy fills; healthy to heavily failed links; whole leaves cut
    /// off from the spines), the table-driven scorer returns exactly the
    /// reference's answer for every request and leaves an identical
    /// ledger behind.
    #[test]
    fn table_scorer_matches_reference_scorer() {
        use dqos_sim_core::SimRng;
        use dqos_topology::SwitchId;
        for params in [ClosParams::paper(), ClosParams::scaled(16)] {
            let net = FoldedClos::build(params);
            let n = net.n_hosts() as usize;
            let d = params.hosts_per_leaf as usize;
            let mut rng = SimRng::new(0xAD31_5510 ^ n as u64);
            let mut ac = AdmissionController::new(&net, LINK, 1.0);
            let cap = ac.capacity;
            // [inter-leaf Ok, intra-leaf Ok, NoCapacity, NoUsablePath]
            let mut seen = [0u32; 4];
            for episode in 0..80 {
                let mut state = ac.export_state();
                let fill = rng.index(4);
                let down_pct = [0usize, 2, 10, 40][rng.index(4)];
                for l in 0..state.reserved.len() {
                    state.reserved[l] = match fill {
                        0 => 0,
                        1 => rng.range_u64(0, cap),
                        2 => cap - rng.range_u64(0, cap / 8),
                        _ => rng.range_u64(0, 4) * (cap / 8),
                    };
                    state.link_up[l] = rng.index(100) >= down_pct;
                }
                if episode % 4 == 0 {
                    // Cut one leaf off every spine: its inter-leaf pairs
                    // have healthy end links but no usable path.
                    let leaf = SwitchId(rng.index(params.leaves as usize) as u32);
                    for c in 0..params.spines {
                        state.link_up[net.spine_uplink(leaf, c).idx()] = false;
                    }
                }
                ac.restore_state(&state).unwrap();
                for i in 0..100 {
                    let src = rng.index(n);
                    let dst = if rng.chance(0.25) {
                        // Same leaf, different host.
                        let leaf_base = src - src % d;
                        leaf_base + (src % d + 1 + rng.index(d - 1)) % d
                    } else {
                        (src + 1 + rng.index(n - 1)) % n
                    };
                    let (src, dst) = (HostId(src as u32), HostId(dst as u32));
                    let bw = Bandwidth::bytes_per_sec(rng.range_u64(1, cap / 4));
                    let mut reference = ac.clone();
                    let want = reference_admit(&mut reference, &net, src, dst, bw);
                    let got = if i % 2 == 0 {
                        ac.admit_choice(&net, src, dst, bw)
                    } else {
                        ac.admit(&net, src, dst, bw).map(|adm| adm.choice)
                    };
                    assert_eq!(got, want, "{params:?} episode {episode}: {src} -> {dst} at {bw:?}");
                    assert_eq!(ac.export_state(), reference.export_state());
                    let intra = net.leaf_of(src) == net.leaf_of(dst);
                    seen[match got {
                        Ok(_) if intra => 1,
                        Ok(_) => 0,
                        Err(AdmissionError::NoCapacity { .. }) => 2,
                        Err(_) => 3,
                    }] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c > 0), "{params:?}: every outcome exercised {seen:?}");
        }
    }

    #[test]
    fn release_choice_matches_release_of_route() {
        let net = net();
        let mut by_route = AdmissionController::new(&net, LINK, 1.0);
        let bw = Bandwidth::gbps(1);
        let mut flows = Vec::new();
        for i in 0..24u32 {
            let (src, dst) = (HostId(i * 5 % 128), HostId((i * 37 + 3) % 128));
            flows.push((src, dst, by_route.admit(&net, src, dst, bw).unwrap()));
        }
        let mut by_choice = by_route.clone();
        for (src, dst, adm) in &flows {
            by_route.release(&net, &adm.route, bw).unwrap();
            by_choice.release_choice(&net, *src, *dst, adm.choice, bw).unwrap();
            assert_eq!(by_route.export_state(), by_choice.export_state());
        }
        assert_eq!(by_choice.max_utilization(), 0.0);
        let (src, dst, adm) = &flows[0];
        let err = by_choice.release_choice(&net, *src, *dst, adm.choice, bw).unwrap_err();
        assert!(matches!(err, AdmissionError::ReleaseUnderflow { .. }));
    }

    #[test]
    fn ledger_never_oversubscribes() {
        let net = net();
        let mut ac = AdmissionController::new(&net, LINK, 1.0);
        let mut admitted = 0;
        // Greedy random-ish pattern; whatever is admitted must keep every
        // link at or below capacity.
        for i in 0..512u32 {
            let src = HostId(i % 128);
            let dst = HostId((i * 37 + 11) % 128);
            if src == dst {
                continue;
            }
            if ac.admit(&net, src, dst, Bandwidth::gbps(1)).is_ok() {
                admitted += 1;
            }
        }
        assert!(admitted > 0);
        assert!(ac.max_utilization() <= 1.0 + 1e-12);
    }
}
