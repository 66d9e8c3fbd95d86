//! The folded-Clos (bidirectional MIN) builder.
//!
//! Layout conventions (all ids dense, all assignments deterministic):
//!
//! * Hosts `0..l*d` attach in order to leaves: leaf `i` serves hosts
//!   `i*d .. i*d+d`.
//! * Switches: leaves are `S0..S(l-1)`, spines `S(l)..S(l+s-1)`.
//! * Leaf ports: `0..d` go down to hosts (port `p` ↔ host `i*d + p`),
//!   ports `d..d+s` go up to spines (port `d + j` ↔ spine `j`).
//! * Spine ports: port `i` goes down to leaf `i`.
//! * Every cable is two directed [`LinkId`]s, one per direction, so the
//!   credit-based flow control can account each direction independently.
//!
//! The paper's network is [`ClosParams::paper`]: `d = 8`, `l = 16`,
//! `s = 8` — 128 hosts, 16-port switches (8+8 at the leaves, 16 at the
//! spines), exactly the folded perfect-shuffle butterfly of §4.1.

use crate::ids::{HostId, LinkId, NodeId, Port, SwitchId};
use crate::route::{PortPath, Route, RouteHop};

/// Parameters of a two-stage folded Clos.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosParams {
    /// Hosts per leaf switch (`d`).
    pub hosts_per_leaf: u16,
    /// Number of leaf switches (`l`).
    pub leaves: u16,
    /// Number of spine switches (`s`). Zero builds a single-stage network
    /// (only valid when `leaves == 1`).
    pub spines: u16,
}

impl ClosParams {
    /// The paper's 128-endpoint configuration: 16 leaves × 8 hosts,
    /// 8 spines, 16-port switches.
    pub const fn paper() -> Self {
        ClosParams { hosts_per_leaf: 8, leaves: 16, spines: 8 }
    }

    /// A reduced instance with the same switch structure (8 hosts/leaf,
    /// 8 spines) for a given host count, which must be a positive
    /// multiple of 8. Used by the fast bench presets.
    pub fn scaled(hosts: u16) -> Self {
        assert!(hosts > 0 && hosts.is_multiple_of(8), "host count must be a positive multiple of 8");
        if hosts == 8 {
            // Single leaf: no spine stage needed.
            ClosParams { hosts_per_leaf: 8, leaves: 1, spines: 0 }
        } else {
            ClosParams { hosts_per_leaf: 8, leaves: hosts / 8, spines: 8 }
        }
    }

    /// A single-switch "network": all hosts on one crossbar. Handy for
    /// unit tests of switch behaviour in isolation.
    pub const fn single_switch(hosts: u16) -> Self {
        ClosParams { hosts_per_leaf: hosts, leaves: 1, spines: 0 }
    }

    /// Total host count.
    pub fn n_hosts(&self) -> u32 {
        self.hosts_per_leaf as u32 * self.leaves as u32
    }

    /// Total switch count (leaves + spines).
    pub fn n_switches(&self) -> u32 {
        self.leaves as u32 + self.spines as u32
    }

    /// The port count of the widest switch (leaf: down+up, spine: leaves).
    pub fn radix(&self) -> u16 {
        (self.hosts_per_leaf + self.spines).max(self.leaves)
    }

    fn validate(&self) {
        assert!(self.hosts_per_leaf > 0, "need at least one host per leaf");
        assert!(self.leaves > 0, "need at least one leaf");
        assert!(
            self.spines > 0 || self.leaves == 1,
            "a multi-leaf network needs at least one spine"
        );
    }
}

/// The far end of a directed link, as seen from its transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEnd {
    /// The directed link id (for credit accounting).
    pub link: LinkId,
    /// The node the link delivers to.
    pub peer: NodeId,
    /// The input port on `peer` the link arrives at.
    pub peer_port: Port,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkInfo {
    src: NodeId,
    src_port: Port,
    dst: NodeId,
    dst_port: Port,
}

/// A fully built two-stage folded Clos.
///
/// ```
/// use dqos_topology::{ClosParams, FoldedClos, HostId};
///
/// // The paper's network: 128 hosts, 16 leaves, 8 spines.
/// let net = FoldedClos::build(ClosParams::paper());
/// assert_eq!(net.n_hosts(), 128);
/// assert_eq!(net.n_switches(), 24);
///
/// // Inter-leaf pairs have one fixed route per spine.
/// assert_eq!(net.route_choices(HostId(0), HostId(127)), 8);
/// let route = net.route(HostId(0), HostId(127), 3);
/// assert_eq!(route.len(), 3);              // leaf -> spine 3 -> leaf
/// net.check_route(&route).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct FoldedClos {
    params: ClosParams,
    links: Vec<LinkInfo>,
    /// `host_up[h]`: the host's injection link (host → leaf).
    host_up: Vec<LinkId>,
    /// `host_down[h]`: the delivery link (leaf → host).
    host_down: Vec<LinkId>,
    /// `switch_out[sw][port]`: the directed link leaving that port.
    switch_out: Vec<Vec<Option<LinkId>>>,
    /// Leaf → spine uplinks, `[leaf][choice]` (`leaf * spines + choice`).
    spine_up: Vec<LinkId>,
    /// Spine → leaf downlinks, `[choice][leaf]` (`choice * leaves + leaf`).
    spine_down: Vec<LinkId>,
}

/// The directed links of one candidate route, in traversal order, held
/// inline: two for an intra-leaf pair, four through a spine (see
/// [`FoldedClos::links_for_choice`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathLinks {
    links: [LinkId; 4],
    len: u8,
}

impl std::ops::Deref for PathLinks {
    type Target = [LinkId];

    fn deref(&self) -> &[LinkId] {
        &self.links[..self.len as usize]
    }
}

impl FoldedClos {
    /// Build the network for `params`.
    pub fn build(params: ClosParams) -> Self {
        params.validate();
        let d = params.hosts_per_leaf as u32;
        let l = params.leaves as u32;
        let s = params.spines as u32;
        let n_hosts = params.n_hosts();
        let n_switches = params.n_switches();

        let mut links = Vec::with_capacity((2 * n_hosts + 2 * l * s) as usize);
        let mut host_up = vec![LinkId(u32::MAX); n_hosts as usize];
        let mut host_down = vec![LinkId(u32::MAX); n_hosts as usize];
        let mut spine_up = vec![LinkId(u32::MAX); (l * s) as usize];
        let mut spine_down = vec![LinkId(u32::MAX); (l * s) as usize];
        let mut switch_out: Vec<Vec<Option<LinkId>>> = (0..n_switches)
            .map(|sw| {
                let ports = if sw < l { d + s } else { l };
                vec![None; ports as usize]
            })
            .collect();

        let add = |info: LinkInfo, links: &mut Vec<LinkInfo>| -> LinkId {
            let id = LinkId(links.len() as u32);
            links.push(info);
            id
        };

        // Host <-> leaf cables.
        for h in 0..n_hosts {
            let leaf = SwitchId(h / d);
            let leaf_port = Port((h % d) as u8);
            let up = add(
                LinkInfo {
                    src: NodeId::Host(HostId(h)),
                    src_port: Port(0),
                    dst: NodeId::Switch(leaf),
                    dst_port: leaf_port,
                },
                &mut links,
            );
            let down = add(
                LinkInfo {
                    src: NodeId::Switch(leaf),
                    src_port: leaf_port,
                    dst: NodeId::Host(HostId(h)),
                    dst_port: Port(0),
                },
                &mut links,
            );
            host_up[h as usize] = up;
            host_down[h as usize] = down;
            switch_out[leaf.idx()][leaf_port.idx()] = Some(down);
        }

        // Leaf <-> spine cables (full bipartite).
        for i in 0..l {
            for j in 0..s {
                let leaf = SwitchId(i);
                let spine = SwitchId(l + j);
                let leaf_port = Port((d + j) as u8);
                let spine_port = Port(i as u8);
                let up = add(
                    LinkInfo {
                        src: NodeId::Switch(leaf),
                        src_port: leaf_port,
                        dst: NodeId::Switch(spine),
                        dst_port: spine_port,
                    },
                    &mut links,
                );
                let down = add(
                    LinkInfo {
                        src: NodeId::Switch(spine),
                        src_port: spine_port,
                        dst: NodeId::Switch(leaf),
                        dst_port: leaf_port,
                    },
                    &mut links,
                );
                switch_out[leaf.idx()][leaf_port.idx()] = Some(up);
                switch_out[spine.idx()][spine_port.idx()] = Some(down);
                spine_up[(i * s + j) as usize] = up;
                spine_down[(j * l + i) as usize] = down;
            }
        }

        FoldedClos { params, links, host_up, host_down, switch_out, spine_up, spine_down }
    }

    /// The parameters this network was built from.
    pub fn params(&self) -> ClosParams {
        self.params
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> u32 {
        self.params.n_hosts()
    }

    /// Number of switches (leaves first, then spines).
    pub fn n_switches(&self) -> u32 {
        self.params.n_switches()
    }

    /// Number of directed links.
    pub fn n_links(&self) -> u32 {
        self.links.len() as u32
    }

    /// Number of ports on switch `sw`.
    pub fn switch_ports(&self, sw: SwitchId) -> u8 {
        self.switch_out[sw.idx()].len() as u8
    }

    /// Whether `sw` is a leaf (has host-facing ports).
    pub fn is_leaf(&self, sw: SwitchId) -> bool {
        sw.0 < self.params.leaves as u32
    }

    /// The leaf switch serving `host`.
    pub fn leaf_of(&self, host: HostId) -> SwitchId {
        SwitchId(host.0 / self.params.hosts_per_leaf as u32)
    }

    /// The spine with index `j` (`0 <= j < spines`).
    pub fn spine(&self, j: u16) -> SwitchId {
        debug_assert!(j < self.params.spines);
        SwitchId(self.params.leaves as u32 + j as u32)
    }

    /// Where a host's injection link lands (its leaf switch + port).
    pub fn host_out_link(&self, host: HostId) -> LinkEnd {
        let id = self.host_up[host.idx()];
        let info = self.links[id.idx()];
        LinkEnd { link: id, peer: info.dst, peer_port: info.dst_port }
    }

    /// The delivery link of a host (leaf → host), for credit accounting
    /// at the leaf's output.
    pub fn host_delivery_link(&self, host: HostId) -> LinkId {
        self.host_down[host.idx()]
    }

    /// The uplink from leaf `leaf` to spine `choice`.
    #[inline]
    pub fn spine_uplink(&self, leaf: SwitchId, choice: u16) -> LinkId {
        debug_assert!(choice < self.params.spines);
        self.spine_up[leaf.idx() * self.params.spines as usize + choice as usize]
    }

    /// The downlink from spine `choice` to leaf `leaf`.
    #[inline]
    pub fn spine_downlink(&self, choice: u16, leaf: SwitchId) -> LinkId {
        debug_assert!(leaf.0 < self.params.leaves as u32);
        self.spine_down[choice as usize * self.params.leaves as usize + leaf.idx()]
    }

    /// Where the link leaving `(sw, port)` lands, if that port is wired.
    pub fn switch_out_link(&self, sw: SwitchId, port: Port) -> Option<LinkEnd> {
        let id = (*self.switch_out.get(sw.idx())?.get(port.idx())?)?;
        let info = self.links[id.idx()];
        Some(LinkEnd { link: id, peer: info.dst, peer_port: info.dst_port })
    }

    /// Every directed link touching switch `sw`, in both directions —
    /// what "the whole switch failed" means to the fault injector.
    pub fn switch_links(&self, sw: SwitchId) -> Vec<LinkId> {
        let node = NodeId::Switch(sw);
        self.links
            .iter()
            .enumerate()
            .filter(|(_, info)| info.src == node || info.dst == node)
            .map(|(i, _)| LinkId(i as u32))
            .collect()
    }

    /// The two directed links of the cable between leaf `leaf` and spine
    /// index `spine`: `[up (leaf → spine), down (spine → leaf)]`.
    pub fn leaf_spine_links(&self, leaf: u16, spine: u16) -> [LinkId; 2] {
        assert!(leaf < self.params.leaves, "leaf index out of range");
        assert!(spine < self.params.spines, "spine index out of range");
        let leaf = SwitchId(leaf as u32);
        [self.spine_uplink(leaf, spine), self.spine_downlink(spine, leaf)]
    }

    /// How many distinct fixed routes exist from `src` to `dst`
    /// (one per spine for inter-leaf pairs, exactly one intra-leaf).
    pub fn route_choices(&self, src: HostId, dst: HostId) -> u16 {
        assert_ne!(src, dst, "no route from a host to itself");
        if self.leaf_of(src) == self.leaf_of(dst) {
            1
        } else {
            self.params.spines
        }
    }

    /// The minimal up/down route from `src` to `dst` through spine
    /// `choice` (ignored for intra-leaf pairs). `choice` must be less
    /// than [`FoldedClos::route_choices`].
    pub fn route(&self, src: HostId, dst: HostId, choice: u16) -> Route {
        assert_ne!(src, dst, "no route from a host to itself");
        let d = self.params.hosts_per_leaf as u32;
        let src_leaf = self.leaf_of(src);
        let dst_leaf = self.leaf_of(dst);
        let dst_port_at_leaf = Port((dst.0 % d) as u8);
        if src_leaf == dst_leaf {
            return Route::new(src, dst, vec![RouteHop { switch: src_leaf, out_port: dst_port_at_leaf }]);
        }
        self.check_choice(choice);
        let up_port = Port((d + choice as u32) as u8);
        let spine = self.spine(choice);
        let down_port = Port(dst_leaf.0 as u8);
        Route::new(
            src,
            dst,
            vec![
                RouteHop { switch: src_leaf, out_port: up_port },
                RouteHop { switch: spine, out_port: down_port },
                RouteHop { switch: dst_leaf, out_port: dst_port_at_leaf },
            ],
        )
    }

    /// All directed links a route traverses, including the host's
    /// injection link, in traversal order. This is what the admission
    /// controller charges bandwidth against.
    pub fn links_on_route(&self, route: &Route) -> Vec<LinkId> {
        let mut out = Vec::with_capacity(route.len() + 1);
        out.push(self.host_up[route.src.idx()]);
        for i in 0..route.len() {
            // tidy: allow(no-unwrap) -- i ranges over 0..route.len().
            let hop = route.hop(i).expect("hop index in range");
            let end = self
                .switch_out_link(hop.switch, hop.out_port)
                // tidy: allow(no-unwrap) -- routes are built from this same
                // wiring table, so every hop port resolves to a link.
                .expect("route uses a wired port");
            out.push(end.link);
        }
        out
    }

    /// The links of candidate route `choice` from `src` to `dst` —
    /// identical to `links_on_route(&route(src, dst, choice))` but read
    /// from the link tables without building the intermediate [`Route`].
    pub fn links_for_choice(&self, src: HostId, dst: HostId, choice: u16) -> PathLinks {
        assert_ne!(src, dst, "no route from a host to itself");
        let inject = self.host_up[src.idx()];
        let deliver = self.host_down[dst.idx()];
        let src_leaf = self.leaf_of(src);
        let dst_leaf = self.leaf_of(dst);
        if src_leaf == dst_leaf {
            return PathLinks { links: [inject, deliver, deliver, deliver], len: 2 };
        }
        self.check_choice(choice);
        let up = self.spine_uplink(src_leaf, choice);
        let down = self.spine_downlink(choice, dst_leaf);
        PathLinks { links: [inject, up, down, deliver], len: 4 }
    }

    /// The output ports of candidate route `choice` from `src` to `dst` —
    /// identical to `route(src, dst, choice).port_path()` without the
    /// intermediate [`Route`].
    pub fn port_path(&self, src: HostId, dst: HostId, choice: u16) -> PortPath {
        assert_ne!(src, dst, "no route from a host to itself");
        let d = self.params.hosts_per_leaf as u32;
        let dst_leaf = self.leaf_of(dst);
        let dst_port_at_leaf = Port((dst.0 % d) as u8);
        if self.leaf_of(src) == dst_leaf {
            return PortPath::new(&[dst_port_at_leaf]);
        }
        self.check_choice(choice);
        PortPath::new(&[Port((d + choice as u32) as u8), Port(dst_leaf.0 as u8), dst_port_at_leaf])
    }

    fn check_choice(&self, choice: u16) {
        assert!(
            choice < self.params.spines,
            "spine choice {choice} out of range (< {})",
            self.params.spines
        );
    }

    /// Validate that `route` is structurally sound: starts at the source's
    /// leaf, each hop's link leads to the next hop's switch, and the final
    /// link delivers to `dst`. Used by tests and debug assertions.
    pub fn check_route(&self, route: &Route) -> Result<(), String> {
        let first = route.hop(0).ok_or("empty route")?;
        if first.switch != self.leaf_of(route.src) {
            return Err(format!(
                "route starts at {} but source {} attaches to {}",
                first.switch,
                route.src,
                self.leaf_of(route.src)
            ));
        }
        let mut at = first.switch;
        for i in 0..route.len() {
            // tidy: allow(no-unwrap) -- i ranges over 0..route.len().
            let hop = route.hop(i).unwrap();
            if hop.switch != at {
                return Err(format!("hop {i} expected at {at}, found {}", hop.switch));
            }
            let end = self
                .switch_out_link(hop.switch, hop.out_port)
                .ok_or_else(|| format!("hop {i}: port {:?} unwired", hop.out_port))?;
            match end.peer {
                NodeId::Switch(next) => {
                    if route.is_last_hop(i) {
                        return Err("route ends at a switch, not a host".into());
                    }
                    at = next;
                }
                NodeId::Host(h) => {
                    if !route.is_last_hop(i) {
                        return Err(format!("route reaches host {h} before its last hop"));
                    }
                    if h != route.dst {
                        return Err(format!("route delivers to {h}, expected {}", route.dst));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        let p = ClosParams::paper();
        assert_eq!(p.n_hosts(), 128);
        assert_eq!(p.n_switches(), 24);
        assert_eq!(p.radix(), 16);
        let net = FoldedClos::build(p);
        // 2 directed links per host cable + 2 per leaf-spine cable.
        assert_eq!(net.n_links(), 2 * 128 + 2 * 16 * 8);
        // Leaves have 16 ports (8 down + 8 up); spines have 16 (one per leaf).
        assert_eq!(net.switch_ports(SwitchId(0)), 16);
        assert_eq!(net.switch_ports(SwitchId(16)), 16);
    }

    #[test]
    fn scaled_instances() {
        assert_eq!(ClosParams::scaled(8).n_switches(), 1);
        let p = ClosParams::scaled(32);
        assert_eq!(p.leaves, 4);
        assert_eq!(p.spines, 8);
        assert_eq!(p.n_hosts(), 32);
        FoldedClos::build(p); // must not panic
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn scaled_rejects_bad_host_count() {
        ClosParams::scaled(12);
    }

    #[test]
    fn intra_leaf_route_is_single_hop() {
        let net = FoldedClos::build(ClosParams::paper());
        let r = net.route(HostId(1), HostId(5), 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r.hop(0).unwrap().switch, SwitchId(0));
        assert_eq!(r.hop(0).unwrap().out_port, Port(5));
        net.check_route(&r).unwrap();
        assert_eq!(net.route_choices(HostId(1), HostId(5)), 1);
    }

    #[test]
    fn inter_leaf_route_goes_up_and_down() {
        let net = FoldedClos::build(ClosParams::paper());
        let r = net.route(HostId(0), HostId(127), 3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.hop(0).unwrap().switch, SwitchId(0)); // leaf 0
        assert_eq!(r.hop(0).unwrap().out_port, Port(8 + 3)); // up to spine 3
        assert_eq!(r.hop(1).unwrap().switch, SwitchId(16 + 3)); // spine 3
        assert_eq!(r.hop(1).unwrap().out_port, Port(15)); // down to leaf 15
        assert_eq!(r.hop(2).unwrap().switch, SwitchId(15)); // leaf 15
        assert_eq!(r.hop(2).unwrap().out_port, Port(7)); // host 127
        net.check_route(&r).unwrap();
        assert_eq!(net.route_choices(HostId(0), HostId(127)), 8);
    }

    #[test]
    fn links_on_route_are_consecutive() {
        let net = FoldedClos::build(ClosParams::paper());
        let r = net.route(HostId(0), HostId(127), 0);
        let links = net.links_on_route(&r);
        assert_eq!(links.len(), 4); // inject + up + down + deliver
        // All distinct.
        let mut sorted = links.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), links.len());
        // The last link is the destination's delivery link.
        assert_eq!(*links.last().unwrap(), net.host_delivery_link(HostId(127)));
    }

    #[test]
    fn link_tables_match_routes_for_every_choice() {
        // The flat spine tables and the table-driven path views must
        // agree with the wiring walk of a materialised Route.
        for params in [ClosParams::paper(), ClosParams::scaled(16), ClosParams::scaled(8)] {
            let net = FoldedClos::build(params);
            for src in 0..net.n_hosts() {
                for dst in 0..net.n_hosts() {
                    let (src, dst) = (HostId(src), HostId(dst));
                    if src == dst {
                        continue;
                    }
                    for c in 0..net.route_choices(src, dst) {
                        let r = net.route(src, dst, c);
                        assert_eq!(*net.links_for_choice(src, dst, c), net.links_on_route(&r)[..]);
                        assert_eq!(net.port_path(src, dst, c), r.port_path());
                    }
                }
            }
        }
    }

    #[test]
    fn switch_links_cover_both_directions() {
        let net = FoldedClos::build(ClosParams::paper());
        // A spine touches 16 leaves × 2 directions.
        let spine_links = net.switch_links(net.spine(3));
        assert_eq!(spine_links.len(), 32);
        // A leaf touches 8 hosts × 2 + 8 spines × 2.
        let leaf_links = net.switch_links(SwitchId(0));
        assert_eq!(leaf_links.len(), 32);
        // The leaf-spine pair helper returns one link from each side's set.
        let [up, down] = net.leaf_spine_links(0, 3);
        assert!(leaf_links.contains(&up) && leaf_links.contains(&down));
        assert!(spine_links.contains(&up) && spine_links.contains(&down));
        assert_ne!(up, down);
        // And they are exactly the middle links of a route via spine 3.
        let r = net.route(HostId(0), HostId(127), 3);
        let on_route = net.links_on_route(&r);
        assert_eq!(on_route[1], up);
    }

    #[test]
    fn single_switch_network() {
        let net = FoldedClos::build(ClosParams::single_switch(4));
        assert_eq!(net.n_switches(), 1);
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a == b {
                    continue;
                }
                let r = net.route(HostId(a), HostId(b), 0);
                assert_eq!(r.len(), 1);
                net.check_route(&r).unwrap();
            }
        }
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_route_panics() {
        let net = FoldedClos::build(ClosParams::paper());
        net.route(HostId(3), HostId(3), 0);
    }

    #[test]
    fn every_port_wired_exactly_once() {
        let net = FoldedClos::build(ClosParams::paper());
        // Every switch port must have exactly one outgoing link, and every
        // directed link must appear exactly once as some port's out-link.
        let mut seen = vec![0u32; net.n_links() as usize];
        for sw in 0..net.n_switches() {
            let sw = SwitchId(sw);
            for p in 0..net.switch_ports(sw) {
                let end = net.switch_out_link(sw, Port(p)).expect("port wired");
                seen[end.link.idx()] += 1;
            }
        }
        for h in 0..net.n_hosts() {
            seen[net.host_out_link(HostId(h)).link.idx()] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "each directed link has one transmitter");
    }

    #[test]
    fn no_down_up_turns_in_routes() {
        // Deadlock freedom: once a route goes down (towards leaves/hosts)
        // it never goes up again. Structurally: inter-leaf routes are
        // leaf→spine→leaf→host; intra-leaf are leaf→host.
        let net = FoldedClos::build(ClosParams::paper());
        for (src, dst) in [(0u32, 127u32), (0, 8), (5, 2), (120, 7)] {
            for c in 0..net.route_choices(HostId(src), HostId(dst)) {
                let r = net.route(HostId(src), HostId(dst), c);
                let mut descending = false;
                for i in 0..r.len() {
                    let hop = r.hop(i).unwrap();
                    let going_up =
                        net.is_leaf(hop.switch) && hop.out_port.idx() >= net.params().hosts_per_leaf as usize;
                    if going_up {
                        assert!(!descending, "route turned down then up");
                    } else {
                        descending = true;
                    }
                }
            }
        }
    }

    /// Random (src, dst, choice) triples across all scaled networks
    /// yield structurally valid, minimal routes; distinct spine choices
    /// are link-disjoint.
    #[test]
    fn randomized_routes_valid_and_spine_disjoint() {
        use dqos_sim_core::SimRng;
        let mut rng = SimRng::new(0xC105);
        let nets: Vec<FoldedClos> = [8u16, 16, 32, 64, 128]
            .iter()
            .map(|&h| FoldedClos::build(ClosParams::scaled(h)))
            .collect();
        for case in 0..500 {
            let net = &nets[case % nets.len()];
            let n = net.n_hosts();
            let src = HostId(rng.index(n as usize) as u32);
            let dst = HostId(rng.index(n as usize) as u32);
            if src == dst {
                continue;
            }
            let choices = net.route_choices(src, dst);
            let choice = (rng.index(8) as u16) % choices;
            let r = net.route(src, dst, choice);
            assert!(net.check_route(&r).is_ok());
            // Minimality: 1 hop intra-leaf, 3 hops inter-leaf.
            if net.leaf_of(src) == net.leaf_of(dst) {
                assert_eq!(r.len(), 1);
            } else {
                assert_eq!(r.len(), 3);
                // Different spine choices give link-disjoint middles;
                // injection and delivery links are shared.
                let a = net.links_on_route(&net.route(src, dst, 0));
                let b = net.links_on_route(&net.route(src, dst, 1));
                assert_eq!(a[0], b[0]);
                assert_eq!(a[3], b[3]);
                assert_ne!(a[1], b[1]);
                assert_ne!(a[2], b[2]);
            }
            // Link list length matches hop count + injection.
            assert_eq!(net.links_on_route(&r).len(), r.len() + 1);
        }
    }
}
