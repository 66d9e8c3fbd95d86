//! Fixed routes through the network.
//!
//! The paper mandates *fixed routing*: the admission controller assigns
//! each flow one route at setup and every packet of the flow follows it
//! (this is what makes head-of-queue deadline scheduling sound, and it
//! avoids the out-of-order delivery adaptive routing would cause). A
//! [`Route`] is the per-switch output-port list a packet consults with its
//! hop index; it is stored behind an `Arc` so cloning a packet is cheap.

use crate::ids::{HostId, Port, SwitchId};
use std::sync::Arc;

/// One hop of a route: the switch the packet is at and the output port it
/// must take there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteHop {
    /// The switch this hop traverses.
    pub switch: SwitchId,
    /// The output port to take at that switch.
    pub out_port: Port,
}

/// A complete, fixed source route from one host to another.
///
/// `hops[0]` is the first switch after the source host's injection link;
/// the final hop's output port leads to the destination host.
/// (Not serialisable: routes are rebuilt from topology + choice index.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Per-switch hops, in traversal order.
    pub hops: Arc<[RouteHop]>,
}

impl Route {
    /// Create a route from its parts.
    pub fn new(src: HostId, dst: HostId, hops: Vec<RouteHop>) -> Self {
        debug_assert!(!hops.is_empty(), "a route must traverse at least one switch");
        Route { src, dst, hops: hops.into() }
    }

    /// Number of switch hops.
    #[inline]
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True if the route has no hops (never constructed by this crate).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// The hop at `idx`, if any.
    #[inline]
    pub fn hop(&self, idx: usize) -> Option<RouteHop> {
        self.hops.get(idx).copied()
    }

    /// Whether `idx` is the final switch (its output port reaches the
    /// destination host).
    #[inline]
    pub fn is_last_hop(&self, idx: usize) -> bool {
        idx + 1 == self.hops.len()
    }

    /// The interned, `Copy` output-port list packets carry (see
    /// [`PortPath`]).
    #[inline]
    pub fn port_path(&self) -> PortPath {
        let mut ports = [Port(0); MAX_ROUTE_HOPS];
        assert!(
            self.hops.len() <= MAX_ROUTE_HOPS,
            "route exceeds MAX_ROUTE_HOPS ({} hops)",
            self.hops.len()
        );
        for (slot, hop) in ports.iter_mut().zip(self.hops.iter()) {
            *slot = hop.out_port;
        }
        PortPath { ports, len: self.hops.len() as u8 }
    }
}

/// Upper bound on switch hops in a [`PortPath`]. Minimal routes in a
/// folded Clos take 1 hop (intra-leaf) or 3 (leaf → spine → leaf); 4
/// leaves headroom for a deeper fabric without changing the header size.
pub const MAX_ROUTE_HOPS: usize = 4;

/// The route as packets carry it: just the output-port sequence, inline
/// and `Copy`.
///
/// A full [`Route`] names the switches it traverses, which admission and
/// topology validation need, but a packet in flight only ever consults
/// *which output port to take at the current hop*. Interning the route
/// into this fixed-size array once per flow removes the per-packet
/// `Route` clone (and the `Arc` traffic that came with it) from the hot
/// forwarding path, and is what makes the packet struct plain old data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortPath {
    ports: [Port; MAX_ROUTE_HOPS],
    len: u8,
}

impl PortPath {
    /// Intern an explicit port list (mostly for tests; flows intern via
    /// [`Route::port_path`]).
    pub fn new(ports: &[Port]) -> Self {
        assert!(!ports.is_empty(), "a route must traverse at least one switch");
        assert!(ports.len() <= MAX_ROUTE_HOPS, "route exceeds MAX_ROUTE_HOPS");
        let mut arr = [Port(0); MAX_ROUTE_HOPS];
        arr[..ports.len()].copy_from_slice(ports);
        PortPath { ports: arr, len: ports.len() as u8 }
    }

    /// Number of switch hops.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the path has no hops (never constructed by this crate).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The output port at hop `idx`, if any.
    #[inline]
    pub fn port(&self, idx: usize) -> Option<Port> {
        if idx < self.len as usize {
            Some(self.ports[idx])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(s: u32, p: u8) -> RouteHop {
        RouteHop { switch: SwitchId(s), out_port: Port(p) }
    }

    #[test]
    fn accessors() {
        let r = Route::new(HostId(0), HostId(9), vec![hop(0, 8), hop(16, 1), hop(1, 1)]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.hop(0), Some(hop(0, 8)));
        assert_eq!(r.hop(2), Some(hop(1, 1)));
        assert_eq!(r.hop(3), None);
        assert!(!r.is_last_hop(0));
        assert!(r.is_last_hop(2));
    }

    #[test]
    fn clone_shares_hops() {
        let r = Route::new(HostId(0), HostId(1), vec![hop(0, 1)]);
        let r2 = r.clone();
        assert!(Arc::ptr_eq(&r.hops, &r2.hops));
    }

    #[test]
    fn port_path_mirrors_route() {
        let r = Route::new(HostId(0), HostId(9), vec![hop(0, 8), hop(16, 1), hop(1, 3)]);
        let p = r.port_path();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.port(0), Some(Port(8)));
        assert_eq!(p.port(1), Some(Port(1)));
        assert_eq!(p.port(2), Some(Port(3)));
        assert_eq!(p.port(3), None);
    }

    #[test]
    fn port_path_from_explicit_ports() {
        let p = PortPath::new(&[Port(5)]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.port(0), Some(Port(5)));
    }
}
