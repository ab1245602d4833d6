//! Static group specification for the UDP runtime.
//!
//! Real deployments would obtain membership from the gossip substrate;
//! the runtime keeps bootstrap simple with an explicit [`GroupSpec`]
//! mapping members to socket addresses, regions, and the error-recovery
//! hierarchy.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};

use rrmp_membership::view::{HierarchyView, RegionView};
use rrmp_netsim::topology::{NodeId, RegionId};

/// One member entry of a [`GroupSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberSpec {
    /// The member's id.
    pub node: NodeId,
    /// Its UDP socket address.
    pub addr: SocketAddr,
    /// The region it belongs to.
    pub region: RegionId,
}

/// A static description of an RRMP group for the UDP runtime.
#[derive(Debug, Clone, Default)]
pub struct GroupSpec {
    members: Vec<MemberSpec>,
    parents: HashMap<RegionId, RegionId>,
    by_addr: HashMap<SocketAddr, NodeId>,
    by_node: HashMap<NodeId, usize>,
    /// Every member's id, ascending: sorted on first use after the last
    /// `add_member`, then shared by every receiver built from the spec.
    ids: OnceLock<Arc<[NodeId]>>,
}

impl GroupSpec {
    /// Creates an empty spec.
    #[must_use]
    pub fn new() -> Self {
        GroupSpec::default()
    }

    /// Adds a member.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `addr` was already added.
    pub fn add_member(&mut self, node: NodeId, addr: SocketAddr, region: RegionId) -> &mut Self {
        assert!(!self.by_node.contains_key(&node), "duplicate member {node}");
        assert!(!self.by_addr.contains_key(&addr), "duplicate address {addr}");
        self.by_node.insert(node, self.members.len());
        self.by_addr.insert(addr, node);
        self.members.push(MemberSpec { node, addr, region });
        self.ids = OnceLock::new();
        self
    }

    /// Declares `parent` as the parent region of `region`.
    pub fn set_parent(&mut self, region: RegionId, parent: RegionId) -> &mut Self {
        self.parents.insert(region, parent);
        self
    }

    /// All members.
    #[must_use]
    pub fn members(&self) -> &[MemberSpec] {
        &self.members
    }

    /// Every member's id in ascending order, sorted once per spec.
    #[must_use]
    pub fn ids(&self) -> &Arc<[NodeId]> {
        self.ids.get_or_init(|| {
            let mut ids: Vec<NodeId> = self.members.iter().map(|m| m.node).collect();
            ids.sort_unstable();
            ids.into()
        })
    }

    /// The address of `node`, if it is a member.
    #[must_use]
    pub fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        self.by_node.get(&node).map(|&i| self.members[i].addr)
    }

    /// The member at `addr`, if any.
    #[must_use]
    pub fn node_at(&self, addr: SocketAddr) -> Option<NodeId> {
        self.by_addr.get(&addr).copied()
    }

    /// The region of `node`.
    #[must_use]
    pub fn region_of(&self, node: NodeId) -> Option<RegionId> {
        self.by_node.get(&node).map(|&i| self.members[i].region)
    }

    /// Members of `region`, in insertion order.
    pub fn members_of(&self, region: RegionId) -> impl Iterator<Item = &MemberSpec> + '_ {
        self.members.iter().filter(move |m| m.region == region)
    }

    /// Builds the own+parent [`HierarchyView`] for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a member.
    #[must_use]
    pub fn view_for(&self, node: NodeId) -> HierarchyView {
        let region = self.region_of(node).expect("node is a member");
        let own = RegionView::new(region, self.members_of(region).map(|m| m.node));
        let parent = self
            .parents
            .get(&region)
            .map(|&p| RegionView::new(p, self.members_of(p).map(|m| m.node)));
        HierarchyView::new(own, parent)
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the spec has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().expect("valid addr")
    }

    #[test]
    fn spec_roundtrips_lookups() {
        let mut spec = GroupSpec::new();
        spec.add_member(NodeId(0), addr(9000), RegionId(0))
            .add_member(NodeId(1), addr(9001), RegionId(0))
            .add_member(NodeId(2), addr(9002), RegionId(1))
            .set_parent(RegionId(1), RegionId(0));
        assert_eq!(spec.len(), 3);
        assert_eq!(spec.addr_of(NodeId(2)), Some(addr(9002)));
        assert_eq!(spec.node_at(addr(9001)), Some(NodeId(1)));
        assert_eq!(spec.region_of(NodeId(2)), Some(RegionId(1)));
        assert_eq!(spec.members_of(RegionId(0)).count(), 2);
    }

    #[test]
    fn view_for_includes_parent_region() {
        let mut spec = GroupSpec::new();
        spec.add_member(NodeId(0), addr(9100), RegionId(0))
            .add_member(NodeId(1), addr(9101), RegionId(1))
            .add_member(NodeId(2), addr(9102), RegionId(1))
            .set_parent(RegionId(1), RegionId(0));
        let view = spec.view_for(NodeId(1));
        assert_eq!(view.own().len(), 2);
        assert!(view.parent().expect("has parent").contains(NodeId(0)));
        let root = spec.view_for(NodeId(0));
        assert!(root.parent().is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate member")]
    fn duplicate_member_rejected() {
        let mut spec = GroupSpec::new();
        spec.add_member(NodeId(0), addr(9200), RegionId(0)).add_member(
            NodeId(0),
            addr(9201),
            RegionId(0),
        );
    }

    #[test]
    #[should_panic(expected = "duplicate address")]
    fn duplicate_address_rejected() {
        // Two members claiming one socket address would make `node_at`
        // ambiguous on the receive path; the spec refuses at build time.
        let mut spec = GroupSpec::new();
        spec.add_member(NodeId(0), addr(9300), RegionId(0)).add_member(
            NodeId(1),
            addr(9300),
            RegionId(1),
        );
    }

    #[test]
    fn unknown_lookups_return_none() {
        let mut spec = GroupSpec::new();
        spec.add_member(NodeId(0), addr(9400), RegionId(0));
        assert_eq!(spec.addr_of(NodeId(9)), None);
        assert_eq!(spec.node_at(addr(9499)), None);
        assert_eq!(spec.region_of(NodeId(9)), None);
        // A region no member belongs to is simply empty, not an error.
        assert_eq!(spec.members_of(RegionId(7)).count(), 0);
    }

    #[test]
    #[should_panic(expected = "node is a member")]
    fn view_for_unknown_node_panics() {
        let mut spec = GroupSpec::new();
        spec.add_member(NodeId(0), addr(9500), RegionId(0));
        let _ = spec.view_for(NodeId(42));
    }

    #[test]
    fn view_for_with_empty_parent_region() {
        // A parent edge pointing at a region with no members yields an
        // empty — but present — parent view: the protocol sees the
        // hierarchy, just with nobody to ask remotely yet.
        let mut spec = GroupSpec::new();
        spec.add_member(NodeId(0), addr(9600), RegionId(1)).set_parent(RegionId(1), RegionId(0));
        let view = spec.view_for(NodeId(0));
        assert_eq!(view.own().len(), 1);
        let parent = view.parent().expect("parent edge declared");
        assert_eq!(parent.len(), 0);
    }

    #[test]
    fn empty_spec_reports_empty() {
        let spec = GroupSpec::new();
        assert!(spec.is_empty());
        assert_eq!(spec.len(), 0);
        assert_eq!(spec.members().len(), 0);
    }

    #[test]
    fn members_preserve_insertion_order() {
        // Fan-out and placement both iterate `members()`; insertion order
        // is part of the contract (deterministic wire order in tests).
        let mut spec = GroupSpec::new();
        spec.add_member(NodeId(5), addr(9700), RegionId(0))
            .add_member(NodeId(1), addr(9701), RegionId(0))
            .add_member(NodeId(3), addr(9702), RegionId(1));
        let ids: Vec<NodeId> = spec.members().iter().map(|m| m.node).collect();
        assert_eq!(ids, vec![NodeId(5), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn ids_are_sorted_once_and_follow_additions() {
        let mut spec = GroupSpec::new();
        spec.add_member(NodeId(5), addr(9800), RegionId(0)).add_member(
            NodeId(1),
            addr(9801),
            RegionId(0),
        );
        assert_eq!(&spec.ids()[..], [NodeId(1), NodeId(5)]);
        // Every receiver built from the spec shares one list.
        assert!(Arc::ptr_eq(spec.ids(), spec.ids()));
        spec.add_member(NodeId(3), addr(9802), RegionId(1));
        assert_eq!(&spec.ids()[..], [NodeId(1), NodeId(3), NodeId(5)]);
    }
}
