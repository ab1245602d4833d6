//! Network topology: nodes, regions, the error-recovery hierarchy, and
//! latency models.
//!
//! RRMP's system model (paper §2.1) groups receivers into *local regions*
//! organized into a hierarchy by distance from the sender: every region has
//! at most one *parent region* (its least upstream region), and the sender's
//! region is the root. [`Topology`] captures that structure plus a latency
//! model; it is shared by the simulator driver, the membership substrate,
//! and the experiment harness.

use crate::time::SimDuration;

/// Identifies a node (a group member). Dense indices starting at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

/// Identifies a region. Dense indices starting at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegionId(pub u16);

impl NodeId {
    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl RegionId {
    /// The dense index of this region.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A region in the error-recovery hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSpec {
    /// This region's id.
    pub id: RegionId,
    /// The parent (least upstream) region, or `None` for the root region.
    pub parent: Option<RegionId>,
    /// Members of the region, in ascending [`NodeId`] order.
    pub members: Vec<NodeId>,
}

/// Pairwise one-way latency model.
///
/// The paper's simulations use a constant 10 ms round-trip within a region
/// ([`LatencyModel::RegionBased`] with `intra_one_way` = 5 ms) and
/// substantially larger inter-region latencies.
#[derive(Debug, Clone, PartialEq)]
enum LatencyModel {
    /// One latency within a region, another between regions.
    RegionBased {
        /// One-way latency between two nodes in the same region.
        intra_one_way: SimDuration,
        /// One-way latency between nodes in different regions.
        inter_one_way: SimDuration,
    },
    /// Per-region-pair one-way latencies; entry `[i][j]` is the one-way
    /// latency from region `i` to region `j`. The diagonal holds the
    /// intra-region latency.
    Matrix {
        /// Row-major square matrix indexed by region.
        regions: Vec<Vec<SimDuration>>,
    },
}

impl LatencyModel {
    /// One-way latency from `from` to `to` given their regions.
    ///
    /// # Panics
    ///
    /// Panics if a [`LatencyModel::Matrix`] is missing an entry for the
    /// requested region pair.
    #[must_use]
    fn one_way(&self, from_region: RegionId, to_region: RegionId) -> SimDuration {
        match self {
            LatencyModel::RegionBased { intra_one_way, inter_one_way } => {
                if from_region == to_region {
                    *intra_one_way
                } else {
                    *inter_one_way
                }
            }
            LatencyModel::Matrix { regions } => regions[from_region.index()][to_region.index()],
        }
    }
}

/// Errors produced while building or validating a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A region was declared with zero members.
    EmptyRegion(RegionId),
    /// A parent reference points at an undeclared region.
    UnknownParent {
        /// The region with the dangling reference.
        region: RegionId,
        /// The referenced, undeclared parent.
        parent: RegionId,
    },
    /// The parent graph contains a cycle, so it is not a hierarchy.
    CyclicHierarchy(RegionId),
    /// The latency matrix does not cover every region pair.
    BadLatencyMatrix,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::EmptyRegion(r) => write!(f, "region {r} has no members"),
            TopologyError::UnknownParent { region, parent } => {
                write!(f, "region {region} references unknown parent {parent}")
            }
            TopologyError::CyclicHierarchy(r) => {
                write!(f, "parent chain starting at region {r} contains a cycle")
            }
            TopologyError::BadLatencyMatrix => {
                write!(f, "latency matrix does not cover every region pair")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A validated topology: regions, hierarchy, node→region mapping, latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    regions: Vec<RegionSpec>,
    node_region: Vec<RegionId>,
    latency: LatencyModel,
}

impl Topology {
    /// Builds a topology from regions and a latency model; the builder
    /// assigns dense [`NodeId`]s region by region.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if a region is empty, a parent reference
    /// dangles, the hierarchy is cyclic, or the latency matrix is malformed.
    fn new(regions: Vec<RegionSpec>, latency: LatencyModel) -> Result<Self, TopologyError> {
        let n_regions = regions.len();
        let mut node_region: Vec<(NodeId, RegionId)> = Vec::new();
        for spec in &regions {
            if spec.members.is_empty() {
                return Err(TopologyError::EmptyRegion(spec.id));
            }
            if let Some(parent) = spec.parent {
                if parent.index() >= n_regions {
                    return Err(TopologyError::UnknownParent { region: spec.id, parent });
                }
            }
            for &m in &spec.members {
                node_region.push((m, spec.id));
            }
        }
        // Detect cycles by walking each parent chain with a step budget.
        for spec in &regions {
            let mut hops = 0usize;
            let mut cur = spec.parent;
            while let Some(p) = cur {
                hops += 1;
                if hops > n_regions {
                    return Err(TopologyError::CyclicHierarchy(spec.id));
                }
                cur = regions[p.index()].parent;
            }
        }
        if let LatencyModel::Matrix { regions: m } = &latency {
            if m.len() != n_regions || m.iter().any(|row| row.len() != n_regions) {
                return Err(TopologyError::BadLatencyMatrix);
            }
        }
        node_region.sort_by_key(|(n, _)| *n);
        debug_assert!(
            node_region.windows(2).all(|w| w[0].0 .0 + 1 == w[1].0 .0),
            "node ids must be dense"
        );
        let node_region = node_region.into_iter().map(|(_, r)| r).collect();
        Ok(Topology { regions, node_region, latency })
    }

    /// Number of nodes in the whole group.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_region.len()
    }

    /// Number of regions.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// All regions, in id order.
    pub fn regions(&self) -> impl Iterator<Item = &RegionSpec> + '_ {
        self.regions.iter()
    }

    /// The region `node` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn region_of(&self, node: NodeId) -> RegionId {
        self.node_region[node.index()]
    }

    /// The members of `region`, in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    #[must_use]
    pub fn members_of(&self, region: RegionId) -> &[NodeId] {
        &self.regions[region.index()].members
    }

    /// The parent region of `region` in the error-recovery hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    #[must_use]
    pub fn parent_of(&self, region: RegionId) -> Option<RegionId> {
        self.regions[region.index()].parent
    }

    /// One-way latency from node `from` to node `to`.
    #[must_use]
    pub fn one_way_latency(&self, from: NodeId, to: NodeId) -> SimDuration {
        self.latency.one_way(self.region_of(from), self.region_of(to))
    }

    /// Round-trip latency between `a` and `b`.
    #[must_use]
    pub fn rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.one_way_latency(a, b) + self.one_way_latency(b, a)
    }

    /// The conservative-parallelism **lookahead**: the minimum one-way
    /// latency between any two *distinct* regions, or `None` for a
    /// single-region topology (which has no inter-region traffic at all).
    ///
    /// This is the window length of the sharded simulator
    /// ([`crate::shard::ShardedSim`]): a shard that has processed every
    /// event before `t + lookahead` cannot receive a cross-region packet
    /// earlier than that, so shards may advance through `[t, t+lookahead)`
    /// without synchronizing.
    #[must_use]
    pub fn lookahead(&self) -> Option<SimDuration> {
        if self.region_count() <= 1 {
            return None;
        }
        match &self.latency {
            LatencyModel::RegionBased { inter_one_way, .. } => Some(*inter_one_way),
            LatencyModel::Matrix { regions } => regions
                .iter()
                .enumerate()
                .flat_map(|(i, row)| {
                    row.iter().enumerate().filter(move |(j, _)| *j != i).map(|(_, d)| *d)
                })
                .min(),
        }
    }
}

/// Incremental builder for [`Topology`].
///
/// ```
/// use rrmp_netsim::topology::TopologyBuilder;
/// use rrmp_netsim::time::SimDuration;
///
/// // Three regions as in Figure 1 of the paper: region 0 (the sender's)
/// // is the parent of regions 1 and 2.
/// let topo = TopologyBuilder::new()
///     .intra_region_one_way(SimDuration::from_millis(5))
///     .inter_region_one_way(SimDuration::from_millis(25))
///     .region(4, None)
///     .region(4, Some(0))
///     .region(4, Some(0))
///     .build()?;
/// assert_eq!(topo.node_count(), 12);
/// # Ok::<(), rrmp_netsim::topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    sizes: Vec<(usize, Option<usize>)>,
    intra: SimDuration,
    inter: SimDuration,
    matrix: Option<Vec<Vec<SimDuration>>>,
}

impl TopologyBuilder {
    /// Starts a builder with the paper's default latencies: 5 ms one-way
    /// within a region (10 ms RTT) and 25 ms one-way between regions.
    #[must_use]
    pub fn new() -> Self {
        TopologyBuilder {
            sizes: Vec::new(),
            intra: SimDuration::from_millis(5),
            inter: SimDuration::from_millis(25),
            matrix: None,
        }
    }

    /// Sets the one-way intra-region latency.
    #[must_use]
    pub fn intra_region_one_way(mut self, d: SimDuration) -> Self {
        self.intra = d;
        self
    }

    /// Sets the one-way inter-region latency.
    #[must_use]
    pub fn inter_region_one_way(mut self, d: SimDuration) -> Self {
        self.inter = d;
        self
    }

    /// Uses an explicit per-region-pair latency matrix instead of the
    /// intra/inter pair.
    #[must_use]
    pub fn latency_matrix(mut self, matrix: Vec<Vec<SimDuration>>) -> Self {
        self.matrix = Some(matrix);
        self
    }

    /// Appends a region with `size` members whose parent is the
    /// `parent`-th declared region (`None` for the root).
    #[must_use]
    pub fn region(mut self, size: usize, parent: Option<usize>) -> Self {
        self.sizes.push((size, parent));
        self
    }

    /// Builds the topology, assigning dense node ids region by region.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if validation fails (empty region,
    /// dangling parent, cyclic hierarchy, malformed matrix).
    pub fn build(self) -> Result<Topology, TopologyError> {
        let mut regions = Vec::with_capacity(self.sizes.len());
        let mut next_node = 0u32;
        for (idx, (size, parent)) in self.sizes.iter().enumerate() {
            let members = (0..*size)
                .map(|_| {
                    let id = NodeId(next_node);
                    next_node += 1;
                    id
                })
                .collect();
            regions.push(RegionSpec {
                id: RegionId(idx as u16),
                parent: parent.map(|p| RegionId(p as u16)),
                members,
            });
        }
        let latency = match self.matrix {
            Some(m) => LatencyModel::Matrix { regions: m },
            None => {
                LatencyModel::RegionBased { intra_one_way: self.intra, inter_one_way: self.inter }
            }
        };
        Topology::new(regions, latency)
    }
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience constructors matching the paper's experimental setups.
pub mod presets {
    use super::*;

    /// A single region with `n` members and the paper's §4 parameters:
    /// 10 ms round-trip between any two members (5 ms one-way).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn paper_region(n: usize) -> Topology {
        TopologyBuilder::new()
            .intra_region_one_way(SimDuration::from_millis(5))
            .region(n, None)
            .build()
            .expect("a non-empty single region is always valid")
    }

    /// The three-region hierarchy of the paper's Figure 1: the sender's
    /// region 0 is the parent of region 1; region 1 is the parent of
    /// region 2.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero.
    #[must_use]
    pub fn figure1_chain(sizes: [usize; 3], inter_one_way: SimDuration) -> Topology {
        TopologyBuilder::new()
            .inter_region_one_way(inter_one_way)
            .region(sizes[0], None)
            .region(sizes[1], Some(0))
            .region(sizes[2], Some(1))
            .build()
            .expect("non-empty chain hierarchy is always valid")
    }

    /// A balanced tree of regions: the root region plus `fanout` children
    /// per region for `depth` levels, each with `region_size` members.
    ///
    /// # Panics
    ///
    /// Panics if `region_size` is zero.
    #[must_use]
    pub fn region_tree(
        region_size: usize,
        fanout: usize,
        depth: usize,
        inter_one_way: SimDuration,
    ) -> Topology {
        let mut builder = TopologyBuilder::new().inter_region_one_way(inter_one_way);
        builder = builder.region(region_size, None);
        let mut frontier = vec![0usize];
        let mut next_idx = 1usize;
        for _ in 0..depth {
            let mut next_frontier = Vec::new();
            for &parent in &frontier {
                for _ in 0..fanout {
                    builder = builder.region(region_size, Some(parent));
                    next_frontier.push(next_idx);
                    next_idx += 1;
                }
            }
            frontier = next_frontier;
        }
        builder.build().expect("non-empty tree hierarchy is always valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let topo = TopologyBuilder::new().region(3, None).region(2, Some(0)).build().unwrap();
        assert_eq!(topo.node_count(), 5);
        assert_eq!(topo.region_count(), 2);
        assert_eq!(topo.members_of(RegionId(0)), &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(topo.members_of(RegionId(1)), &[NodeId(3), NodeId(4)]);
        assert_eq!(topo.region_of(NodeId(4)), RegionId(1));
        assert_eq!(topo.parent_of(RegionId(1)), Some(RegionId(0)));
        assert_eq!(topo.parent_of(RegionId(0)), None);
    }

    #[test]
    fn latency_region_based() {
        let topo = TopologyBuilder::new()
            .intra_region_one_way(SimDuration::from_millis(5))
            .inter_region_one_way(SimDuration::from_millis(30))
            .region(2, None)
            .region(2, Some(0))
            .build()
            .unwrap();
        assert_eq!(topo.one_way_latency(NodeId(0), NodeId(1)), SimDuration::from_millis(5));
        assert_eq!(topo.one_way_latency(NodeId(0), NodeId(2)), SimDuration::from_millis(30));
        assert_eq!(topo.rtt(NodeId(0), NodeId(1)), SimDuration::from_millis(10));
        assert_eq!(topo.rtt(NodeId(1), NodeId(3)), SimDuration::from_millis(60));
    }

    #[test]
    fn latency_matrix() {
        let ms = SimDuration::from_millis;
        let topo = TopologyBuilder::new()
            .latency_matrix(vec![vec![ms(5), ms(20)], vec![ms(40), ms(5)]])
            .region(1, None)
            .region(1, Some(0))
            .build()
            .unwrap();
        assert_eq!(topo.one_way_latency(NodeId(0), NodeId(1)), ms(20));
        assert_eq!(topo.one_way_latency(NodeId(1), NodeId(0)), ms(40));
        assert_eq!(topo.rtt(NodeId(0), NodeId(1)), ms(60));
    }

    #[test]
    fn rejects_empty_region() {
        let err = TopologyBuilder::new().region(0, None).build().unwrap_err();
        assert_eq!(err, TopologyError::EmptyRegion(RegionId(0)));
    }

    #[test]
    fn rejects_dangling_parent() {
        let err = TopologyBuilder::new().region(1, Some(5)).build().unwrap_err();
        assert!(matches!(err, TopologyError::UnknownParent { .. }));
    }

    #[test]
    fn rejects_cycle() {
        // Hand-build a cyclic hierarchy: r0 -> r1 -> r0.
        let regions = vec![
            RegionSpec { id: RegionId(0), parent: Some(RegionId(1)), members: vec![NodeId(0)] },
            RegionSpec { id: RegionId(1), parent: Some(RegionId(0)), members: vec![NodeId(1)] },
        ];
        let latency = LatencyModel::RegionBased {
            intra_one_way: SimDuration::from_millis(1),
            inter_one_way: SimDuration::from_millis(1),
        };
        let err = Topology::new(regions, latency).unwrap_err();
        assert!(matches!(err, TopologyError::CyclicHierarchy(_)));
    }

    #[test]
    fn rejects_bad_matrix() {
        let err = TopologyBuilder::new()
            .latency_matrix(vec![vec![SimDuration::from_millis(5)]])
            .region(1, None)
            .region(1, Some(0))
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::BadLatencyMatrix);
    }

    #[test]
    fn preset_paper_region() {
        let topo = presets::paper_region(100);
        assert_eq!(topo.node_count(), 100);
        assert_eq!(topo.rtt(NodeId(0), NodeId(99)), SimDuration::from_millis(10));
    }

    #[test]
    fn preset_figure1_chain() {
        let topo = presets::figure1_chain([3, 4, 5], SimDuration::from_millis(25));
        assert_eq!(topo.region_count(), 3);
        assert_eq!(topo.parent_of(RegionId(2)), Some(RegionId(1)));
        assert_eq!(topo.node_count(), 12);
    }

    #[test]
    fn preset_region_tree() {
        let topo = presets::region_tree(10, 2, 2, SimDuration::from_millis(25));
        // 1 root + 2 children + 4 grandchildren = 7 regions.
        assert_eq!(topo.region_count(), 7);
        assert_eq!(topo.node_count(), 70);
        // Every non-root region has a parent.
        let orphans = topo.regions().filter(|r| r.parent.is_none()).count();
        assert_eq!(orphans, 1);
    }

    #[test]
    fn lookahead_is_min_inter_region_latency() {
        // Single region: no inter-region traffic, no lookahead.
        assert_eq!(presets::paper_region(4).lookahead(), None);
        // Region-based: the inter-region latency.
        let topo = TopologyBuilder::new()
            .inter_region_one_way(SimDuration::from_millis(25))
            .region(2, None)
            .region(2, Some(0))
            .build()
            .unwrap();
        assert_eq!(topo.lookahead(), Some(SimDuration::from_millis(25)));
        // Matrix: the minimum off-diagonal entry (diagonals excluded).
        let ms = SimDuration::from_millis;
        let topo = TopologyBuilder::new()
            .latency_matrix(vec![
                vec![ms(1), ms(30), ms(40)],
                vec![ms(12), ms(1), ms(50)],
                vec![ms(60), ms(70), ms(1)],
            ])
            .region(1, None)
            .region(1, Some(0))
            .region(1, Some(0))
            .build()
            .unwrap();
        assert_eq!(topo.lookahead(), Some(ms(12)));
    }

    #[test]
    fn error_display_nonempty() {
        let e = TopologyError::EmptyRegion(RegionId(3));
        assert!(!format!("{e}").is_empty());
    }
}
