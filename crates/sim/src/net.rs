//! The simulated network: node identities, link latency and the rule
//! table of partitions and link faults.

use std::collections::BTreeSet;
use std::fmt;

use crate::{DetRng, DropCause, SimDuration};

/// Identifies a validator node in a simulation.
///
/// Node ids are dense indices `0..n`, which lets protocol implementations
/// index per-node tables directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node, usable to index per-node tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Iterates over all node ids of an `n`-node network.
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> {
        (0..n as u32).map(NodeId)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        NodeId(index)
    }
}

/// Link latency model: a base one-way delay plus uniform jitter.
///
/// The paper deploys its 15 VMs inside one Proxmox cluster, so a single
/// homogeneous model is faithful; geo-distributed profiles can be modelled
/// with a larger base and jitter.
///
/// # Examples
///
/// ```
/// use stabl_sim::{LatencyModel, SimDuration};
///
/// let lan = LatencyModel::new(SimDuration::from_millis(5), SimDuration::from_millis(5));
/// assert_eq!(lan.min_delay(), SimDuration::from_millis(5));
/// assert_eq!(lan.max_delay(), SimDuration::from_millis(10));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    base: SimDuration,
    jitter: SimDuration,
}

impl LatencyModel {
    /// Creates a model with one-way delay uniform in `[base, base + jitter]`.
    #[inline]
    pub const fn new(base: SimDuration, jitter: SimDuration) -> Self {
        LatencyModel { base, jitter }
    }

    /// A LAN-like profile (5–10 ms one way), matching the paper's cluster.
    pub const fn lan() -> Self {
        LatencyModel::new(SimDuration::from_millis(5), SimDuration::from_millis(5))
    }

    /// A WAN-like profile (40–120 ms one way) for geo-distributed studies.
    pub const fn wan() -> Self {
        LatencyModel::new(SimDuration::from_millis(40), SimDuration::from_millis(80))
    }

    /// The smallest possible one-way delay.
    pub fn min_delay(&self) -> SimDuration {
        self.base
    }

    /// The largest possible one-way delay.
    pub fn max_delay(&self) -> SimDuration {
        self.base + self.jitter
    }

    /// Samples a one-way delay.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        if self.jitter.is_zero() {
            self.base
        } else {
            self.base + rng.duration_between(SimDuration::ZERO, self.jitter)
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::lan()
    }
}

/// A region-based latency topology: every node lives in a region and
/// the one-way delay between two nodes is drawn from the latency model
/// of their region pair.
///
/// # Examples
///
/// ```
/// use stabl_sim::{LatencyModel, LatencyTopology, NodeId, SimDuration};
///
/// // Two regions: a LAN locally, an ocean in between.
/// let local = LatencyModel::lan();
/// let ocean = LatencyModel::new(SimDuration::from_millis(70), SimDuration::from_millis(30));
/// let topology = LatencyTopology::new(
///     vec![vec![local, ocean], vec![ocean, local]],
///     vec![0, 0, 1, 1],
/// );
/// assert_eq!(topology.model_for(NodeId::new(0), NodeId::new(1)), local);
/// assert_eq!(topology.model_for(NodeId::new(0), NodeId::new(3)), ocean);
/// ```
#[derive(Clone, Debug)]
pub struct LatencyTopology {
    matrix: Vec<Vec<LatencyModel>>,
    assignment: Vec<usize>,
}

impl LatencyTopology {
    /// Creates a topology from a square region-pair latency `matrix` and
    /// a node→region `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty or not square, or if an assignment
    /// references a missing region.
    pub fn new(matrix: Vec<Vec<LatencyModel>>, assignment: Vec<usize>) -> LatencyTopology {
        let regions = matrix.len();
        assert!(regions > 0, "topology needs at least one region");
        assert!(
            matrix.iter().all(|row| row.len() == regions),
            "latency matrix must be square"
        );
        assert!(
            assignment.iter().all(|r| *r < regions),
            "assignment references a missing region"
        );
        LatencyTopology { matrix, assignment }
    }

    /// A canned geo-distributed profile: `regions` regions with LAN
    /// latency inside a region and WAN latency between regions, nodes
    /// assigned round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is zero.
    pub fn geo(regions: usize, n: usize) -> LatencyTopology {
        assert!(regions > 0, "topology needs at least one region");
        let wan = LatencyModel::wan();
        let lan = LatencyModel::lan();
        let matrix = (0..regions)
            .map(|a| {
                (0..regions)
                    .map(|b| if a == b { lan } else { wan })
                    .collect()
            })
            .collect();
        let assignment = (0..n).map(|i| i % regions).collect();
        LatencyTopology::new(matrix, assignment)
    }

    /// The region of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` has no assignment.
    pub fn region_of(&self, node: NodeId) -> usize {
        self.assignment[node.index()]
    }

    /// The latency model governing packets from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if either node has no assignment.
    pub fn model_for(&self, from: NodeId, to: NodeId) -> LatencyModel {
        self.matrix[self.region_of(from)][self.region_of(to)]
    }

    /// Samples a one-way delay for a packet from `from` to `to`.
    #[inline]
    pub fn sample(&self, from: NodeId, to: NodeId, rng: &mut DetRng) -> SimDuration {
        self.model_for(from, to).sample(rng)
    }
}

/// A message-level fault rule on a set of directed links — the one
/// netfilter-like rule vocabulary of the network.
///
/// Each matching packet is independently dropped with probability
/// `drop_p`, duplicated with probability `dup_p` (the copy arrives
/// later, like a retransmit), or held back by an extra
/// uniformly-sampled delay with probability `reorder_p` — so packets
/// sent afterwards can overtake it, modelling UDP-style reordering on
/// an otherwise FIFO link. A rule with `drop_p = 1.0` is a *sever*:
/// traffic dies in one direction while the reverse direction stays up
/// (the half-open links real netfilter misconfigurations produce). A
/// partition is two severs, isolated → rest and rest → isolated
/// (see [`Simulation::schedule_partition`](crate::Simulation::schedule_partition)).
///
/// Rules match directionally: a packet from `a` to `b` matches if `a`
/// is in the source group (or the group is `None` = every node) and
/// `b` is in the destination group.
///
/// All randomness is drawn from the kernel's deterministic network RNG,
/// so runs stay bit-identical per seed.
///
/// # Examples
///
/// ```
/// use stabl_sim::{LinkFault, NodeId, SimDuration};
///
/// // 5 % loss on every link.
/// let lossy = LinkFault::all().with_drop(0.05);
/// assert!(lossy.matches(NodeId::new(0), NodeId::new(1)));
///
/// // node0 can talk to node1, but nothing flows back.
/// let half_open = LinkFault::sever([NodeId::new(1)], [NodeId::new(0)]);
/// assert!(half_open.matches(NodeId::new(1), NodeId::new(0)));
/// assert!(!half_open.matches(NodeId::new(0), NodeId::new(1)));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LinkFault {
    from: Option<BTreeSet<NodeId>>,
    to: Option<BTreeSet<NodeId>>,
    drop_p: f64,
    dup_p: f64,
    reorder_p: f64,
    reorder_extra: SimDuration,
}

impl LinkFault {
    /// A rule matching every directed link, with no effects until a
    /// `with_*` builder arms one.
    pub fn all() -> LinkFault {
        LinkFault {
            from: None,
            to: None,
            drop_p: 0.0,
            dup_p: 0.0,
            reorder_p: 0.0,
            reorder_extra: SimDuration::ZERO,
        }
    }

    /// A rule matching only packets from a node in `from` to a node in
    /// `to` (one direction).
    pub fn between<A, B>(from: A, to: B) -> LinkFault
    where
        A: IntoIterator<Item = NodeId>,
        B: IntoIterator<Item = NodeId>,
    {
        LinkFault {
            from: Some(from.into_iter().collect()),
            to: Some(to.into_iter().collect()),
            ..LinkFault::all()
        }
    }

    /// An asymmetric partition: every packet from `from` to `to` is
    /// dropped; the reverse direction is untouched.
    pub fn sever<A, B>(from: A, to: B) -> LinkFault
    where
        A: IntoIterator<Item = NodeId>,
        B: IntoIterator<Item = NodeId>,
    {
        LinkFault::between(from, to).with_drop(1.0)
    }

    /// Sets the per-packet drop probability.
    pub fn with_drop(mut self, p: f64) -> LinkFault {
        self.drop_p = p;
        self
    }

    /// Sets the per-packet duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> LinkFault {
        self.dup_p = p;
        self
    }

    /// Sets the per-packet reordering probability and the maximum extra
    /// delay a reordered packet is held back by (sampled uniformly in
    /// `[0, extra]`).
    pub fn with_reorder(mut self, p: f64, extra: SimDuration) -> LinkFault {
        self.reorder_p = p;
        self.reorder_extra = extra;
        self
    }

    /// The drop probability.
    pub fn drop_p(&self) -> f64 {
        self.drop_p
    }

    /// The duplication probability.
    pub fn dup_p(&self) -> f64 {
        self.dup_p
    }

    /// The reordering probability.
    pub fn reorder_p(&self) -> f64 {
        self.reorder_p
    }

    /// The maximum extra delay of a reordered packet.
    pub fn reorder_extra(&self) -> SimDuration {
        self.reorder_extra
    }

    /// The source group (`None` = every node).
    pub fn from_group(&self) -> Option<&BTreeSet<NodeId>> {
        self.from.as_ref()
    }

    /// The destination group (`None` = every node).
    pub fn to_group(&self) -> Option<&BTreeSet<NodeId>> {
        self.to.as_ref()
    }

    /// Rebuilds a rule from its serialised parts (used by the serde
    /// support; prefer the builders above).
    pub fn from_parts(
        from: Option<Vec<NodeId>>,
        to: Option<Vec<NodeId>>,
        drop_p: f64,
        dup_p: f64,
        reorder_p: f64,
        reorder_extra: SimDuration,
    ) -> LinkFault {
        LinkFault {
            from: from.map(|v| v.into_iter().collect()),
            to: to.map(|v| v.into_iter().collect()),
            drop_p,
            dup_p,
            reorder_p,
            reorder_extra,
        }
    }

    /// `true` if a packet from `from` to `to` matches this rule.
    pub fn matches(&self, from: NodeId, to: NodeId) -> bool {
        self.from.as_ref().is_none_or(|g| g.contains(&from))
            && self.to.as_ref().is_none_or(|g| g.contains(&to))
    }

    /// `true` if this rule deterministically kills matching packets
    /// (an asymmetric partition rather than probabilistic loss).
    pub fn is_total_drop(&self) -> bool {
        self.drop_p >= 1.0
    }
}

/// What the installed rules decided for one packet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct LinkVerdict {
    /// Why the packet is dropped before delivery, if it is.
    pub drop: Option<DropCause>,
    /// A duplicate copy is delivered as well.
    pub duplicate: bool,
    /// Extra hold-back delay (reordering); zero if none.
    pub extra: SimDuration,
}

/// A partition-tagged sever covers the link.
const PARTITIONED: u8 = 1;
/// A link-tagged sever covers the link.
const SEVERED: u8 = 2;
/// Some link-tagged rule covers the link, so a send folds the verdict.
const MATCHED: u8 = 4;

/// One installed rule: a [`LinkFault`] under its schedule handle and
/// the cause its drops are booked under.
#[derive(Clone, Debug)]
struct Rule {
    handle: u64,
    cause: DropCause,
    fault: LinkFault,
    /// The links `fault` matches, indexed `from * n + to`, so the
    /// per-packet fold indexes instead of walking node sets.
    links: Vec<bool>,
}

/// The network fabric of a simulation: latency, one list of
/// [`LinkFault`] rules in install order, and per-node slowdowns.
///
/// Every install or removal rebuilds a dense `n × n` table of rule
/// flags indexed `from * n + to`, so the send and delivery paths look
/// a link up once instead of walking the rules.
#[derive(Clone, Debug)]
pub struct Network {
    n: usize,
    latency: LatencyModel,
    topology: Option<LatencyTopology>,
    rules: Vec<Rule>,
    table: Vec<u8>,
    /// Extra delay added to every message a node sends (a slow but
    /// correct node: overloaded CPU, congested uplink).
    slowdowns: Vec<SimDuration>,
}

impl Network {
    /// Creates the fabric of an `n`-node network with the given latency
    /// model and no rules.
    pub fn new(n: usize, latency: LatencyModel) -> Self {
        Network {
            n,
            latency,
            topology: None,
            rules: Vec::new(),
            table: vec![0; n * n],
            slowdowns: vec![SimDuration::ZERO; n],
        }
    }

    /// The latency model in force (the uniform fallback when a
    /// topology is installed).
    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    /// Installs a region-based latency topology; per-pair models replace
    /// the uniform latency for every subsequent packet.
    pub fn set_topology(&mut self, topology: LatencyTopology) {
        self.topology = Some(topology);
    }

    /// The installed topology, if any.
    pub fn topology(&self) -> Option<&LatencyTopology> {
        self.topology.as_ref()
    }

    /// Installs `faults` under `handle`, their drops booked as `cause`.
    pub(crate) fn insert_rules<I>(&mut self, handle: u64, cause: DropCause, faults: I)
    where
        I: IntoIterator<Item = LinkFault>,
    {
        let n = self.n;
        self.rules.extend(faults.into_iter().map(|fault| {
            Rule {
                handle,
                cause,
                links: NodeId::all(n)
                    .flat_map(|from| NodeId::all(n).map(move |to| (from, to)))
                    .map(|(from, to)| fault.matches(from, to))
                    .collect(),
                fault,
            }
        }));
        self.rebuild();
    }

    /// Removes every rule installed under `handle`; returns their cause,
    /// or `None` if there were none.
    pub(crate) fn lift_rules(&mut self, handle: u64) -> Option<DropCause> {
        let cause = self.rules.iter().find(|r| r.handle == handle)?.cause;
        self.rules.retain(|r| r.handle != handle);
        self.rebuild();
        Some(cause)
    }

    fn rebuild(&mut self) {
        self.table.fill(0);
        for rule in &self.rules {
            let flags = match rule.cause {
                DropCause::Partition => PARTITIONED,
                DropCause::LinkFault | DropCause::DeadNode if rule.fault.is_total_drop() => {
                    SEVERED | MATCHED
                }
                DropCause::LinkFault | DropCause::DeadNode => MATCHED,
            };
            for (cell, &hit) in self.table.iter_mut().zip(&rule.links) {
                if hit {
                    *cell |= flags;
                }
            }
        }
    }

    fn link(&self, from: NodeId, to: NodeId) -> usize {
        from.index() * self.n + to.index()
    }

    /// Number of installed rules (a partition is two severs).
    pub fn active_rules(&self) -> usize {
        self.rules.len()
    }

    /// Why every packet from `from` to `to` dies right now, if one does:
    /// a partition, else a link-tagged sever. Probabilistic rules are
    /// decided per packet when it is sent.
    #[inline]
    pub(crate) fn severed(&self, from: NodeId, to: NodeId) -> Option<DropCause> {
        let flags = self.table[self.link(from, to)];
        if flags & PARTITIONED != 0 {
            Some(DropCause::Partition)
        } else if flags & SEVERED != 0 {
            Some(DropCause::LinkFault)
        } else {
            None
        }
    }

    /// Decides the fate of one packet. A partition drops it without
    /// touching `rng`; otherwise every link rule covering the link folds
    /// in install order, drawing from `rng` only for the probabilities
    /// it arms (so fault-free runs consume no extra randomness). Any
    /// drop wins, any duplication duplicates, reorder delays add up.
    pub(crate) fn verdict(&self, from: NodeId, to: NodeId, rng: &mut DetRng) -> LinkVerdict {
        let mut verdict = LinkVerdict::default();
        let link = self.link(from, to);
        let flags = self.table[link];
        if flags & PARTITIONED != 0 {
            verdict.drop = Some(DropCause::Partition);
            return verdict;
        }
        if flags & MATCHED == 0 {
            return verdict;
        }
        // Partition rules cover only PARTITIONED links, so the fold sees
        // link rules only.
        for rule in self.rules.iter().filter(|r| r.links[link]) {
            let fault = &rule.fault;
            if fault.drop_p > 0.0 && (fault.is_total_drop() || rng.chance(fault.drop_p)) {
                verdict.drop = Some(DropCause::LinkFault);
            }
            if fault.dup_p > 0.0 && rng.chance(fault.dup_p) {
                verdict.duplicate = true;
            }
            if fault.reorder_p > 0.0
                && !fault.reorder_extra.is_zero()
                && rng.chance(fault.reorder_p)
            {
                verdict.extra += rng.duration_between(SimDuration::ZERO, fault.reorder_extra);
            }
        }
        if verdict.drop.is_some() {
            // A dropped packet is neither duplicated nor delayed.
            verdict.duplicate = false;
            verdict.extra = SimDuration::ZERO;
        }
        verdict
    }

    /// Samples a one-way delay for a packet from `from` to `to`.
    #[inline]
    pub fn sample_delay(&self, from: NodeId, to: NodeId, rng: &mut DetRng) -> SimDuration {
        match &self.topology {
            Some(topology) => topology.sample(from, to, rng),
            None => self.latency.sample(rng),
        }
    }

    /// Slows `node` down: every message it sends is delayed by `extra`
    /// on top of the link latency. `SimDuration::ZERO` removes the
    /// slowdown.
    pub fn set_slowdown(&mut self, node: NodeId, extra: SimDuration) {
        if let Some(slot) = self.slowdowns.get_mut(node.index()) {
            *slot = extra;
        }
    }

    /// The extra outbound delay of `node` (zero if not slowed).
    #[inline]
    pub fn slowdown(&self, node: NodeId) -> SimDuration {
        self.slowdowns
            .get(node.index())
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId::new).collect()
    }

    fn net(n: usize) -> Network {
        Network::new(n, LatencyModel::lan())
    }

    /// Installs the two severs of a partition isolating `node`.
    fn isolate(net: &mut Network, handle: u64, node: u32) {
        let rest: Vec<NodeId> = NodeId::all(net.n)
            .filter(|id| id.as_u32() != node)
            .collect();
        let faults = [
            LinkFault::sever(ids(&[node]), rest.clone()),
            LinkFault::sever(rest, ids(&[node])),
        ];
        net.insert_rules(handle, DropCause::Partition, faults);
    }

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.as_u32(), 7);
        assert_eq!(id.to_string(), "node7");
        assert_eq!(NodeId::all(3).count(), 3);
    }

    #[test]
    fn latency_sample_within_bounds() {
        let model = LatencyModel::new(SimDuration::from_millis(10), SimDuration::from_millis(20));
        let mut rng = DetRng::new(1);
        for _ in 0..500 {
            let d = model.sample(&mut rng);
            assert!(d >= model.min_delay() && d <= model.max_delay());
        }
    }

    #[test]
    fn zero_jitter_is_constant() {
        let model = LatencyModel::new(SimDuration::from_millis(10), SimDuration::ZERO);
        let mut rng = DetRng::new(2);
        assert_eq!(model.sample(&mut rng), SimDuration::from_millis(10));
    }

    #[test]
    fn topology_routes_by_region() {
        let lan = LatencyModel::lan();
        let wan = LatencyModel::wan();
        let topology = LatencyTopology::new(vec![vec![lan, wan], vec![wan, lan]], vec![0, 1, 0, 1]);
        assert_eq!(topology.region_of(NodeId::new(2)), 0);
        assert_eq!(topology.model_for(NodeId::new(0), NodeId::new(2)), lan);
        assert_eq!(topology.model_for(NodeId::new(0), NodeId::new(1)), wan);
        let mut rng = DetRng::new(5);
        for _ in 0..100 {
            let d = topology.sample(NodeId::new(0), NodeId::new(1), &mut rng);
            assert!(d >= wan.min_delay() && d <= wan.max_delay());
        }
    }

    #[test]
    fn geo_profile_assigns_round_robin() {
        let topology = LatencyTopology::geo(3, 7);
        assert_eq!(topology.region_of(NodeId::new(0)), 0);
        assert_eq!(topology.region_of(NodeId::new(4)), 1);
        assert_eq!(topology.region_of(NodeId::new(6)), 0);
        assert_eq!(
            topology.model_for(NodeId::new(0), NodeId::new(3)),
            LatencyModel::lan(),
            "same region"
        );
        assert_eq!(
            topology.model_for(NodeId::new(0), NodeId::new(1)),
            LatencyModel::wan(),
            "cross region"
        );
    }

    #[test]
    #[should_panic(expected = "square")]
    fn ragged_matrix_rejected() {
        let lan = LatencyModel::lan();
        let _ = LatencyTopology::new(vec![vec![lan, lan], vec![lan]], vec![0]);
    }

    #[test]
    fn network_with_topology_samples_per_pair() {
        let mut net = net(4);
        net.set_topology(LatencyTopology::geo(2, 4));
        assert!(net.topology().is_some());
        let mut rng = DetRng::new(9);
        let near = net.sample_delay(NodeId::new(0), NodeId::new(2), &mut rng);
        assert!(near <= LatencyModel::lan().max_delay());
        let far = net.sample_delay(NodeId::new(0), NodeId::new(1), &mut rng);
        assert!(far >= LatencyModel::wan().min_delay());
    }

    #[test]
    fn slowdowns_set_and_clear() {
        let mut net = net(4);
        let node = NodeId::new(3);
        assert!(net.slowdown(node).is_zero());
        net.set_slowdown(node, SimDuration::from_millis(250));
        assert_eq!(net.slowdown(node), SimDuration::from_millis(250));
        net.set_slowdown(node, SimDuration::ZERO);
        assert!(net.slowdown(node).is_zero());
    }

    #[test]
    fn partition_severs_both_directions_until_lifted() {
        let mut net = net(10);
        let (a, b) = (NodeId::new(0), NodeId::new(5));
        assert_eq!(net.severed(a, b), None);
        isolate(&mut net, 7, 5);
        assert_eq!(net.severed(a, b), Some(DropCause::Partition));
        assert_eq!(net.severed(b, a), Some(DropCause::Partition));
        assert_eq!(net.severed(a, NodeId::new(1)), None, "the rest stays up");
        assert_eq!(net.active_rules(), 2, "a partition is two severs");
        assert_eq!(net.lift_rules(7), Some(DropCause::Partition));
        assert_eq!(net.severed(a, b), None);
        assert_eq!(net.lift_rules(7), None, "double remove reports absence");
    }

    #[test]
    fn link_fault_matches_directionally() {
        let fault = LinkFault::between(ids(&[0, 1]), ids(&[2]));
        assert!(fault.matches(NodeId::new(0), NodeId::new(2)));
        assert!(fault.matches(NodeId::new(1), NodeId::new(2)));
        assert!(!fault.matches(NodeId::new(2), NodeId::new(0)), "one-way");
        assert!(!fault.matches(NodeId::new(0), NodeId::new(1)));
        assert!(LinkFault::all().matches(NodeId::new(7), NodeId::new(9)));
    }

    #[test]
    fn sever_is_total_drop() {
        assert!(LinkFault::sever(ids(&[0]), ids(&[1])).is_total_drop());
        assert!(!LinkFault::all().with_drop(0.5).is_total_drop());
    }

    #[test]
    fn sever_cuts_one_direction_until_lifted() {
        let mut net = net(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        net.insert_rules(0, DropCause::LinkFault, [LinkFault::sever([a], [b])]);
        assert_eq!(net.severed(a, b), Some(DropCause::LinkFault));
        assert_eq!(net.severed(b, a), None, "reverse direction stays up");
        assert_eq!(net.active_rules(), 1);
        assert_eq!(net.lift_rules(0), Some(DropCause::LinkFault));
        assert_eq!(net.severed(a, b), None);
    }

    #[test]
    fn probabilistic_loss_is_not_severed() {
        let mut net = net(2);
        net.insert_rules(0, DropCause::LinkFault, [LinkFault::all().with_drop(0.99)]);
        assert_eq!(
            net.severed(NodeId::new(0), NodeId::new(1)),
            None,
            "only drop_p = 1.0 kills in-flight packets"
        );
    }

    #[test]
    fn partition_decides_first_and_draws_nothing() {
        let mut net = net(3);
        let lossy = LinkFault::all().with_drop(0.5).with_duplicate(0.5);
        net.insert_rules(0, DropCause::LinkFault, [lossy]);
        isolate(&mut net, 1, 2);
        let mut rng = DetRng::new(4);
        let before = rng.clone();
        let verdict = net.verdict(NodeId::new(0), NodeId::new(2), &mut rng);
        assert_eq!(verdict.drop, Some(DropCause::Partition));
        assert_eq!(rng, before, "a partitioned link draws no randomness");
        net.verdict(NodeId::new(0), NodeId::new(1), &mut rng);
        assert_ne!(rng, before, "the lossy rule still draws elsewhere");
    }

    #[test]
    fn verdict_respects_probabilities() {
        let mut net = net(2);
        net.insert_rules(0, DropCause::LinkFault, [LinkFault::all().with_drop(0.5)]);
        let mut rng = DetRng::new(11);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let verdicts: Vec<LinkVerdict> = (0..1_000).map(|_| net.verdict(a, b, &mut rng)).collect();
        let dropped = verdicts.iter().filter(|v| v.drop.is_some()).count();
        assert!((300..=700).contains(&dropped), "dropped = {dropped}");
        assert!(verdicts.iter().all(|v| !v.duplicate && v.extra.is_zero()));
    }

    #[test]
    fn dropped_packet_is_neither_duplicated_nor_delayed() {
        let mut net = net(2);
        let everything = LinkFault::all()
            .with_drop(1.0)
            .with_duplicate(1.0)
            .with_reorder(1.0, SimDuration::from_millis(100));
        net.insert_rules(0, DropCause::LinkFault, [everything]);
        let mut rng = DetRng::new(3);
        let verdict = net.verdict(NodeId::new(0), NodeId::new(1), &mut rng);
        assert_eq!(verdict.drop, Some(DropCause::LinkFault));
        assert!(!verdict.duplicate);
        assert!(verdict.extra.is_zero());
    }

    #[test]
    fn verdict_is_deterministic_per_seed() {
        let run = |seed| {
            let mut net = net(2);
            let fault = LinkFault::all()
                .with_drop(0.3)
                .with_duplicate(0.2)
                .with_reorder(0.4, SimDuration::from_millis(50));
            net.insert_rules(0, DropCause::LinkFault, [fault]);
            let mut rng = DetRng::new(seed);
            (0..200)
                .map(|_| net.verdict(NodeId::new(0), NodeId::new(1), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn overlapping_partitions_union() {
        let mut net = net(4);
        isolate(&mut net, 0, 1);
        isolate(&mut net, 1, 2);
        let (one, two, zero) = (NodeId::new(1), NodeId::new(2), NodeId::new(0));
        assert!(net.severed(one, zero).is_some());
        assert!(net.severed(two, zero).is_some());
        net.lift_rules(0);
        assert_eq!(net.severed(one, zero), None);
        assert!(net.severed(two, zero).is_some());
    }
}
