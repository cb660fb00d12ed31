//! The harness's commit bookkeeping: a dense index from the run's
//! submissions to the instants each node first committed them.
//!
//! Every commit record of every validator passes through here
//! (170 000 per paper-scale cell), so the index is built for point
//! lookups only. The submissions are known before the run starts:
//! their ids go once into a [`TxIndex`], and the first-commit instants
//! live in a flat `transaction × node` table read by index.

use stabl_sim::{NodeId, Protocol, SimTime, Simulation};
use stabl_types::{TxId, TxIndex};

/// "No commit yet". No run reaches this instant: a horizon is finite.
const NEVER: SimTime = SimTime::MAX;

/// First-commit instants of the run's transactions, per node.
#[derive(Clone, Debug)]
pub(crate) struct CommitIndex {
    n: usize,
    /// The distinct submitted ids, numbered densely.
    ids: TxIndex,
    /// The entry of each submission (resubmissions of one transaction
    /// share an entry, as they shared a map key).
    entry_of: Vec<u32>,
    /// `entry × node` first-commit instants, [`NEVER`] where none.
    first: Vec<SimTime>,
    /// Per entry, the first commit recorded at any node — the
    /// consensus/delivery stage boundary.
    earliest: Vec<SimTime>,
    /// The latest commit seen anywhere, submitted id or not.
    last: SimTime,
}

impl CommitIndex {
    /// Indexes the ids of the run's submissions, in submission order,
    /// for a network of `n` nodes.
    pub(crate) fn new(submitted: impl ExactSizeIterator<Item = TxId>, n: usize) -> CommitIndex {
        let mut ids = TxIndex::with_capacity(submitted.len());
        let entry_of = submitted.map(|id| ids.insert(id).0).collect();
        CommitIndex {
            n,
            entry_of,
            first: vec![NEVER; ids.len() * n],
            earliest: vec![NEVER; ids.len()],
            ids,
            last: SimTime::ZERO,
        }
    }

    /// Notes that `node` committed `id` at `time`. Only the first
    /// commit per (node, transaction) counts; commits of ids nobody
    /// submitted only advance [`CommitIndex::last_commit`].
    #[inline]
    pub(crate) fn record(&mut self, node: NodeId, id: TxId, time: SimTime) {
        self.last = self.last.max(time);
        let Some(entry) = self.ids.get(id) else {
            return;
        };
        assert!(
            node.index() < self.n,
            "commit from a node outside the network"
        );
        let first = &mut self.first[entry as usize * self.n + node.index()];
        if *first == NEVER {
            *first = time;
        }
        // Commits drain in kernel time order, so the first one recorded
        // is the earliest.
        let earliest = &mut self.earliest[entry as usize];
        if *earliest == NEVER {
            *earliest = time;
        }
    }

    /// Moves the simulation's freshly recorded commits into the index.
    pub(crate) fn drain<P: Protocol<Commit = TxId>>(&mut self, sim: &mut Simulation<P>) {
        for record in sim.take_commits() {
            self.record(record.node, record.commit, record.time);
        }
    }

    /// The instant at which the client of submission `submission`, with
    /// observations from `contacted` (minus withholding Byzantine RPC
    /// nodes), collects its `quorum`-th commit confirmation, if it has.
    pub(crate) fn resolution(
        &self,
        submission: usize,
        contacted: &[NodeId],
        byzantine_rpc: &[NodeId],
        quorum: usize,
    ) -> Option<SimTime> {
        let row = self.entry_of[submission] as usize * self.n;
        let mut observed: Vec<SimTime> = contacted
            .iter()
            .filter(|node| !byzantine_rpc.contains(node))
            .map(|node| self.first[row + node.index()])
            .filter(|time| *time != NEVER)
            .collect();
        if observed.len() < quorum {
            return None;
        }
        observed.sort_unstable();
        Some(observed[quorum - 1])
    }

    /// The first commit of submission `submission`'s transaction at any
    /// node.
    pub(crate) fn earliest_commit(&self, submission: usize) -> Option<SimTime> {
        let earliest = self.earliest[self.entry_of[submission] as usize];
        (earliest != NEVER).then_some(earliest)
    }

    /// The latest commit recorded at any node.
    pub(crate) fn last_commit(&self) -> SimTime {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use stabl_types::{AccountId, Transaction};

    use super::*;

    /// The bookkeeping the dense index replaced — two ordered maps keyed
    /// by digest — kept as the reference model it is checked against.
    #[derive(Default)]
    struct ReferenceCommits {
        first_commit: BTreeMap<(u32, TxId), SimTime>,
        earliest_commit: BTreeMap<TxId, SimTime>,
        last_commit: SimTime,
    }

    impl ReferenceCommits {
        fn record(&mut self, node: NodeId, id: TxId, time: SimTime) {
            self.first_commit.entry((node.as_u32(), id)).or_insert(time);
            self.earliest_commit.entry(id).or_insert(time);
            self.last_commit = self.last_commit.max(time);
        }

        fn resolution(
            &self,
            contacted: &[NodeId],
            byzantine_rpc: &[NodeId],
            id: TxId,
            quorum: usize,
        ) -> Option<SimTime> {
            let mut observed: Vec<SimTime> = contacted
                .iter()
                .filter(|node| !byzantine_rpc.contains(node))
                .filter_map(|node| self.first_commit.get(&(node.as_u32(), id)).copied())
                .collect();
            if observed.len() < quorum {
                return None;
            }
            observed.sort_unstable();
            Some(observed[quorum - 1])
        }
    }

    fn id(k: u32) -> TxId {
        Transaction::transfer(AccountId::new(k), 0, AccountId::new(99), 1).id()
    }

    #[test]
    fn resubmissions_of_one_transaction_share_their_commits() {
        let mut index = CommitIndex::new([id(0), id(1), id(0)].into_iter(), 2);
        index.record(NodeId::new(1), id(0), SimTime::from_secs(3));
        let contacted = [NodeId::new(1)];
        for submission in [0, 2] {
            assert_eq!(
                index.resolution(submission, &contacted, &[], 1),
                Some(SimTime::from_secs(3))
            );
            assert_eq!(
                index.earliest_commit(submission),
                Some(SimTime::from_secs(3))
            );
        }
        assert_eq!(index.resolution(1, &contacted, &[], 1), None);
        assert_eq!(index.earliest_commit(1), None);
    }

    #[test]
    fn an_empty_run_indexes_nothing() {
        let mut index = CommitIndex::new(std::iter::empty(), 4);
        index.record(NodeId::new(0), id(7), SimTime::from_secs(1));
        assert_eq!(index.last_commit(), SimTime::from_secs(1));
    }

    const NODES: u32 = 6;

    proptest! {
        /// On random commit streams — duplicate commits, ids nobody
        /// submitted, submissions sharing an id — the dense index
        /// answers every query the harness makes exactly as the two
        /// maps did, for every quorum, with Byzantine-RPC nodes
        /// filtered and `contacted` growing the way retries grow it.
        #[test]
        fn dense_index_matches_the_two_map_model(
            // Submission k carries id(k % distinct): repeats share ids.
            (submissions, distinct) in (0usize..40, 1u32..24),
            // (node, id key — beyond `distinct` is never submitted, time)
            stream in proptest::collection::vec((0u32..NODES, 0u32..32, 0u64..50), 0..200),
            byzantine_rpc in proptest::collection::vec(0u32..NODES, 0..3),
            contacted in proptest::collection::vec(0u32..NODES, 0..8),
        ) {
            let ids: Vec<TxId> = (0..submissions as u32).map(|k| id(k % distinct)).collect();
            let mut index = CommitIndex::new(ids.iter().copied(), NODES as usize);
            let mut model = ReferenceCommits::default();
            let byzantine_rpc: Vec<NodeId> = byzantine_rpc.into_iter().map(NodeId::new).collect();
            // Commits drain in time order.
            let mut stream = stream;
            stream.sort_by_key(|(_, _, time)| *time);
            for (step, (node, key, time)) in stream.into_iter().enumerate() {
                let time = SimTime::from_micros(time);
                index.record(NodeId::new(node), id(key), time);
                model.record(NodeId::new(node), id(key), time);
                prop_assert_eq!(index.last_commit(), model.last_commit);
                if step % 8 != 0 {
                    continue;
                }
                // A client's contact list grows one retry at a time.
                let mut grown: Vec<NodeId> = Vec::new();
                for node in contacted.iter().copied().map(NodeId::new) {
                    if !grown.contains(&node) {
                        grown.push(node);
                    }
                    for (submission, id) in ids.iter().enumerate() {
                        for quorum in 1..=4 {
                            prop_assert_eq!(
                                index.resolution(submission, &grown, &byzantine_rpc, quorum),
                                model.resolution(&grown, &byzantine_rpc, *id, quorum)
                            );
                        }
                        prop_assert_eq!(
                            index.earliest_commit(submission),
                            model.earliest_commit.get(id).copied()
                        );
                    }
                }
            }
        }
    }
}
