//! The validator's pending transactions and the stale subset it
//! re-gossips.
//!
//! A transaction is *pending* from the moment the pool accepts it until
//! a committed block carries its id (or the node restarts), and *stale*
//! once it has been pending longer than the configured age. The
//! re-gossip tick needs the stale set in id order, because it feeds a
//! seeded shuffle: any other order would change the draws' meaning and
//! so every result.
//!
//! Scanning every pending transaction on every tick costs O(pending)
//! per node per second, most of it on transactions far from stale. Two
//! facts make the stale set incremental instead:
//!
//! * arrival instants are non-decreasing in insertion order (simulated
//!   time never runs backwards), so the transactions that turned stale
//!   since the last tick are a prefix of the arrival log;
//! * staleness never reverts: a stale transaction leaves the set only by
//!   committing or by a restart.
//!
//! So each tick moves the log's stale prefix into an id-sorted vector,
//! skipping ids that committed meanwhile, and each committed block
//! drops its ids from that vector in one sorted pass.
//!
//! "Committed meanwhile" needs an id lookup, but no ordered set: the
//! arrivals are numbered in order by a [`TxIndex`] (one probe per
//! lookup), and a flag per number records a commit. A pending id is
//! never accepted twice — the pool rejects it as a duplicate while it
//! holds it and as stale once its nonce committed — so the `k`-th
//! arrival since the index was built is the log's entry `k` minus what
//! was promoted. Once promoted arrivals are most of the index, it is
//! rebuilt over the log alone; the stale vector answers for the ids it
//! forgot.

use std::collections::VecDeque;

use stabl_sim::{SimDuration, SimTime};
use stabl_types::{Transaction, TxId, TxIndex};

/// Below this many promoted arrivals the index is never rebuilt: small
/// indexes cost nothing to keep.
const REINDEX_MIN: usize = 1_024;

/// Pending transactions: their arrival log, the id-sorted stale subset
/// and the arrival numbering that tells which of them committed.
#[derive(Debug)]
pub(crate) struct PendingTxs {
    /// The ids of the log's entries and of the arrivals promoted since
    /// the index was built, numbered in arrival order.
    arrived: TxIndex,
    /// Per arrival number: a committed block carried the id.
    committed: Vec<bool>,
    /// Arrival numbers below this have left the log.
    promoted: usize,
    /// Accepted transactions not yet promoted, oldest first, with their
    /// arrival instants; the front one has number `promoted`.
    arrivals: VecDeque<(Transaction, SimTime)>,
    /// Pending transactions older than the stale age, sorted by id.
    stale: Vec<Transaction>,
    /// Log entries no committed block has carried: with `stale`, the
    /// pending transactions.
    live_arrivals: usize,
    /// The old whole-map bookkeeping, kept in step so every tick can be
    /// checked against a full scan.
    #[cfg(test)]
    pub(crate) reference: reference::ScanReference,
}

impl Default for PendingTxs {
    fn default() -> PendingTxs {
        PendingTxs {
            arrived: TxIndex::with_capacity(REINDEX_MIN),
            committed: Vec::new(),
            promoted: 0,
            arrivals: VecDeque::new(),
            stale: Vec::new(),
            live_arrivals: 0,
            #[cfg(test)]
            reference: reference::ScanReference::default(),
        }
    }
}

impl PendingTxs {
    /// Number of pending transactions.
    pub(crate) fn len(&self) -> usize {
        self.live_arrivals + self.stale.len()
    }

    /// Records a transaction the pool just accepted, arrived at `now`.
    pub(crate) fn insert(&mut self, tx: Transaction, now: SimTime) {
        let (_, new) = self.arrived.insert(tx.id());
        debug_assert!(new, "{tx} accepted twice since the last restart");
        self.committed.push(false);
        self.arrivals.push_back((tx, now));
        self.live_arrivals += 1;
        #[cfg(test)]
        self.reference.insert(tx, now);
    }

    /// Forgets every transaction of a committed block.
    pub(crate) fn commit(&mut self, txs: &[Transaction]) {
        let mut gone: Vec<TxId> = Vec::new();
        for tx in txs {
            let id = tx.id();
            match self.arrived.get(id).map(|number| number as usize) {
                Some(number) if !self.committed[number] => {
                    self.committed[number] = true;
                    if number < self.promoted {
                        gone.push(id);
                    } else {
                        self.live_arrivals -= 1;
                    }
                }
                Some(_) => {}
                // Promoted before the last rebuild, or never accepted:
                // pending exactly when the stale vector holds it.
                None => {
                    if self
                        .stale
                        .binary_search_by_key(&id, Transaction::id)
                        .is_ok()
                    {
                        gone.push(id);
                        #[cfg(test)]
                        {
                            self.reference.forgotten_commits += 1;
                        }
                    }
                }
            }
        }
        if !gone.is_empty() {
            // A block may carry an id twice; the stale vector holds it once.
            gone.sort_unstable();
            gone.dedup();
            let mut gone = gone.into_iter().peekable();
            self.stale
                .retain(|held| gone.next_if_eq(&held.id()).is_none());
        }
        #[cfg(test)]
        self.reference.commit(txs);
    }

    /// Drops everything (volatile restart).
    pub(crate) fn clear(&mut self) {
        self.arrived = TxIndex::with_capacity(REINDEX_MIN);
        self.committed.clear();
        self.promoted = 0;
        self.arrivals.clear();
        self.stale.clear();
        self.live_arrivals = 0;
        #[cfg(test)]
        self.reference.clear();
    }

    /// The pending transactions older than `stale_age` at `now`, sorted
    /// by id: promotes the arrival log's newly stale prefix first.
    pub(crate) fn stale(&mut self, now: SimTime, stale_age: SimDuration) -> &[Transaction] {
        let newly_stale = self
            .arrivals
            .partition_point(|(_, since)| now.saturating_since(*since) > stale_age);
        if newly_stale > 0 {
            let committed = &self.committed[self.promoted..];
            let before = self.stale.len();
            self.stale.extend(
                self.arrivals
                    .drain(..newly_stale)
                    .zip(committed)
                    .filter(|(_, committed)| !**committed)
                    .map(|((tx, _), _)| tx),
            );
            self.live_arrivals -= self.stale.len() - before;
            self.promoted += newly_stale;
            // A sorted run followed by the promoted tail: the stable
            // sort merges the two instead of sorting from scratch.
            self.stale.sort_by_key(Transaction::id);
            if self.promoted > REINDEX_MIN && self.promoted > self.arrivals.len() {
                self.reindex();
            }
        }
        #[cfg(test)]
        self.reference
            .check(now, stale_age, &self.stale, self.len());
        &self.stale
    }

    /// Renumbers the log from zero, forgetting the promoted arrivals.
    fn reindex(&mut self) {
        let mut arrived = TxIndex::with_capacity(self.arrivals.len().max(REINDEX_MIN));
        for (tx, _) in &self.arrivals {
            arrived.insert(tx.id());
        }
        self.arrived = arrived;
        self.committed.drain(..self.promoted);
        self.promoted = 0;
        #[cfg(test)]
        {
            self.reference.reindexes += 1;
        }
    }
}

#[cfg(test)]
pub(crate) mod reference {
    use std::collections::BTreeMap;

    use stabl_sim::{SimDuration, SimTime};
    use stabl_types::{Transaction, TxId};

    /// The node's pending map as it was before the incremental stale
    /// set — every pending transaction with its arrival instant, scanned
    /// whole on every re-gossip tick — plus counters of what the checks
    /// saw.
    #[derive(Debug, Default)]
    pub(crate) struct ScanReference {
        pending: BTreeMap<TxId, (Transaction, SimTime)>,
        /// Ticks checked.
        pub(crate) ticks: u64,
        /// Ticks that found at least one stale transaction.
        pub(crate) stale_ticks: u64,
        /// Committed transactions that were stale when their block
        /// committed.
        pub(crate) stale_commits: u64,
        /// Restarts seen.
        pub(crate) restarts: u64,
        /// Times the arrival index was rebuilt over the log.
        pub(crate) reindexes: u64,
        /// Stale transactions committed after a rebuild forgot their ids.
        pub(crate) forgotten_commits: u64,
        /// Transactions that were stale when a restart dropped them.
        pub(crate) stale_restarted: u64,
        /// The instant and stale age of the last checked tick.
        last_tick: Option<(SimTime, SimDuration)>,
    }

    impl ScanReference {
        pub(crate) fn insert(&mut self, tx: Transaction, now: SimTime) {
            self.pending.insert(tx.id(), (tx, now));
        }

        /// Whether a transaction that arrived at `since` was stale at
        /// the last checked tick.
        fn was_stale(&self, since: SimTime) -> bool {
            self.last_tick
                .is_some_and(|(now, stale_age)| now.saturating_since(since) > stale_age)
        }

        pub(crate) fn commit(&mut self, txs: &[Transaction]) {
            for tx in txs {
                if let Some((_, since)) = self.pending.remove(&tx.id()) {
                    self.stale_commits += u64::from(self.was_stale(since));
                }
            }
        }

        pub(crate) fn clear(&mut self) {
            let pending = std::mem::take(&mut self.pending);
            self.stale_restarted += pending
                .values()
                .filter(|(_, since)| self.was_stale(*since))
                .count() as u64;
            self.restarts += 1;
        }

        /// The old whole-map scan: every pending id older than
        /// `stale_age`, sorted.
        fn scan(&self, now: SimTime, stale_age: SimDuration) -> Vec<TxId> {
            let mut stale_ids: Vec<TxId> = self
                .pending
                .iter()
                .filter(|(_, (_, since))| now.saturating_since(*since) > stale_age)
                .map(|(id, _)| *id)
                .collect();
            stale_ids.sort_unstable();
            stale_ids
        }

        /// Asserts that the incremental stale vector is the scan's
        /// answer, transaction for transaction.
        pub(crate) fn check(
            &mut self,
            now: SimTime,
            stale_age: SimDuration,
            stale: &[Transaction],
            len: usize,
        ) {
            assert_eq!(len, self.pending.len(), "pending count at {now:?}");
            let expected = self.scan(now, stale_age);
            let got: Vec<TxId> = stale.iter().map(Transaction::id).collect();
            assert_eq!(got, expected, "stale set diverged from the scan at {now:?}");
            for tx in stale {
                assert_eq!(
                    self.pending[&tx.id()].0,
                    *tx,
                    "stale entry is the pending one"
                );
            }
            self.ticks += 1;
            self.stale_ticks += u64::from(!stale.is_empty());
            self.last_tick = Some((now, stale_age));
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use stabl_types::AccountId;

    use super::*;

    fn tx(k: u64) -> Transaction {
        Transaction::transfer(AccountId::new((k % 7) as u32), k, AccountId::new(99), 1)
    }

    const AGE: SimDuration = SimDuration::from_secs(5);

    #[test]
    fn stale_transactions_forgotten_by_a_rebuild_still_commit() {
        let mut pending = PendingTxs::default();
        let txs: Vec<Transaction> = (0..3_000).map(tx).collect();
        for (k, tx) in (0..).zip(&txs) {
            pending.insert(*tx, SimTime::from_millis(k));
        }
        // Everything turns stale at once, so the index is rebuilt over
        // an empty log and forgets all 3 000 ids.
        assert_eq!(pending.stale(SimTime::from_secs(10), AGE).len(), 3_000);
        assert_eq!(pending.reference.reindexes, 1);
        pending.commit(&txs[..1_000]);
        pending.commit(&txs[..10]);
        assert_eq!(pending.reference.forgotten_commits, 1_000);
        assert_eq!(pending.len(), 2_000);
        assert_eq!(pending.stale(SimTime::from_secs(11), AGE).len(), 2_000);
    }

    /// One step of the model-based test.
    #[derive(Clone, Debug)]
    enum Op {
        /// `count` fresh transactions arrive now.
        Arrive {
            count: u64,
        },
        /// Simulated time advances.
        Wait {
            millis: u64,
        },
        /// A re-gossip tick: `stale` checks itself against the scan.
        Tick,
        /// A block commits these transactions: the `p`-th newest
        /// arrival for each pick `p`, or one never accepted here when
        /// fewer than `p + 1` arrived.
        Commit {
            picks: Vec<u64>,
        },
        Restart,
    }

    fn op() -> impl Strategy<Value = Op> {
        (
            0u8..40,
            1u64..120,
            proptest::collection::vec(0u64..600, 0..40),
        )
            .prop_map(|(kind, amount, picks)| match kind {
                0..=13 => Op::Arrive { count: amount },
                14..=21 => Op::Wait {
                    millis: amount * 50,
                },
                22..=29 => Op::Tick,
                30..=38 => Op::Commit { picks },
                // Rare, so that arrivals pile up past an index rebuild.
                _ => Op::Restart,
            })
    }

    proptest! {
        /// The arrival log, the stale vector and the rebuilt index agree
        /// with the old whole-map scan at every tick (the check inside
        /// `stale`), and on the pending count, under random arrivals,
        /// commits, waits and restarts.
        #[test]
        fn incremental_set_matches_the_scan_under_random_histories(
            ops in proptest::collection::vec(op(), 0..200),
        ) {
            let mut pending = PendingTxs::default();
            let mut now = SimTime::ZERO;
            let mut created = 0u64;
            for op in ops {
                match op {
                    Op::Arrive { count } => {
                        for k in created..created + count {
                            pending.insert(tx(k), now);
                        }
                        created += count;
                    }
                    Op::Wait { millis } => now += SimDuration::from_millis(millis),
                    Op::Tick => {
                        pending.stale(now, AGE);
                    }
                    Op::Commit { picks } => {
                        let block: Vec<Transaction> = picks
                            .into_iter()
                            .map(|p| tx(created.checked_sub(p + 1).unwrap_or(u64::MAX - p)))
                            .collect();
                        pending.commit(&block);
                    }
                    Op::Restart => pending.clear(),
                }
            }
            pending.stale(now, AGE);
        }
    }
}
