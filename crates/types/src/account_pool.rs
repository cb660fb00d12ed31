//! A nonce-aware transaction pool.
//!
//! Production mempools (Aptos mempool, go-ethereum/coreth's `legacypool`)
//! track per-account sequence numbers: only *ready* transactions — whose
//! nonce chain is contiguous from the last committed nonce — are eligible
//! for a block proposal, while out-of-order arrivals park until the gap
//! fills. Proposals *copy* ready transactions; entries leave the pool
//! only when an account's committed nonce advances, so a failed proposal
//! needs no restore step.

use std::collections::{BTreeMap, VecDeque};

use stabl_sim::ContentionStats;

use crate::{AccountId, Transaction};

/// What the pool knows about one account.
#[derive(Clone, Debug, Default)]
struct AccountState {
    /// The next nonce the chain will commit; every pending nonce is at
    /// or above it.
    committed_next: u64,
    /// `true` once [`AccountPool::mark_committed`] named the account:
    /// the entry then mirrors durable chain state and outlives
    /// [`AccountPool::clear_pending`].
    durable: bool,
    /// The nonce window: pending transactions in strictly increasing
    /// nonce order. A transaction's id is a function of its content, so
    /// "this id is pending" is "the slot of its `(from, nonce)` holds
    /// this id" — no id index.
    pending: VecDeque<Transaction>,
}

impl AccountState {
    /// The contiguous run of pending transactions starting at the
    /// committed nonce.
    fn ready(&self) -> impl Iterator<Item = &Transaction> {
        self.pending
            .iter()
            .zip(self.committed_next..)
            .map_while(|(tx, expected)| (tx.nonce() == expected).then_some(tx))
    }

    /// Where `nonce` sits in the window: `Ok(i)` if `pending[i]` holds
    /// it, `Err(i)` for the position that keeps the window sorted.
    /// Appends and hits in a gap-free window cost O(1): the slot is
    /// `nonce − front.nonce`. Otherwise a binary search decides.
    fn slot(&self, nonce: u64) -> Result<usize, usize> {
        let len = self.pending.len();
        match (self.pending.front(), self.pending.back()) {
            (Some(front), Some(back)) if back.nonce() >= nonce => {
                let guess = nonce
                    .checked_sub(front.nonce())
                    .and_then(|d| usize::try_from(d).ok());
                match guess {
                    Some(i) if i < len && self.pending[i].nonce() == nonce => Ok(i),
                    _ => self
                        .pending
                        .binary_search_by_key(&nonce, Transaction::nonce),
                }
            }
            _ => Err(len),
        }
    }
}

/// A bounded, nonce-ordered transaction pool with per-account readiness
/// tracking.
///
/// # Examples
///
/// ```
/// use stabl_types::{AccountId, AccountPool, Transaction};
///
/// let mut pool = AccountPool::new(100);
/// let acct = AccountId::new(0);
/// let tx1 = Transaction::transfer(acct, 1, AccountId::new(9), 5);
/// pool.insert(tx1);
/// // Nonce 0 is missing, so nothing is ready yet.
/// assert!(pool.take_ready(10).is_empty());
/// let tx0 = Transaction::transfer(acct, 0, AccountId::new(9), 5);
/// pool.insert(tx0);
/// assert_eq!(pool.take_ready(10).len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct AccountPool {
    accounts: BTreeMap<AccountId, AccountState>,
    len: usize,
    capacity: usize,
    rejected_stale: u64,
    rejected_full: u64,
    rejected_conflict: u64,
}

impl AccountPool {
    /// Creates a pool holding at most `capacity` pending transactions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> AccountPool {
        assert!(capacity > 0, "pool capacity must be positive");
        AccountPool {
            capacity,
            ..AccountPool::default()
        }
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `tx`'s nonce is below the account's committed nonce —
    /// i.e. it (or a conflicting transaction) already committed.
    pub fn is_stale(&self, tx: &Transaction) -> bool {
        tx.nonce() < self.committed_nonce(tx.from())
    }

    /// The next nonce the pool believes `account` will commit.
    pub fn committed_nonce(&self, account: AccountId) -> u64 {
        self.accounts
            .get(&account)
            .map_or(0, |state| state.committed_next)
    }

    /// Inserts `tx`; returns `false` for stale transactions, duplicates
    /// and a full pool.
    pub fn insert(&mut self, tx: Transaction) -> bool {
        let full = self.len >= self.capacity;
        let Some(state) = self.accounts.get_mut(&tx.from()) else {
            if full {
                self.rejected_full += 1;
                return false;
            }
            let state = self.accounts.entry(tx.from()).or_default();
            state.pending.push_back(tx);
            self.len += 1;
            return true;
        };
        if tx.nonce() < state.committed_next {
            self.rejected_stale += 1;
            return false;
        }
        match state.slot(tx.nonce()) {
            Ok(held) if state.pending[held].id() == tx.id() => {
                self.rejected_stale += 1;
                false
            }
            _ if full => {
                self.rejected_full += 1;
                false
            }
            Ok(_) => {
                // A different transaction already occupies this nonce; first
                // arrival wins (like production pools without fee bumping).
                self.rejected_conflict += 1;
                false
            }
            Err(vacant) => {
                state.pending.insert(vacant, tx);
                self.len += 1;
                true
            }
        }
    }

    /// Copies up to `max` *ready* transactions: for every account, the
    /// contiguous nonce run starting at its committed nonce, drawn
    /// round-robin across accounts for fairness. The pool is unchanged —
    /// entries leave only through [`AccountPool::mark_committed`].
    pub fn take_ready(&self, max: usize) -> Vec<Transaction> {
        let mut runs: Vec<_> = self.accounts.values().map(AccountState::ready).collect();
        let mut out = Vec::with_capacity(max.min(self.len));
        while out.len() < max && !runs.is_empty() {
            // One round: the next transaction of every run still going.
            runs.retain_mut(|run| {
                if out.len() == max {
                    return true;
                }
                run.next().map(|tx| out.push(*tx)).is_some()
            });
        }
        out
    }

    /// All ready transactions of one account, up to `max` (used by
    /// protocol-specific selection policies such as Avalanche's
    /// randomised gossip).
    pub fn ready_for(&self, account: AccountId, max: usize) -> Vec<Transaction> {
        self.accounts
            .get(&account)
            .map(|state| state.ready().take(max).copied().collect())
            .unwrap_or_default()
    }

    /// The pool's *frontier*: for every account with state, the first
    /// nonce the node does **not** hold contiguously (committed nonce
    /// plus the ready run). Pull-gossip peers use this to compute which
    /// transactions the node is missing.
    pub fn frontier(&self) -> Vec<(AccountId, u64)> {
        self.accounts
            .iter()
            .map(|(account, state)| {
                (
                    *account,
                    state.committed_next + state.ready().count() as u64,
                )
            })
            .collect()
    }

    /// Transactions this pool holds that a peer with `frontier` is
    /// missing (nonce at or above the peer's frontier for that account),
    /// up to `max` — the pull-gossip response.
    pub fn missing_for(&self, frontier: &[(AccountId, u64)], max: usize) -> Vec<Transaction> {
        let mut out = Vec::new();
        for &(account, from_nonce) in frontier {
            if let Some(state) = self.accounts.get(&account) {
                let start = state.pending.partition_point(|tx| tx.nonce() < from_nonce);
                for tx in state.pending.range(start..) {
                    out.push(*tx);
                    if out.len() == max {
                        return out;
                    }
                }
            }
        }
        out
    }

    /// Accounts with at least one pending transaction, in id order.
    pub fn accounts(&self) -> Vec<AccountId> {
        self.accounts
            .iter()
            .filter(|(_, state)| !state.pending.is_empty())
            .map(|(account, _)| *account)
            .collect()
    }

    /// Advances `account`'s committed nonce to at least `next_nonce`,
    /// pruning every entry below it.
    pub fn mark_committed(&mut self, account: AccountId, next_nonce: u64) {
        let state = self.accounts.entry(account).or_default();
        state.durable = true;
        if next_nonce <= state.committed_next {
            return;
        }
        state.committed_next = next_nonce;
        while state
            .pending
            .front()
            .is_some_and(|tx| tx.nonce() < next_nonce)
        {
            state.pending.pop_front();
            self.len -= 1;
        }
    }

    /// Drops all pending transactions (volatile restart) while keeping
    /// the committed-nonce index (derived from durable chain state).
    pub fn clear_pending(&mut self) {
        self.accounts.retain(|_, state| {
            state.pending.clear();
            state.durable
        });
        self.len = 0;
    }

    /// Transactions rejected as stale or duplicate.
    pub fn rejected_stale(&self) -> u64 {
        self.rejected_stale
    }

    /// Transactions rejected because the pool was full.
    pub fn rejected_full(&self) -> u64 {
        self.rejected_full
    }

    /// Attempted same-nonce replacements: a different transaction
    /// already held the (account, nonce) slot when this one arrived.
    pub fn rejected_conflict(&self) -> u64 {
        self.rejected_conflict
    }

    /// The pool's share of a node's [`ContentionStats`]: full-pool
    /// rejections as evictions, same-nonce conflicts as replacements.
    pub fn contention_stats(&self) -> ContentionStats {
        ContentionStats {
            pool_evictions: self.rejected_full,
            pool_replacements: self.rejected_conflict,
            ..ContentionStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(from: u32, nonce: u64) -> Transaction {
        Transaction::transfer(AccountId::new(from), nonce, AccountId::new(99), 1)
    }

    #[test]
    fn contiguous_runs_are_ready() {
        let mut pool = AccountPool::new(100);
        pool.insert(tx(0, 0));
        pool.insert(tx(0, 1));
        pool.insert(tx(0, 3)); // gap at 2
        let ready = pool.take_ready(10);
        assert_eq!(
            ready.iter().map(|t| t.nonce()).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn gap_fill_releases_parked() {
        let mut pool = AccountPool::new(100);
        pool.insert(tx(0, 1));
        assert!(pool.take_ready(10).is_empty());
        pool.insert(tx(0, 0));
        assert_eq!(pool.take_ready(10).len(), 2);
    }

    #[test]
    fn round_robin_across_accounts() {
        let mut pool = AccountPool::new(100);
        for nonce in 0..3 {
            pool.insert(tx(0, nonce));
            pool.insert(tx(1, nonce));
        }
        let ready = pool.take_ready(4);
        let senders: Vec<u32> = ready.iter().map(|t| t.from().as_u32()).collect();
        assert_eq!(senders, vec![0, 1, 0, 1], "fair interleave");
        let nonces: Vec<u64> = ready.iter().map(|t| t.nonce()).collect();
        assert_eq!(nonces, vec![0, 0, 1, 1]);
    }

    #[test]
    fn take_ready_does_not_remove() {
        let mut pool = AccountPool::new(100);
        pool.insert(tx(0, 0));
        assert_eq!(pool.take_ready(10).len(), 1);
        assert_eq!(pool.take_ready(10).len(), 1, "copy semantics");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn mark_committed_prunes_and_blocks_stale() {
        let mut pool = AccountPool::new(100);
        pool.insert(tx(0, 0));
        pool.insert(tx(0, 1));
        pool.insert(tx(0, 2));
        pool.mark_committed(AccountId::new(0), 2);
        assert_eq!(pool.len(), 1);
        assert!(!pool.insert(tx(0, 1)), "stale rejected");
        assert!(pool.is_stale(&tx(0, 1)));
        assert_eq!(
            pool.take_ready(10)
                .iter()
                .map(|t| t.nonce())
                .collect::<Vec<_>>(),
            vec![2]
        );
    }

    #[test]
    fn mark_committed_never_regresses() {
        let mut pool = AccountPool::new(100);
        pool.mark_committed(AccountId::new(0), 5);
        pool.mark_committed(AccountId::new(0), 3);
        assert_eq!(pool.committed_nonce(AccountId::new(0)), 5);
    }

    #[test]
    fn capacity_enforced() {
        let mut pool = AccountPool::new(2);
        assert!(pool.insert(tx(0, 0)));
        assert!(pool.insert(tx(0, 1)));
        assert!(!pool.insert(tx(0, 2)));
        assert_eq!(pool.rejected_full(), 1);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut pool = AccountPool::new(10);
        let t = tx(0, 0);
        assert!(pool.insert(t));
        assert!(!pool.insert(t));
        assert_eq!(pool.rejected_stale(), 1);
    }

    #[test]
    fn conflicting_nonce_first_wins() {
        let mut pool = AccountPool::new(10);
        let a = Transaction::transfer(AccountId::new(0), 0, AccountId::new(1), 1);
        let b = Transaction::transfer(AccountId::new(0), 0, AccountId::new(2), 1);
        assert!(pool.insert(a));
        assert!(!pool.insert(b));
        assert_eq!(pool.rejected_conflict(), 1);
        assert_eq!(pool.rejected_stale(), 0, "conflicts counted separately");
        assert_eq!(pool.take_ready(10)[0].id(), a.id());
    }

    #[test]
    fn clear_pending_keeps_nonce_index() {
        let mut pool = AccountPool::new(10);
        pool.insert(tx(0, 0));
        pool.mark_committed(AccountId::new(0), 1);
        pool.insert(tx(0, 1));
        pool.clear_pending();
        assert!(pool.is_empty());
        assert!(!pool.insert(tx(0, 0)), "stale check survives restart");
        assert!(pool.insert(tx(0, 1)));
    }

    #[test]
    fn frontier_reports_first_missing_nonce() {
        let mut pool = AccountPool::new(64);
        pool.insert(tx(0, 0));
        pool.insert(tx(0, 1));
        pool.insert(tx(0, 3)); // gap at 2
        pool.insert(tx(1, 5)); // gap from 0
        assert_eq!(
            pool.frontier(),
            vec![(AccountId::new(0), 2), (AccountId::new(1), 0)]
        );
        pool.mark_committed(AccountId::new(0), 4);
        assert_eq!(
            pool.frontier(),
            vec![(AccountId::new(0), 4), (AccountId::new(1), 0)]
        );
    }

    #[test]
    fn missing_for_serves_the_peers_gap() {
        let mut pool = AccountPool::new(64);
        for n in 0..5 {
            pool.insert(tx(0, n));
        }
        // Peer already has nonces 0..3.
        let missing = pool.missing_for(&[(AccountId::new(0), 3)], 10);
        assert_eq!(
            missing.iter().map(|t| t.nonce()).collect::<Vec<_>>(),
            vec![3, 4]
        );
        // Cap applies.
        let capped = pool.missing_for(&[(AccountId::new(0), 0)], 2);
        assert_eq!(capped.len(), 2);
        // Unknown accounts yield nothing.
        assert!(pool.missing_for(&[(AccountId::new(7), 0)], 10).is_empty());
    }

    #[test]
    fn ready_for_single_account() {
        let mut pool = AccountPool::new(10);
        pool.insert(tx(0, 0));
        pool.insert(tx(0, 1));
        pool.insert(tx(1, 0));
        let ready = pool.ready_for(AccountId::new(0), 1);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].nonce(), 0);
        assert_eq!(pool.accounts(), vec![AccountId::new(0), AccountId::new(1)]);
    }

    use proptest::prelude::*;

    /// One step of the model-based test.
    #[derive(Clone, Debug)]
    enum Op {
        /// Insert `transfer(from, nonce, to, 1)`; two `to`s make
        /// same-slot conflicts, repeats make duplicates.
        Insert {
            from: u32,
            nonce: u64,
            to: u32,
        },
        /// Insert nonces `start..start + len` of one account, highest
        /// first when `descending`: every arrival then lands in front
        /// of or inside the window, not at its back.
        InsertRun {
            from: u32,
            start: u64,
            len: u64,
            descending: bool,
        },
        Commit {
            account: u32,
            next_nonce: u64,
        },
        ClearPending,
        /// Ask both pools what a peer at an arbitrary frontier (any
        /// account order, repeats allowed) is missing.
        MissingFor {
            peer: Vec<(u32, u64)>,
            max: usize,
        },
    }

    /// Mostly inserts, single or as runs, across windows wide enough
    /// for gaps and out-of-order arrivals; now and then a
    /// `mark_committed`, a `clear_pending` or a `missing_for` probe.
    fn op() -> impl Strategy<Value = Op> {
        (
            (0u8..9, 0u32..5, 0u64..24),
            (8u32..10, 1u64..6, proptest::bool::ANY),
            proptest::collection::vec((0u32..5, 0u64..24), 0..5),
        )
            .prop_map(
                |((kind, account, nonce), (to, len, descending), peer)| match kind {
                    0..=2 => Op::Insert {
                        from: account % 4,
                        nonce,
                        to,
                    },
                    3 | 4 => Op::InsertRun {
                        from: account % 4,
                        start: nonce,
                        len,
                        descending,
                    },
                    5 => Op::Commit {
                        account,
                        next_nonce: nonce,
                    },
                    6 => Op::ClearPending,
                    _ => Op::MissingFor {
                        peer,
                        max: len as usize * 3,
                    },
                },
            )
    }

    proptest! {
        /// The one-map pool and the reference model agree on every
        /// verdict, counter and query after every step of a random
        /// insert / `mark_committed` / `clear_pending` sequence, in a
        /// pool small enough to fill up.
        #[test]
        fn one_map_pool_matches_the_reference_model(
            capacity in 1usize..24,
            ops in proptest::collection::vec(op(), 0..128),
            (ready_max, missing_max) in (0usize..32, 1usize..16),
        ) {
            let mut pool = AccountPool::new(capacity);
            let mut model = reference::ReferencePool::new(capacity);
            for op in ops {
                match op {
                    Op::Insert { from, nonce, to } => {
                        let tx = Transaction::transfer(
                            AccountId::new(from), nonce, AccountId::new(to), 1,
                        );
                        prop_assert_eq!(pool.is_stale(&tx), model.is_stale(&tx));
                        prop_assert_eq!(pool.insert(tx), model.insert(tx), "verdict for {}", tx);
                    }
                    Op::InsertRun { from, start, len, descending } => {
                        let mut nonces: Vec<u64> = (start..start + len).collect();
                        if descending {
                            nonces.reverse();
                        }
                        for nonce in nonces {
                            let tx = Transaction::transfer(
                                AccountId::new(from), nonce, AccountId::new(8), 1,
                            );
                            prop_assert_eq!(pool.insert(tx), model.insert(tx), "verdict for {}", tx);
                        }
                    }
                    Op::Commit { account, next_nonce } => {
                        pool.mark_committed(AccountId::new(account), next_nonce);
                        model.mark_committed(AccountId::new(account), next_nonce);
                    }
                    Op::ClearPending => {
                        pool.clear_pending();
                        model.clear_pending();
                    }
                    Op::MissingFor { peer, max } => {
                        let peer: Vec<_> = peer.into_iter().map(|(a, n)| (AccountId::new(a), n)).collect();
                        prop_assert_eq!(pool.missing_for(&peer, max.max(1)), model.missing_for(&peer, max.max(1)));
                    }
                }
                prop_assert_eq!(pool.len(), model.len());
                prop_assert_eq!(pool.rejected_stale(), model.rejected_stale());
                prop_assert_eq!(pool.rejected_full(), model.rejected_full());
                prop_assert_eq!(pool.rejected_conflict(), model.rejected_conflict());
                prop_assert_eq!(pool.take_ready(ready_max), model.take_ready(ready_max));
                prop_assert_eq!(pool.take_ready(usize::MAX), model.take_ready(usize::MAX));
                prop_assert_eq!(pool.accounts(), model.accounts());
                let frontier = pool.frontier();
                prop_assert_eq!(&frontier, &model.frontier());
                for account in (0..5).map(AccountId::new) {
                    prop_assert_eq!(pool.committed_nonce(account), model.committed_nonce(account));
                    prop_assert_eq!(
                        pool.ready_for(account, ready_max.max(1)),
                        model.ready_for(account, ready_max.max(1))
                    );
                }
                // A peer one nonce behind on every account, and one
                // that knows nothing.
                let behind: Vec<_> = frontier.iter().map(|(a, n)| (*a, n.saturating_sub(1))).collect();
                let blank: Vec<_> = (0..5).map(|a| (AccountId::new(a), 0)).collect();
                for peer in [&frontier, &behind, &blank] {
                    prop_assert_eq!(
                        pool.missing_for(peer, missing_max),
                        model.missing_for(peer, missing_max)
                    );
                }
            }
        }
    }

    /// The pool as it was before the one-map rewrite — an id set, a
    /// slot map and a committed-nonce map kept in step — retained as the
    /// reference model the rewrite is checked against.
    mod reference {
        use std::collections::{BTreeMap, BTreeSet};

        use crate::{AccountId, Transaction, TxId};

        #[derive(Clone, Debug, Default)]
        pub struct ReferencePool {
            by_account: BTreeMap<AccountId, BTreeMap<u64, Transaction>>,
            ids: BTreeSet<TxId>,
            committed_next: BTreeMap<AccountId, u64>,
            len: usize,
            capacity: usize,
            rejected_stale: u64,
            rejected_full: u64,
            rejected_conflict: u64,
        }

        impl ReferencePool {
            pub fn new(capacity: usize) -> ReferencePool {
                assert!(capacity > 0, "pool capacity must be positive");
                ReferencePool {
                    capacity,
                    ..ReferencePool::default()
                }
            }

            pub fn len(&self) -> usize {
                self.len
            }

            pub fn is_stale(&self, tx: &Transaction) -> bool {
                tx.nonce() < self.committed_nonce(tx.from())
            }

            pub fn committed_nonce(&self, account: AccountId) -> u64 {
                self.committed_next.get(&account).copied().unwrap_or(0)
            }

            pub fn insert(&mut self, tx: Transaction) -> bool {
                if self.is_stale(&tx) || self.ids.contains(&tx.id()) {
                    self.rejected_stale += 1;
                    return false;
                }
                if self.len >= self.capacity {
                    self.rejected_full += 1;
                    return false;
                }
                let slots = self.by_account.entry(tx.from()).or_default();
                if slots.contains_key(&tx.nonce()) {
                    // A different transaction already occupies this nonce; first
                    // arrival wins (like production pools without fee bumping).
                    self.rejected_conflict += 1;
                    return false;
                }
                slots.insert(tx.nonce(), tx);
                self.ids.insert(tx.id());
                self.len += 1;
                true
            }

            pub fn take_ready(&self, max: usize) -> Vec<Transaction> {
                let mut ready: Vec<Vec<Transaction>> = Vec::new();
                for (account, slots) in &self.by_account {
                    let mut next = self.committed_nonce(*account);
                    let mut run = Vec::new();
                    while let Some(tx) = slots.get(&next) {
                        run.push(*tx);
                        next += 1;
                    }
                    if !run.is_empty() {
                        ready.push(run);
                    }
                }
                let mut out = Vec::with_capacity(max.min(self.len));
                let mut depth = 0;
                while out.len() < max {
                    let mut any = false;
                    for run in &ready {
                        if let Some(tx) = run.get(depth) {
                            out.push(*tx);
                            any = true;
                            if out.len() == max {
                                break;
                            }
                        }
                    }
                    if !any {
                        break;
                    }
                    depth += 1;
                }
                out
            }

            pub fn ready_for(&self, account: AccountId, max: usize) -> Vec<Transaction> {
                let mut out = Vec::new();
                if let Some(slots) = self.by_account.get(&account) {
                    let mut next = self.committed_nonce(account);
                    while let Some(tx) = slots.get(&next) {
                        out.push(*tx);
                        next += 1;
                        if out.len() == max {
                            break;
                        }
                    }
                }
                out
            }

            pub fn frontier(&self) -> Vec<(AccountId, u64)> {
                let mut out: Vec<(AccountId, u64)> = Vec::new();
                let mut accounts: Vec<AccountId> = self
                    .by_account
                    .keys()
                    .copied()
                    .chain(self.committed_next.keys().copied())
                    .collect();
                accounts.sort_unstable();
                accounts.dedup();
                for account in accounts {
                    let mut next = self.committed_nonce(account);
                    if let Some(slots) = self.by_account.get(&account) {
                        while slots.contains_key(&next) {
                            next += 1;
                        }
                    }
                    out.push((account, next));
                }
                out
            }

            pub fn missing_for(
                &self,
                frontier: &[(AccountId, u64)],
                max: usize,
            ) -> Vec<Transaction> {
                let mut out = Vec::new();
                for &(account, from_nonce) in frontier {
                    if let Some(slots) = self.by_account.get(&account) {
                        for (_, tx) in slots.range(from_nonce..) {
                            out.push(*tx);
                            if out.len() == max {
                                return out;
                            }
                        }
                    }
                }
                out
            }

            pub fn accounts(&self) -> Vec<AccountId> {
                self.by_account
                    .iter()
                    .filter(|(_, slots)| !slots.is_empty())
                    .map(|(account, _)| *account)
                    .collect()
            }

            pub fn mark_committed(&mut self, account: AccountId, next_nonce: u64) {
                let entry = self.committed_next.entry(account).or_insert(0);
                if next_nonce <= *entry {
                    return;
                }
                *entry = next_nonce;
                if let Some(slots) = self.by_account.get_mut(&account) {
                    let keep = slots.split_off(&next_nonce);
                    for (_, tx) in std::mem::replace(slots, keep) {
                        self.ids.remove(&tx.id());
                        self.len -= 1;
                    }
                }
            }

            pub fn clear_pending(&mut self) {
                self.by_account.clear();
                self.ids.clear();
                self.len = 0;
            }

            pub fn rejected_stale(&self) -> u64 {
                self.rejected_stale
            }

            pub fn rejected_full(&self) -> u64 {
                self.rejected_full
            }

            pub fn rejected_conflict(&self) -> u64 {
                self.rejected_conflict
            }
        }
    }
}
