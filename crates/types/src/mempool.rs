//! A generic FIFO memory pool with duplicate suppression.
//!
//! None of the five chain models uses this type: all of them — Solana's
//! leader buffer included — hold pending transactions in the nonce-aware
//! [`AccountPool`](crate::AccountPool). `Mempool` is the plain FIFO
//! counterpart: the model `AccountPool`'s deduplication is property-tested
//! against, and a layer the benchmark times (`types.mempool_ns_per_tx`).

use std::collections::{BTreeSet, VecDeque};

use crate::{Transaction, TxId};

/// A bounded FIFO transaction pool with id-based deduplication.
///
/// # Examples
///
/// ```
/// use stabl_types::{AccountId, Mempool, Transaction};
///
/// let mut pool = Mempool::new(2);
/// let tx = Transaction::transfer(AccountId::new(0), 0, AccountId::new(1), 1);
/// assert!(pool.insert(tx));
/// assert!(!pool.insert(tx), "duplicate suppressed");
/// assert_eq!(pool.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Mempool {
    queue: VecDeque<Transaction>,
    ids: BTreeSet<TxId>,
    /// Ids seen committed; future inserts of these are rejected.
    committed: BTreeSet<TxId>,
    capacity: usize,
    dropped_full: u64,
    rejected_duplicate: u64,
}

impl Mempool {
    /// Creates a pool holding at most `capacity` pending transactions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Mempool {
        assert!(capacity > 0, "mempool capacity must be positive");
        Mempool {
            queue: VecDeque::new(),
            ids: BTreeSet::new(),
            committed: BTreeSet::new(),
            capacity,
            dropped_full: 0,
            rejected_duplicate: 0,
        }
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` if no transaction is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// `true` if `id` is currently pending.
    pub fn contains(&self, id: TxId) -> bool {
        self.ids.contains(&id)
    }

    /// Inserts `tx`; returns `false` if it was a duplicate, already
    /// committed, or the pool is full.
    pub fn insert(&mut self, tx: Transaction) -> bool {
        if self.ids.contains(&tx.id()) || self.committed.contains(&tx.id()) {
            self.rejected_duplicate += 1;
            return false;
        }
        if self.queue.len() >= self.capacity {
            self.dropped_full += 1;
            return false;
        }
        self.ids.insert(tx.id());
        self.queue.push_back(tx);
        true
    }

    /// Takes up to `max` transactions in FIFO order (a block proposal).
    /// The taken transactions stay marked as seen so gossip cannot
    /// reintroduce them; call [`Mempool::restore`] to put them back.
    pub fn take(&mut self, max: usize) -> Vec<Transaction> {
        let count = max.min(self.queue.len());
        self.queue.drain(..count).collect()
    }

    /// Returns previously [`take`](Mempool::take)n transactions to the
    /// front of the pool (a failed proposal).
    pub fn restore(&mut self, txs: Vec<Transaction>) {
        for tx in txs.into_iter().rev() {
            if !self.committed.contains(&tx.id()) && self.ids.contains(&tx.id()) {
                self.queue.push_front(tx);
            }
        }
    }

    /// Marks `id` committed: removes it if pending and blocks future
    /// inserts of the same id.
    pub fn mark_committed(&mut self, id: TxId) {
        self.committed.insert(id);
        if self.ids.remove(&id) {
            self.queue.retain(|tx| tx.id() != id);
        }
    }

    /// Peeks at the pending transactions in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.queue.iter()
    }

    /// Empties the pool (node restart losing volatile state); the
    /// committed-set is kept, mirroring on-disk dedup indices.
    pub fn clear_pending(&mut self) {
        self.queue.clear();
        self.ids.clear();
    }

    /// Transactions rejected because the pool was full.
    pub fn dropped_full(&self) -> u64 {
        self.dropped_full
    }

    /// Transactions rejected as duplicates.
    pub fn rejected_duplicate(&self) -> u64 {
        self.rejected_duplicate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccountId;

    fn tx(nonce: u64) -> Transaction {
        Transaction::transfer(AccountId::new(0), nonce, AccountId::new(1), 1)
    }

    #[test]
    fn fifo_order() {
        let mut pool = Mempool::new(10);
        for n in 0..5 {
            assert!(pool.insert(tx(n)));
        }
        let taken = pool.take(3);
        assert_eq!(
            taken.iter().map(|t| t.nonce()).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn capacity_enforced() {
        let mut pool = Mempool::new(2);
        assert!(pool.insert(tx(0)));
        assert!(pool.insert(tx(1)));
        assert!(!pool.insert(tx(2)));
        assert_eq!(pool.dropped_full(), 1);
    }

    #[test]
    fn duplicates_rejected_even_after_take() {
        let mut pool = Mempool::new(10);
        pool.insert(tx(0));
        let taken = pool.take(1);
        assert!(!pool.insert(taken[0]), "in-flight proposal still seen");
        assert_eq!(pool.rejected_duplicate(), 1);
    }

    #[test]
    fn committed_never_reenters() {
        let mut pool = Mempool::new(10);
        let t = tx(0);
        pool.insert(t);
        pool.mark_committed(t.id());
        assert!(pool.is_empty());
        assert!(!pool.insert(t), "committed id rejected");
    }

    #[test]
    fn restore_returns_to_front() {
        let mut pool = Mempool::new(10);
        pool.insert(tx(0));
        pool.insert(tx(1));
        pool.insert(tx(2));
        let taken = pool.take(2);
        pool.restore(taken);
        let order: Vec<u64> = pool.iter().map(|t| t.nonce()).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn restore_skips_committed_meanwhile() {
        let mut pool = Mempool::new(10);
        let t0 = tx(0);
        pool.insert(t0);
        let taken = pool.take(1);
        pool.mark_committed(t0.id());
        pool.restore(taken);
        assert!(pool.is_empty());
    }

    #[test]
    fn clear_pending_keeps_committed_index() {
        let mut pool = Mempool::new(10);
        let t0 = tx(0);
        pool.insert(t0);
        pool.mark_committed(t0.id());
        pool.insert(tx(1));
        pool.clear_pending();
        assert!(pool.is_empty());
        assert!(!pool.insert(t0), "committed survives restart");
        assert!(pool.insert(tx(1)), "pending was volatile");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Mempool::new(0);
    }
}
