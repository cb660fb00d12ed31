//! The RPC outbox: client transactions an RPC node keeps forwarding
//! until it sees them confirmed.

use std::collections::{BTreeSet, VecDeque};

use stabl_types::{Transaction, TxId};

/// Pending client transactions in arrival order, with an id set kept in
/// step for duplicate suppression.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    queue: VecDeque<Transaction>,
    ids: BTreeSet<TxId>,
}

impl Outbox {
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The pending transactions, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.queue.iter()
    }

    /// Appends `tx`; returns `false`, changing nothing, if it is
    /// already pending.
    pub(crate) fn push(&mut self, tx: Transaction) -> bool {
        let fresh = self.ids.insert(tx.id());
        if fresh {
            self.queue.push_back(tx);
        }
        fresh
    }

    /// Drops every transaction named in `ids` (a confirmed block's
    /// worth), keeping the rest in order. The queue is swept once per
    /// call, not once per id: a per-id sweep made confirming a block
    /// cost O(block × outbox) with a partition-sized backlog.
    pub(crate) fn remove_all(&mut self, ids: &[TxId]) {
        let mut removed = false;
        for id in ids {
            removed |= self.ids.remove(id);
        }
        if removed {
            let pending = &self.ids;
            self.queue.retain(|tx| pending.contains(&tx.id()));
        }
    }

    pub(crate) fn clear(&mut self) {
        self.queue.clear();
        self.ids.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabl_types::AccountId;

    /// On a 10 000-entry outbox, one sweep per block leaves exactly the
    /// queue that dropping its transactions one at a time leaves.
    #[test]
    fn block_sweep_equals_the_one_at_a_time_model() {
        let txs: Vec<Transaction> = (0..10_000u32)
            .map(|k| {
                Transaction::transfer(
                    AccountId::new(k % 20),
                    u64::from(k / 20),
                    AccountId::new(99),
                    1,
                )
            })
            .collect();
        let mut outbox = Outbox::default();
        let mut model: VecDeque<Transaction> = VecDeque::new();
        for tx in &txs {
            assert!(outbox.push(*tx));
            assert!(!outbox.push(*tx), "a duplicate submission changes nothing");
            model.push_back(*tx);
        }
        assert_eq!(outbox.len(), 10_000);
        // Blocks confirm scattered transactions, some of them twice and
        // some that this node never held.
        let stranger = Transaction::transfer(AccountId::new(77), 0, AccountId::new(99), 1).id();
        for (round, stride) in [7usize, 11, 13, 3].into_iter().enumerate() {
            let mut block: Vec<TxId> = txs
                .iter()
                .skip(round)
                .step_by(stride)
                .map(Transaction::id)
                .collect();
            block.reverse();
            block.push(stranger);
            outbox.remove_all(&block);
            for id in &block {
                model.retain(|tx| tx.id() != *id);
            }
            assert!(
                outbox.iter().eq(model.iter()),
                "outbox order diverged from the model after block {round}"
            );
            assert_eq!(outbox.len(), model.len());
        }
        assert!(!outbox.is_empty());
        outbox.clear();
        assert!(outbox.is_empty());
        assert!(outbox.push(txs[1]), "a cleared outbox forgot its ids too");
    }
}
