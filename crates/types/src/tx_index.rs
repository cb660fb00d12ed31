//! A dense index over transaction ids for per-transaction hot paths.

use crate::TxId;

/// An insert-only set of transaction ids that numbers its members
/// `0, 1, 2, …` in insertion order.
///
/// Lookups are O(1): an open-addressed table (linear probing, at most
/// half full) indexed by the leading bits of the id's digest — a
/// SHA-256 prefix is already uniformly distributed, so no further
/// hashing is needed and one integer compare settles nearly every
/// probe. There is deliberately no iteration API: the table's layout
/// depends on digest bits, so anything ordered must come from the dense
/// indices, which depend on insertion order alone.
///
/// # Examples
///
/// ```
/// use stabl_types::{AccountId, Transaction, TxIndex};
///
/// let tx = Transaction::transfer(AccountId::new(0), 0, AccountId::new(1), 1);
/// let mut index = TxIndex::with_capacity(8);
/// assert_eq!(index.insert(tx.id()), (0, true));
/// assert_eq!(index.insert(tx.id()), (0, false), "already a member");
/// assert_eq!(index.get(tx.id()), Some(0));
/// ```
#[derive(Clone, Debug)]
pub struct TxIndex {
    /// `index + 1` of the member in each slot, 0 for a vacant slot; the
    /// length is a power of two.
    table: Vec<u32>,
    /// The right shift taking a 64-bit digest prefix to a table slot.
    shift: u32,
    /// The members, by index.
    ids: Vec<TxId>,
}

impl TxIndex {
    /// An empty index with room for `members` ids before it regrows.
    pub fn with_capacity(members: usize) -> TxIndex {
        let bits = (members * 2).next_power_of_two().trailing_zeros().max(1);
        TxIndex {
            table: vec![0; 1 << bits],
            shift: 64 - bits,
            ids: Vec::with_capacity(members),
        }
    }

    /// Number of distinct ids inserted.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The index of `id`, if it is a member.
    #[inline]
    pub fn get(&self, id: TxId) -> Option<u32> {
        self.probe(id).ok()
    }

    /// Adds `id`; returns its index and whether it was new.
    ///
    /// # Panics
    ///
    /// Panics beyond `u32::MAX` members.
    #[inline]
    pub fn insert(&mut self, id: TxId) -> (u32, bool) {
        let vacant = match self.probe(id) {
            Ok(index) => return (index, false),
            Err(vacant) => vacant,
        };
        self.ids.push(id);
        let tagged = u32::try_from(self.ids.len()).expect("fewer than 2^32 transactions");
        self.table[vacant] = tagged;
        if self.ids.len() * 2 > self.table.len() {
            self.regrow();
        }
        (tagged - 1, true)
    }

    /// The index of `id`, or the vacant slot it would take.
    #[inline]
    fn probe(&self, id: TxId) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let mut slot = (id.hash().prefix_u64() >> self.shift) as usize;
        loop {
            match self.table[slot] {
                0 => return Err(slot),
                tagged if self.ids[tagged as usize - 1] == id => return Ok(tagged - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the table and re-places every member.
    fn regrow(&mut self) {
        self.shift -= 1;
        self.table = vec![0; self.table.len() * 2];
        for (index, id) in self.ids.iter().enumerate() {
            let vacant = self.probe(*id).expect_err("members are distinct");
            self.table[vacant] = index as u32 + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::{AccountId, Transaction};

    fn id(k: u32) -> TxId {
        Transaction::transfer(AccountId::new(k), 0, AccountId::new(0), 1).id()
    }

    #[test]
    fn regrows_past_its_initial_capacity() {
        let mut index = TxIndex::with_capacity(0);
        for k in 0..1000 {
            assert_eq!(index.insert(id(k)), (k, true));
        }
        for k in 0..1000 {
            assert_eq!(index.get(id(k)), Some(k));
        }
        assert_eq!(index.get(id(1000)), None);
        assert_eq!(index.len(), 1000);
    }

    proptest! {
        /// Membership and numbering match an ordered map fed the same
        /// inserts, whatever the initial capacity.
        #[test]
        fn matches_an_ordered_map(
            capacity in 0usize..64,
            keys in proptest::collection::vec(0u32..96, 0..256),
        ) {
            let mut index = TxIndex::with_capacity(capacity);
            let mut model: BTreeMap<TxId, u32> = BTreeMap::new();
            for key in keys {
                let next = model.len() as u32;
                let fresh = !model.contains_key(&id(key));
                let expected = *model.entry(id(key)).or_insert(next);
                prop_assert_eq!(index.insert(id(key)), (expected, fresh));
                prop_assert_eq!(index.len(), model.len());
            }
            for key in 0..96 {
                prop_assert_eq!(index.get(id(key)), model.get(&id(key)).copied());
            }
        }
    }
}
