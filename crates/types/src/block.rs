//! Blocks: the unit of agreement of every simulated chain.

use std::fmt;

use stabl_sim::NodeId;

use crate::{Hash32, Sha256, Transaction};

/// A proposed or committed block.
///
/// # Examples
///
/// ```
/// use stabl_sim::NodeId;
/// use stabl_types::{AccountId, Block, Hash32, Transaction};
///
/// let tx = Transaction::transfer(AccountId::new(0), 0, AccountId::new(1), 1);
/// let genesis = Block::genesis();
/// let block = Block::new(genesis.hash(), 1, NodeId::new(0), vec![tx]);
/// assert_eq!(block.parent(), genesis.hash());
/// assert_eq!(block.height(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    hash: Hash32,
    parent: Hash32,
    height: u64,
    proposer: NodeId,
    txs: Vec<Transaction>,
}

impl Block {
    /// The genesis block: height 0, no transactions, zero parent.
    pub fn genesis() -> Block {
        Block::new(Hash32::ZERO, 0, NodeId::new(0), Vec::new())
    }

    /// Creates a block and computes its content hash.
    pub fn new(parent: Hash32, height: u64, proposer: NodeId, txs: Vec<Transaction>) -> Block {
        let mut hasher = Sha256::new();
        hasher.update(b"stabl-block-v1");
        hasher.update(parent.as_bytes());
        hasher.update(&height.to_be_bytes());
        hasher.update(&proposer.as_u32().to_be_bytes());
        hasher.update(&(txs.len() as u64).to_be_bytes());
        for tx in &txs {
            hasher.update(tx.id().hash().as_bytes());
        }
        Block {
            hash: hasher.finalize(),
            parent,
            height,
            proposer,
            txs,
        }
    }

    /// The block's content hash.
    pub fn hash(&self) -> Hash32 {
        self.hash
    }

    /// The parent block's hash.
    pub fn parent(&self) -> Hash32 {
        self.parent
    }

    /// The chain height (genesis is 0).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The node that proposed this block.
    pub fn proposer(&self) -> NodeId {
        self.proposer
    }

    /// The transactions carried by the block.
    pub fn txs(&self) -> &[Transaction] {
        &self.txs
    }

    /// Number of transactions in the block.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// `true` if the block carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }
}

/// A block as the transactions it carries, in execution order — what
/// [`Replica`](crate::Replica) needs of it.
impl AsRef<[Transaction]> for Block {
    fn as_ref(&self) -> &[Transaction] {
        &self.txs
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block h={} by {} ({} txs)",
            self.height,
            self.proposer,
            self.txs.len()
        )
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
    fn hash_covers_content() {
        let parent = Hash32::digest(b"p");
        let a = Block::new(parent, 1, NodeId::new(0), vec![tx(0)]);
        let b = Block::new(parent, 1, NodeId::new(0), vec![tx(1)]);
        let c = Block::new(parent, 2, NodeId::new(0), vec![tx(0)]);
        let d = Block::new(parent, 1, NodeId::new(1), vec![tx(0)]);
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
        assert_ne!(a.hash(), d.hash());
        let a2 = Block::new(parent, 1, NodeId::new(0), vec![tx(0)]);
        assert_eq!(a.hash(), a2.hash(), "hashing is deterministic");
    }

    #[test]
    fn genesis_is_stable() {
        assert_eq!(Block::genesis().hash(), Block::genesis().hash());
        assert_eq!(Block::genesis().height(), 0);
        assert!(Block::genesis().is_empty());
    }

    #[test]
    fn accessors() {
        let b = Block::new(Hash32::ZERO, 3, NodeId::new(2), vec![tx(0), tx(1)]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.proposer(), NodeId::new(2));
        assert!(b.to_string().contains("h=3"));
    }
}
