//! # stabl-types — shared blockchain data types
//!
//! Hashing ([`Sha256`], [`Hash32`]), accounts and native transfers
//! ([`Transaction`]), blocks ([`Block`]), the replicated account ledger
//! ([`Ledger`]), the nonce-aware [`AccountPool`] the five chains hold
//! pending transactions in, a generic deduplicating [`Mempool`], the
//! O(1) transaction-id index [`TxIndex`] and [`Replica`] — a validator's
//! durable `chain + ledger + executed height` with the serial executor
//! that applies it. These are the building blocks shared by the five
//! protocol crates of the Stabl reproduction: what the paper never
//! varies lives here once, so the chain crates hold only what differs.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::float_cmp))]
#![warn(missing_docs)]

mod account_pool;
mod block;
mod crypto;
mod ledger;
mod mempool;
mod replica;
mod tx;
mod tx_index;

pub use account_pool::AccountPool;
pub use block::Block;
pub use crypto::{Hash32, Sha256};
pub use ledger::{ApplyError, Ledger};
pub use mempool::Mempool;
pub use replica::Replica;
pub use tx::{AccountId, Transaction, TxId};
pub use tx_index::TxIndex;

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn sha256_deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(Hash32::digest(&data), Hash32::digest(&data));
        }

        #[test]
        fn sha256_incremental_any_split(
            data in proptest::collection::vec(any::<u8>(), 0..256),
            split in 0usize..256,
        ) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), Hash32::digest(&data));
        }

        #[test]
        fn ledger_conserves_supply(
            transfers in proptest::collection::vec((0u32..4, 0u32..4, 1u64..50), 0..64)
        ) {
            let mut ledger = Ledger::with_uniform_balance(4, 10_000);
            let initial = ledger.total_supply();
            let mut nonces = [0u64; 4];
            for (from, to, amount) in transfers {
                let tx = Transaction::transfer(
                    AccountId::new(from),
                    nonces[from as usize],
                    AccountId::new(to),
                    amount,
                );
                if ledger.apply(&tx).is_ok() {
                    nonces[from as usize] += 1;
                }
            }
            prop_assert_eq!(ledger.total_supply(), initial);
        }

        #[test]
        fn ledger_rejects_every_replay(
            transfers in proptest::collection::vec((0u32..3, 0u32..3, 1u64..10), 1..32)
        ) {
            let mut ledger = Ledger::with_uniform_balance(3, 1_000);
            let mut nonces = [0u64; 3];
            let mut applied = Vec::new();
            for (from, to, amount) in transfers {
                let tx = Transaction::transfer(
                    AccountId::new(from),
                    nonces[from as usize],
                    AccountId::new(to),
                    amount,
                );
                if ledger.apply(&tx).is_ok() {
                    nonces[from as usize] += 1;
                    applied.push(tx);
                }
            }
            for tx in &applied {
                prop_assert!(ledger.apply(tx).is_err(), "replay of {} accepted", tx);
            }
        }

        #[test]
        fn mempool_never_exceeds_capacity(
            capacity in 1usize..16,
            nonces in proptest::collection::vec(0u64..32, 0..64),
        ) {
            let mut pool = Mempool::new(capacity);
            for n in nonces {
                pool.insert(Transaction::transfer(
                    AccountId::new(0), n, AccountId::new(1), 1,
                ));
                prop_assert!(pool.len() <= capacity);
            }
        }

        #[test]
        fn mempool_take_restore_roundtrip(
            count in 1usize..20,
            take in 0usize..25,
        ) {
            let mut pool = Mempool::new(64);
            for n in 0..count as u64 {
                pool.insert(Transaction::transfer(AccountId::new(0), n, AccountId::new(1), 1));
            }
            let before: Vec<_> = pool.iter().map(|t| t.id()).collect();
            let taken = pool.take(take);
            pool.restore(taken);
            let after: Vec<_> = pool.iter().map(|t| t.id()).collect();
            prop_assert_eq!(before, after);
        }

        #[test]
        fn account_pool_ready_is_always_contiguous(
            ops in proptest::collection::vec(
                // (account, nonce, is_commit)
                (0u32..3, 0u64..24, proptest::bool::ANY),
                0..96,
            )
        ) {
            let mut pool = AccountPool::new(512);
            for (account, nonce, is_commit) in ops {
                let account = AccountId::new(account);
                if is_commit {
                    pool.mark_committed(account, nonce);
                } else {
                    pool.insert(Transaction::transfer(account, nonce, AccountId::new(9), 1));
                }
                // Invariant: take_ready returns, per account, a contiguous
                // nonce run starting at the committed nonce.
                let ready = pool.take_ready(usize::MAX >> 1);
                let mut per_account: std::collections::HashMap<AccountId, Vec<u64>> =
                    std::collections::HashMap::new();
                for tx in &ready {
                    per_account.entry(tx.from()).or_default().push(tx.nonce());
                }
                for (acct, mut nonces) in per_account {
                    nonces.sort_unstable();
                    prop_assert_eq!(nonces[0], pool.committed_nonce(acct));
                    for w in nonces.windows(2) {
                        prop_assert_eq!(w[1], w[0] + 1, "gap in ready run of {}", acct);
                    }
                }
            }
        }

        #[test]
        fn account_pool_never_yields_stale_transactions(
            inserts in proptest::collection::vec((0u32..2, 0u64..16), 0..48),
            commit_to in 0u64..16,
        ) {
            let mut pool = AccountPool::new(256);
            for (account, nonce) in inserts {
                pool.insert(Transaction::transfer(
                    AccountId::new(account), nonce, AccountId::new(9), 1,
                ));
            }
            pool.mark_committed(AccountId::new(0), commit_to);
            for tx in pool.take_ready(usize::MAX >> 1) {
                if tx.from() == AccountId::new(0) {
                    prop_assert!(tx.nonce() >= commit_to);
                }
            }
            // And stale inserts are rejected outright.
            if commit_to > 0 {
                prop_assert!(!pool.insert(Transaction::transfer(
                    AccountId::new(0), commit_to - 1, AccountId::new(9), 1,
                )));
            }
        }

        #[test]
        fn mempool_and_account_pool_agree_on_dedup(
            nonces in proptest::collection::vec(0u64..12, 0..48)
        ) {
            let mut mempool = Mempool::new(256);
            let mut pool = AccountPool::new(256);
            for n in nonces {
                let tx = Transaction::transfer(AccountId::new(0), n, AccountId::new(1), 1);
                let a = mempool.insert(tx);
                let b = pool.insert(tx);
                prop_assert_eq!(a, b, "divergent dedup for nonce {}", n);
            }
        }

        #[test]
        fn tx_ids_unique(
            pairs in proptest::collection::hash_set((0u32..64, 0u64..64), 0..64)
        ) {
            let ids: std::collections::HashSet<TxId> = pairs
                .iter()
                .map(|&(from, nonce)| {
                    Transaction::transfer(AccountId::new(from), nonce, AccountId::new(from + 1), 1).id()
                })
                .collect();
            prop_assert_eq!(ids.len(), pairs.len());
        }
    }
}
