//! The replicated account ledger each node executes committed blocks on.

use std::collections::BTreeMap;
use std::fmt;

use crate::{AccountId, Transaction, TxId};

/// Why a transaction was rejected by [`Ledger::apply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyError {
    /// The nonce is lower than the account's next expected sequence
    /// number — the transaction (or a conflicting one) already executed.
    /// This is Aptos' `SEQUENCE_NUMBER_TOO_OLD` and the signal every
    /// chain uses to deduplicate the secure client's redundant copies.
    SequenceNumberTooOld {
        /// The sequence number the account expects next.
        expected: u64,
        /// The stale nonce carried by the transaction.
        got: u64,
    },
    /// The nonce skips ahead of the account's next sequence number; the
    /// transaction must wait for its predecessors.
    SequenceNumberTooNew {
        /// The sequence number the account expects next.
        expected: u64,
        /// The premature nonce carried by the transaction.
        got: u64,
    },
    /// The sender cannot cover the transferred amount.
    InsufficientFunds {
        /// The sender's balance.
        balance: u64,
        /// The amount the transfer needed.
        needed: u64,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::SequenceNumberTooOld { expected, got } => {
                write!(f, "sequence number too old: expected {expected}, got {got}")
            }
            ApplyError::SequenceNumberTooNew { expected, got } => {
                write!(f, "sequence number too new: expected {expected}, got {got}")
            }
            ApplyError::InsufficientFunds { balance, needed } => {
                write!(f, "insufficient funds: balance {balance}, needed {needed}")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// Account balances and sequence numbers, advanced by executing
/// committed transactions in order.
///
/// # Examples
///
/// ```
/// use stabl_types::{AccountId, Ledger, Transaction};
///
/// let mut ledger = Ledger::with_uniform_balance(4, 1_000);
/// let tx = Transaction::transfer(AccountId::new(0), 0, AccountId::new(1), 10);
/// ledger.apply(&tx)?;
/// assert_eq!(ledger.balance(AccountId::new(1)), 1_010);
/// # Ok::<(), stabl_types::ApplyError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    balances: BTreeMap<AccountId, u64>,
    nonces: BTreeMap<AccountId, u64>,
    executed: u64,
    /// Balance credited lazily to accounts never seen before — the
    /// genesis allocation of a declared-but-unmaterialized population.
    /// Zero for [`Ledger::with_uniform_balance`] ledgers.
    default_balance: u64,
}

impl Ledger {
    /// An empty ledger (every balance zero).
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// A ledger where accounts `0..accounts` each hold `balance`.
    pub fn with_uniform_balance(accounts: u32, balance: u64) -> Ledger {
        let mut ledger = Ledger::new();
        for i in 0..accounts {
            ledger.balances.insert(AccountId::new(i), balance);
        }
        ledger
    }

    /// A ledger where *every* account starts at `balance`, materialized
    /// lazily on first touch. This funds populations of millions of
    /// Feistel-scattered accounts in O(active set) memory — the
    /// production-workload counterpart of [`Ledger::with_uniform_balance`].
    pub fn with_lazy_balance(balance: u64) -> Ledger {
        Ledger {
            default_balance: balance,
            ..Ledger::new()
        }
    }

    /// The genesis ledger of every simulated chain: all accounts funded
    /// on first touch, deeply enough that no workload overdraws one —
    /// so a production population of millions needs no prefunding, and
    /// the paper-standard stream (which never overdraws and whose
    /// balances reach no artifact) runs exactly as on prefunded accounts.
    pub fn genesis() -> Ledger {
        Ledger::with_lazy_balance(u64::MAX / 512)
    }

    /// The balance of `account` (the lazy default if never touched).
    pub fn balance(&self, account: AccountId) -> u64 {
        self.balances
            .get(&account)
            .copied()
            .unwrap_or(self.default_balance)
    }

    /// The next sequence number expected from `account`.
    pub fn next_nonce(&self, account: AccountId) -> u64 {
        self.nonces.get(&account).copied().unwrap_or(0)
    }

    /// Number of transactions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Total supply across all *materialized* accounts (conserved by
    /// transfers between them; lazily-funded accounts join the sum when
    /// first touched).
    pub fn total_supply(&self) -> u64 {
        self.balances.values().sum()
    }

    /// Checks whether `tx` would execute without applying it.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Ledger::apply`].
    pub fn check(&self, tx: &Transaction) -> Result<(), ApplyError> {
        let expected = self.next_nonce(tx.from());
        if tx.nonce() < expected {
            return Err(ApplyError::SequenceNumberTooOld {
                expected,
                got: tx.nonce(),
            });
        }
        if tx.nonce() > expected {
            return Err(ApplyError::SequenceNumberTooNew {
                expected,
                got: tx.nonce(),
            });
        }
        let balance = self.balance(tx.from());
        if balance < tx.amount() {
            return Err(ApplyError::InsufficientFunds {
                balance,
                needed: tx.amount(),
            });
        }
        Ok(())
    }

    /// Executes `tx`, returning its id on success.
    ///
    /// # Errors
    ///
    /// Fails with [`ApplyError::SequenceNumberTooOld`] on duplicates,
    /// [`ApplyError::SequenceNumberTooNew`] on nonce gaps, and
    /// [`ApplyError::InsufficientFunds`] on overdrafts; the ledger is
    /// unchanged on failure.
    pub fn apply(&mut self, tx: &Transaction) -> Result<TxId, ApplyError> {
        self.check(tx)?;
        let default = self.default_balance;
        *self.balances.entry(tx.from()).or_insert(default) -= tx.amount();
        *self.balances.entry(tx.to()).or_insert(default) += tx.amount();
        self.nonces.insert(tx.from(), tx.nonce() + 1);
        self.executed += 1;
        Ok(tx.id())
    }

    /// Executes every transaction of a batch in order, skipping failures;
    /// returns the ids of the transactions that executed.
    ///
    /// This is the semantics of every studied chain: a block may carry
    /// stale duplicates (secure client) which execute as no-ops.
    pub fn apply_batch<'a, I>(&mut self, txs: I) -> Vec<TxId>
    where
        I: IntoIterator<Item = &'a Transaction>,
    {
        txs.into_iter()
            .filter_map(|tx| self.apply(tx).ok())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(from: u32, nonce: u64, to: u32, amount: u64) -> Transaction {
        Transaction::transfer(AccountId::new(from), nonce, AccountId::new(to), amount)
    }

    #[test]
    fn transfer_moves_funds() {
        let mut l = Ledger::with_uniform_balance(2, 100);
        l.apply(&tx(0, 0, 1, 30)).expect("valid transfer");
        assert_eq!(l.balance(AccountId::new(0)), 70);
        assert_eq!(l.balance(AccountId::new(1)), 130);
        assert_eq!(l.next_nonce(AccountId::new(0)), 1);
        assert_eq!(l.executed(), 1);
    }

    #[test]
    fn duplicate_rejected_as_too_old() {
        let mut l = Ledger::with_uniform_balance(2, 100);
        let t = tx(0, 0, 1, 10);
        l.apply(&t).expect("first apply");
        let err = l.apply(&t).expect_err("duplicate");
        assert_eq!(
            err,
            ApplyError::SequenceNumberTooOld {
                expected: 1,
                got: 0
            }
        );
        assert_eq!(l.balance(AccountId::new(1)), 110, "no double spend");
    }

    #[test]
    fn nonce_gap_rejected_as_too_new() {
        let mut l = Ledger::with_uniform_balance(2, 100);
        let err = l.apply(&tx(0, 5, 1, 10)).expect_err("gap");
        assert!(matches!(
            err,
            ApplyError::SequenceNumberTooNew {
                expected: 0,
                got: 5
            }
        ));
    }

    #[test]
    fn overdraft_rejected_and_ledger_unchanged() {
        let mut l = Ledger::with_uniform_balance(2, 5);
        let err = l.apply(&tx(0, 0, 1, 10)).expect_err("overdraft");
        assert!(matches!(
            err,
            ApplyError::InsufficientFunds {
                balance: 5,
                needed: 10
            }
        ));
        assert_eq!(l.next_nonce(AccountId::new(0)), 0, "nonce not consumed");
        assert_eq!(l.total_supply(), 10);
    }

    #[test]
    fn supply_is_conserved() {
        let mut l = Ledger::with_uniform_balance(3, 1000);
        let initial = l.total_supply();
        for nonce in 0..10 {
            l.apply(&tx(0, nonce, 1, 7)).expect("transfer");
            l.apply(&tx(1, nonce, 2, 3)).expect("transfer");
        }
        assert_eq!(l.total_supply(), initial);
    }

    #[test]
    fn apply_batch_skips_failures() {
        let mut l = Ledger::with_uniform_balance(2, 100);
        let good = tx(0, 0, 1, 10);
        let dup = tx(0, 0, 1, 10);
        let next = tx(0, 1, 1, 10);
        let applied = l.apply_batch([&good, &dup, &next]);
        assert_eq!(applied, vec![good.id(), next.id()]);
        assert_eq!(l.executed(), 2);
    }

    #[test]
    fn check_does_not_mutate() {
        let l = Ledger::with_uniform_balance(2, 100);
        let t = tx(0, 0, 1, 10);
        l.check(&t).expect("valid");
        assert_eq!(l.executed(), 0);
        assert_eq!(l.next_nonce(AccountId::new(0)), 0);
    }

    #[test]
    fn lazy_balance_funds_unseen_accounts() {
        let mut l = Ledger::with_lazy_balance(1_000);
        // Account 123456 was never inserted, yet it can spend.
        l.apply(&tx(123_456, 0, 7, 30)).expect("lazily funded");
        assert_eq!(l.balance(AccountId::new(123_456)), 970);
        assert_eq!(l.balance(AccountId::new(7)), 1_030);
        assert_eq!(l.balance(AccountId::new(42)), 1_000, "untouched default");
        // Only the touched accounts are materialized.
        assert_eq!(l.total_supply(), 2_000);
    }

    #[test]
    fn error_display() {
        let e = ApplyError::SequenceNumberTooOld {
            expected: 2,
            got: 1,
        };
        assert_eq!(e.to_string(), "sequence number too old: expected 2, got 1");
    }
}
