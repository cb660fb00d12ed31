//! The replicated account ledger each node executes committed blocks on.

use std::collections::btree_map::Entry;
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

/// One materialised account: its balance and the next sequence number
/// it may spend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Account {
    balance: u64,
    next_nonce: u64,
}

impl Account {
    /// An account on first touch: the lazy default balance, nothing
    /// spent yet.
    const fn fresh(balance: u64) -> Account {
        Account {
            balance,
            next_nonce: 0,
        }
    }

    /// [`Ledger::check`] against this account as the sender.
    fn check(&self, tx: &Transaction) -> Result<(), ApplyError> {
        let expected = self.next_nonce;
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
        if self.balance < tx.amount() {
            return Err(ApplyError::InsufficientFunds {
                balance: self.balance,
                needed: tx.amount(),
            });
        }
        Ok(())
    }

    /// Checks `tx` and, if it passes, debits its amount and spends its
    /// nonce; the account is unchanged on failure.
    fn debit(&mut self, tx: &Transaction) -> Result<(), ApplyError> {
        self.check(tx)?;
        self.balance -= tx.amount();
        self.next_nonce = tx.nonce() + 1;
        Ok(())
    }
}

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
    /// Every materialised account: funded at construction, or touched
    /// by an executed transfer as its sender or recipient.
    accounts: BTreeMap<AccountId, Account>,
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
        Ledger {
            accounts: (0..accounts)
                .map(|i| (AccountId::new(i), Account::fresh(balance)))
                .collect(),
            ..Ledger::new()
        }
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

    /// The account as the next transfer would see it: materialised, or
    /// fresh at the lazy default.
    fn account(&self, account: AccountId) -> Account {
        self.accounts
            .get(&account)
            .copied()
            .unwrap_or(Account::fresh(self.default_balance))
    }

    /// The balance of `account` (the lazy default if never touched).
    pub fn balance(&self, account: AccountId) -> u64 {
        self.account(account).balance
    }

    /// The next sequence number expected from `account`.
    pub fn next_nonce(&self, account: AccountId) -> u64 {
        self.account(account).next_nonce
    }

    /// Number of transactions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Total supply across all *materialized* accounts (conserved by
    /// transfers between them; lazily-funded accounts join the sum when
    /// first touched).
    pub fn total_supply(&self) -> u64 {
        self.accounts.values().map(|account| account.balance).sum()
    }

    /// Checks whether `tx` would execute without applying it.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Ledger::apply`].
    pub fn check(&self, tx: &Transaction) -> Result<(), ApplyError> {
        self.account(tx.from()).check(tx)
    }

    /// Executes `tx`, returning its id on success. One tree walk finds
    /// (or places) the sender, one the recipient.
    ///
    /// # Errors
    ///
    /// Fails with [`ApplyError::SequenceNumberTooOld`] on duplicates,
    /// [`ApplyError::SequenceNumberTooNew`] on nonce gaps, and
    /// [`ApplyError::InsufficientFunds`] on overdrafts; the ledger is
    /// unchanged on failure.
    pub fn apply(&mut self, tx: &Transaction) -> Result<TxId, ApplyError> {
        let fresh = Account::fresh(self.default_balance);
        match self.accounts.entry(tx.from()) {
            Entry::Occupied(mut sender) => sender.get_mut().debit(tx)?,
            Entry::Vacant(slot) => {
                // Materialise the sender only once the transfer passed.
                let mut sender = fresh;
                sender.debit(tx)?;
                slot.insert(sender);
            }
        }
        self.accounts.entry(tx.to()).or_insert(fresh).balance += tx.amount();
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

    use proptest::prelude::*;

    /// Which constructor a model-based case starts from.
    fn genesis_kind() -> impl Strategy<Value = u8> {
        0u8..3
    }

    fn build(kind: u8) -> (Ledger, reference::TwoMapLedger) {
        match kind {
            0 => (Ledger::new(), reference::TwoMapLedger::new()),
            1 => (
                Ledger::with_uniform_balance(4, 50),
                reference::TwoMapLedger::with_uniform_balance(4, 50),
            ),
            _ => (
                Ledger::with_lazy_balance(40),
                reference::TwoMapLedger::with_lazy_balance(40),
            ),
        }
    }

    /// A transfer among six accounts whose nonce is near the sender's
    /// next one (so duplicates, gaps and valid spends all occur) and
    /// whose amount sometimes overdraws; self-transfers included.
    fn transfer() -> impl Strategy<Value = (u32, u32, u64, u64)> {
        (0u32..6, 0u32..6, 0u64..6, 0u64..60)
    }

    proptest! {
        /// The one-map ledger and the two-map reference agree on every
        /// verdict, balance, nonce, `executed` and `total_supply` after
        /// every step, and on `==` between two ledgers that executed
        /// overlapping histories.
        #[test]
        fn one_map_ledger_matches_the_two_map_reference(
            kind in genesis_kind(),
            ops in proptest::collection::vec(transfer(), 0..64),
            keep in proptest::collection::vec(proptest::bool::ANY, 64..65),
        ) {
            let (mut ledger, mut model) = build(kind);
            let (mut other, mut other_model) = build(kind);
            for (step, (from, to, nonce, amount)) in ops.into_iter().enumerate() {
                let tx = tx(from, nonce, to, amount);
                prop_assert_eq!(ledger.check(&tx), model.check(&tx));
                prop_assert_eq!(ledger.apply(&tx), model.apply(&tx), "verdict for {}", tx);
                if keep[step] {
                    prop_assert_eq!(other.apply(&tx), other_model.apply(&tx));
                }
                prop_assert_eq!(ledger.executed(), model.executed());
                prop_assert_eq!(ledger.total_supply(), model.total_supply());
                for account in (0..7).map(AccountId::new) {
                    prop_assert_eq!(ledger.balance(account), model.balance(account));
                    prop_assert_eq!(ledger.next_nonce(account), model.next_nonce(account));
                }
                prop_assert_eq!(ledger == other, model == other_model);
            }
        }
    }

    /// The ledger as it was before the one-map rewrite — a balance map
    /// and a nonce map walked five times per transfer — retained as the
    /// reference model the rewrite is checked against.
    mod reference {
        use std::collections::BTreeMap;

        use crate::{AccountId, ApplyError, Transaction, TxId};

        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct TwoMapLedger {
            balances: BTreeMap<AccountId, u64>,
            nonces: BTreeMap<AccountId, u64>,
            executed: u64,
            default_balance: u64,
        }

        impl TwoMapLedger {
            pub fn new() -> TwoMapLedger {
                TwoMapLedger::default()
            }

            pub fn with_uniform_balance(accounts: u32, balance: u64) -> TwoMapLedger {
                let mut ledger = TwoMapLedger::new();
                for i in 0..accounts {
                    ledger.balances.insert(AccountId::new(i), balance);
                }
                ledger
            }

            pub fn with_lazy_balance(balance: u64) -> TwoMapLedger {
                TwoMapLedger {
                    default_balance: balance,
                    ..TwoMapLedger::new()
                }
            }

            pub fn balance(&self, account: AccountId) -> u64 {
                self.balances
                    .get(&account)
                    .copied()
                    .unwrap_or(self.default_balance)
            }

            pub fn next_nonce(&self, account: AccountId) -> u64 {
                self.nonces.get(&account).copied().unwrap_or(0)
            }

            pub fn executed(&self) -> u64 {
                self.executed
            }

            pub fn total_supply(&self) -> u64 {
                self.balances.values().sum()
            }

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

            pub fn apply(&mut self, tx: &Transaction) -> Result<TxId, ApplyError> {
                self.check(tx)?;
                let default = self.default_balance;
                *self.balances.entry(tx.from()).or_insert(default) -= tx.amount();
                *self.balances.entry(tx.to()).or_insert(default) += tx.amount();
                self.nonces.insert(tx.from(), tx.nonce() + 1);
                self.executed += 1;
                Ok(tx.id())
            }
        }
    }
}
