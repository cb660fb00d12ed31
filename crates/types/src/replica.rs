//! What a simulated validator keeps on disk, and the serial executor
//! that applies it: [`Replica`].

use std::collections::VecDeque;

use stabl_sim::{SimDuration, SimTime};

use crate::{ApplyError, Ledger, Transaction, TxId};

/// A validator's durable state — the committed chain, the ledger and the
/// height the ledger reflects — plus the volatile execution timeline
/// that a restart rebuilds from them.
///
/// Algorand, Aptos and Redbelly agree on blocks in very different ways
/// but treat an agreed block identically: append it to the chain, queue
/// it behind whatever is still executing, and later apply its
/// transactions to the ledger in height order. The owning chain decides
/// what a block costs, arms its own timer for the instant
/// [`Replica::append`] returns and calls [`Replica::drain`] when it
/// fires.
///
/// Heights are 1-based: the first appended block has height 1 and
/// `height() == 0` is the empty chain. Plain data, so a node holding one
/// stays `Clone`.
///
/// # Examples
///
/// ```
/// use stabl_sim::{SimDuration, SimTime};
/// use stabl_types::{AccountId, Replica, Transaction};
///
/// let mut replica: Replica<Vec<Transaction>> = Replica::genesis();
/// let tx = Transaction::transfer(AccountId::new(0), 0, AccountId::new(1), 1);
/// let done_at = replica.append(SimTime::ZERO, vec![tx], SimDuration::from_millis(5));
/// assert_eq!((replica.height(), replica.executed_height()), (1, 0));
/// let mut executed = Vec::new();
/// replica.drain(done_at, |outcome| executed.push(outcome));
/// assert_eq!(executed, [Ok(tx.id())]);
/// assert_eq!(replica.executed_height(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Replica<B> {
    // Durable: survives a restart.
    chain: Vec<B>,
    ledger: Ledger,
    executed_height: u64,
    // Volatile: rebuilt by `restart`.
    /// When the executor finishes everything queued so far.
    busy_until: SimTime,
    /// `(height, done_at)` of blocks not yet applied. Heights are
    /// consecutive and `done_at` never decreases (each entry starts
    /// where the previous one ends), so the front is always the next
    /// one due.
    queue: VecDeque<(u64, SimTime)>,
}

impl<B: AsRef<[Transaction]>> Replica<B> {
    /// An empty chain over the [`Ledger::genesis`] ledger.
    pub fn genesis() -> Self {
        Replica {
            chain: Vec::new(),
            ledger: Ledger::genesis(),
            executed_height: 0,
            busy_until: SimTime::ZERO,
            queue: VecDeque::new(),
        }
    }

    /// The committed chain height (number of blocks appended).
    pub fn height(&self) -> u64 {
        self.chain.len() as u64
    }

    /// The height up to which blocks have been applied to the ledger.
    pub fn executed_height(&self) -> u64 {
        self.executed_height
    }

    /// The ledger as of [`Replica::executed_height`].
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The most recently appended block.
    pub fn tip(&self) -> Option<&B> {
        self.chain.last()
    }

    /// Blocks appended but not yet applied.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Appends `block` as height `height() + 1` and queues its
    /// execution, which takes `cost` once the executor is free; returns
    /// the instant it completes (arm a timer for it).
    pub fn append(&mut self, now: SimTime, block: B, cost: SimDuration) -> SimTime {
        self.chain.push(block);
        self.schedule(now, self.height(), cost)
    }

    fn schedule(&mut self, now: SimTime, height: u64, cost: SimDuration) -> SimTime {
        let done_at = self.busy_until.max(now) + cost;
        self.busy_until = done_at;
        self.queue.push_back((height, done_at));
        done_at
    }

    /// Applies every queued block whose execution has completed by
    /// `now`, in height order, handing `on_tx` the outcome of each
    /// transaction (a block may carry stale duplicates, which fail
    /// without touching the ledger). Completions from before a restart
    /// are never seen here: [`Replica::restart`] discards them.
    pub fn drain(&mut self, now: SimTime, mut on_tx: impl FnMut(Result<TxId, ApplyError>)) {
        while let Some(&(height, done_at)) = self.queue.front() {
            if done_at > now {
                break;
            }
            self.queue.pop_front();
            debug_assert_eq!(height, self.executed_height + 1, "queue is consecutive");
            for tx in self.chain[(height - 1) as usize].as_ref() {
                on_tx(self.ledger.apply(tx));
            }
            self.executed_height = height;
        }
    }

    /// Up to `limit` consecutive committed blocks starting at
    /// `from_height` — one state-sync response. Empty when `from_height`
    /// is 0 or beyond the chain.
    pub fn page(&self, from_height: u64, limit: usize) -> &[B] {
        if from_height == 0 || from_height > self.height() {
            return &[];
        }
        let start = (from_height - 1) as usize;
        &self.chain[start..(start + limit).min(self.chain.len())]
    }

    /// Restart from disk at `now`: forgets the execution timeline and
    /// re-queues every committed-but-unapplied block
    /// (`executed_height() + 1 ..= height()`) at `cost_of(block)` each;
    /// returns their completion instants in height order (arm a timer
    /// for each).
    pub fn restart(
        &mut self,
        now: SimTime,
        mut cost_of: impl FnMut(&B) -> SimDuration,
    ) -> Vec<SimTime> {
        self.queue.clear();
        self.busy_until = now;
        (self.executed_height + 1..=self.height())
            .map(|height| {
                let cost = cost_of(&self.chain[(height - 1) as usize]);
                self.schedule(now, height, cost)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccountId;
    use proptest::prelude::*;

    type Batch = Vec<Transaction>;

    /// A batch of `len` transfers from account 0 continuing at `nonce`.
    fn batch(nonce: u64, len: u64) -> Batch {
        (nonce..nonce + len)
            .map(|n| Transaction::transfer(AccountId::new(0), n, AccountId::new(9), 1))
            .collect()
    }

    fn ms(millis: u64) -> SimDuration {
        SimDuration::from_millis(millis)
    }

    fn at(millis: u64) -> SimTime {
        SimTime::from_millis(millis)
    }

    #[test]
    fn blocks_serialise_and_apply_in_height_order() {
        let mut r: Replica<Batch> = Replica::genesis();
        let d1 = r.append(at(0), batch(0, 2), ms(20));
        let d2 = r.append(at(0), batch(2, 1), ms(20));
        assert_eq!((d1, d2, r.backlog()), (at(20), at(40), 2));
        let mut seen = Vec::new();
        r.drain(at(5), |o| seen.push(o));
        assert!(seen.is_empty(), "nothing done yet");
        r.drain(d1, |o| seen.push(o));
        assert_eq!((seen.len(), r.executed_height(), r.backlog()), (2, 1, 1));
        r.drain(d2, |o| seen.push(o));
        assert_eq!((seen.len(), r.executed_height(), r.backlog()), (3, 2, 0));
        assert!(seen.iter().all(Result::is_ok));
        assert_eq!(r.ledger().executed(), 3);
        // Idle time is not charged: the executor was free again at 40.
        assert_eq!(r.append(at(100), batch(3, 1), ms(5)), at(105));
    }

    #[test]
    fn restart_requeues_exactly_the_unexecuted_suffix() {
        let mut r: Replica<Batch> = Replica::genesis();
        let d1 = r.append(at(0), batch(0, 1), ms(10));
        r.append(at(0), batch(1, 2), ms(10));
        r.append(at(0), batch(3, 3), ms(10));
        r.drain(d1, |_| {});
        // Crash with heights 2 and 3 committed but unexecuted; replay
        // costs 1 ms per transaction.
        let replayed = r.restart(at(1_000), |b| ms(b.len() as u64));
        assert_eq!(replayed, [at(1_002), at(1_005)]);
        assert_eq!(r.backlog(), 2);
        // The pre-restart completion instants (20, 30) mean nothing now.
        r.drain(at(1_001), |_| panic!("nothing has re-executed yet"));
        r.drain(at(1_005), |_| {});
        assert_eq!((r.executed_height(), r.backlog()), (3, 0));
        assert!(r.restart(at(2_000), |_| ms(1)).is_empty(), "fully executed");
    }

    #[test]
    fn page_edges() {
        let mut r: Replica<Batch> = Replica::genesis();
        assert!(r.page(1, 10).is_empty(), "empty chain has no height 1");
        for h in 0..5 {
            r.append(at(0), batch(h, 1), ms(1));
        }
        let first_nonces =
            |page: &[Batch]| -> Vec<u64> { page.iter().map(|b| b[0].nonce()).collect() };
        assert!(r.page(0, 10).is_empty(), "heights are 1-based");
        assert_eq!(first_nonces(r.page(1, 10)), [0, 1, 2, 3, 4]);
        assert_eq!(first_nonces(r.page(1, 2)), [0, 1]);
        assert_eq!(first_nonces(r.page(r.height(), 10)), [4]);
        assert!(r.page(r.height() + 1, 10).is_empty());
        assert_eq!(r.tip().map(|b| b[0].nonce()), Some(4));
    }

    /// The scheduling, drain and replay code as Algorand and Redbelly
    /// carried it inline (three copies each) before the kit existed —
    /// kept as the reference the kit is checked against.
    #[derive(Default)]
    struct InlineReference {
        chain: Vec<Batch>,
        ledger: Ledger,
        executed_height: u64,
        exec_busy_until: SimTime,
        exec_queue: Vec<(u64, SimTime)>,
    }

    impl InlineReference {
        fn commit(&mut self, now: SimTime, block: Batch, cost: SimDuration) -> SimTime {
            let start = self.exec_busy_until.max(now);
            let done_at = start + cost;
            self.exec_busy_until = done_at;
            self.exec_queue.push((self.chain.len() as u64 + 1, done_at));
            self.chain.push(block);
            done_at
        }

        fn drain_executor(&mut self, now: SimTime) -> Vec<Result<TxId, ApplyError>> {
            let mut outcomes = Vec::new();
            while let Some(pos) = self.exec_queue.iter().position(|(_, at)| *at <= now) {
                let (height, _) = self.exec_queue.remove(pos);
                if height != self.executed_height + 1 {
                    continue;
                }
                let block = self.chain[(height - 1) as usize].clone();
                for tx in &block {
                    outcomes.push(self.ledger.apply(tx));
                }
                self.executed_height = height;
            }
            outcomes
        }

        fn on_restart(&mut self, now: SimTime, per_tx: SimDuration) -> Vec<SimTime> {
            self.exec_queue.clear();
            self.exec_busy_until = now;
            let mut armed = Vec::new();
            for height in self.executed_height + 1..=self.chain.len() as u64 {
                let txs_len = self.chain[(height - 1) as usize].len();
                let cost = per_tx * txs_len as u64;
                let start = self.exec_busy_until.max(now);
                let done_at = start + cost;
                self.exec_busy_until = done_at;
                self.exec_queue.push((height, done_at));
                armed.push(done_at);
            }
            armed
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// Advance the clock, then append a block of `txs` transactions
        /// (every third one a stale copy) costing `cost_ms`.
        Append {
            wait_ms: u64,
            txs: u64,
            cost_ms: u64,
        },
        /// Advance the clock, then drain.
        Drain { wait_ms: u64 },
        /// Advance the clock, then restart with this replay cost.
        Restart { wait_ms: u64, per_tx_ms: u64 },
    }

    /// Four appends to three drains to one restart; zero costs and
    /// zero waits included, so completion instants tie.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..8, 0u64..40, 0u64..6, 0u64..30).prop_map(|(kind, wait_ms, txs, cost_ms)| match kind {
            0..=3 => Op::Append {
                wait_ms,
                txs,
                cost_ms,
            },
            4..=6 => Op::Drain { wait_ms },
            _ => Op::Restart {
                wait_ms,
                per_tx_ms: cost_ms % 4,
            },
        })
    }

    proptest! {
        /// Kit and inline reference agree on every completion instant,
        /// every per-transaction outcome in order, and the executed
        /// height and ledger after every step of a random
        /// append / drain / restart sequence.
        #[test]
        fn kit_matches_the_inline_reference(ops in proptest::collection::vec(op(), 0..64)) {
            let mut kit: Replica<Batch> = Replica::genesis();
            let mut model = InlineReference { ledger: Ledger::genesis(), ..Default::default() };
            let (mut now, mut nonce) = (SimTime::ZERO, 0u64);
            for op in ops {
                match op {
                    Op::Append { wait_ms, txs, cost_ms } => {
                        now += ms(wait_ms);
                        let mut block = batch(nonce, txs);
                        nonce += txs;
                        for i in (0..block.len()).step_by(3) {
                            block.push(block[i]);
                        }
                        prop_assert_eq!(
                            kit.append(now, block.clone(), ms(cost_ms)),
                            model.commit(now, block, ms(cost_ms))
                        );
                    }
                    Op::Drain { wait_ms } => {
                        now += ms(wait_ms);
                        let mut outcomes = Vec::new();
                        kit.drain(now, |o| outcomes.push(o));
                        prop_assert_eq!(outcomes, model.drain_executor(now));
                    }
                    Op::Restart { wait_ms, per_tx_ms } => {
                        now += ms(wait_ms);
                        let first = kit.executed_height() + 1;
                        let replayed = kit.restart(now, |b| ms(per_tx_ms) * b.len() as u64);
                        prop_assert_eq!(&replayed, &model.on_restart(now, ms(per_tx_ms)));
                        prop_assert_eq!(replayed.len() as u64, kit.height() + 1 - first);
                    }
                }
                prop_assert_eq!(kit.height(), model.chain.len() as u64);
                prop_assert_eq!(kit.executed_height(), model.executed_height);
                prop_assert_eq!(kit.backlog(), model.exec_queue.len());
                prop_assert_eq!(kit.ledger(), &model.ledger);
            }
        }
    }
}
