//! The simulated Solana validator: slot-clocked leader pipeline without a
//! mempool, tower-style voting and rooting, and the Epoch-Accounts-Hash
//! state machine whose violated precondition crashes every node after a
//! transient outage (paper §5).

use std::collections::{BTreeMap, BTreeSet};

use stabl_sim::{ContentionStats, Ctx, NodeId, Protocol, SimTime};
use stabl_types::{AccountPool, Block, Hash32, Ledger, Transaction, TxId};

use crate::outbox::Outbox;
use crate::{schedule, SolanaConfig};

/// Wire messages of the simulated Solana network.
#[derive(Clone, Debug)]
pub enum SolanaMsg {
    /// Transactions forwarded to a scheduled leader (no mempool).
    Forward {
        /// The forwarded transactions.
        txs: Vec<Transaction>,
    },
    /// A leader's block for its slot.
    BlockMsg {
        /// The slot the block was produced in.
        slot: u64,
        /// The produced block.
        block: Block,
    },
    /// A validator's vote on a slot's block.
    Vote {
        /// The voted slot.
        slot: u64,
        /// Hash of the voted block.
        hash: Hash32,
    },
    /// Catch-up request from a restarted validator.
    SyncRequest {
        /// First slot the requester is missing.
        from_slot: u64,
    },
    /// Catch-up response with confirmed blocks.
    SyncResponse {
        /// Confirmed (slot, block) pairs in slot order.
        blocks: Vec<(u64, Block)>,
    },
}

/// Timer tokens of the Solana node.
#[derive(Clone, Debug)]
pub enum SolanaTimer {
    /// Start of a slot.
    SlotTick {
        /// The slot that starts.
        slot: u64,
    },
    /// Leader block production point within our slot.
    Produce {
        /// The slot we lead.
        slot: u64,
    },
}

/// Epoch-Accounts-Hash progress for one epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EahState {
    /// Calculation started from a rooted bank in this epoch.
    Started,
}

/// A simulated Solana validator node.
#[derive(Debug)]
pub struct SolanaNode {
    id: NodeId,
    config: SolanaConfig,
    // Bank state.
    blocks: BTreeMap<u64, Block>,
    votes: BTreeMap<u64, BTreeMap<Hash32, BTreeSet<NodeId>>>,
    voted_slots: BTreeSet<u64>,
    confirmed: BTreeSet<u64>,
    highest_confirmed: u64,
    root: u64,
    ledger: Ledger,
    // Epoch-Accounts-Hash (durable: derived from snapshots on disk).
    eah: BTreeMap<u64, EahState>,
    // Leader pipeline: the per-slot buffer of forwarded transactions.
    buffer: AccountPool,
    // RPC outbox: client transactions pending confirmation.
    outbox: Outbox,
    current_slot: u64,
    // Stake distribution (leader slots and vote quorums are weighted).
    stakes: Vec<u64>,
    stake_quorum: u64,
}

impl SolanaNode {
    /// The slot the node believes is current.
    pub fn current_slot(&self) -> u64 {
        self.current_slot
    }

    /// The highest confirmed slot.
    pub fn highest_confirmed(&self) -> u64 {
        self.highest_confirmed
    }

    /// The highest rooted slot.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// The node's ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Client transactions waiting for confirmation at this RPC node.
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    fn slot_at(&self, now: SimTime) -> u64 {
        now.as_micros() / self.config.slot_duration.as_micros()
    }

    fn leader_for(&self, slot: u64) -> NodeId {
        schedule::leader_for_weighted(
            self.config.leader_seed,
            &self.config.schedule,
            slot,
            &self.stakes,
        )
    }

    /// The stake voting for `hash` at `slot`.
    fn voted_stake(&self, voters: &std::collections::BTreeSet<NodeId>) -> u64 {
        voters.iter().map(|v| self.stakes[v.index()]).sum()
    }

    fn handle_slot_start(&mut self, slot: u64, ctx: &mut Ctx<'_, Self>) {
        self.current_slot = slot;
        ctx.gauge("slot", slot);
        ctx.gauge("client_backlog", self.outbox.len() as u64);
        self.run_eah_checks(slot, ctx);
        // Leader duty: produce the slot's block three quarters in, after
        // forwarded transactions had time to arrive.
        if self.leader_for(slot) == self.id {
            ctx.span("leader-slot");
            let produce_at = self.config.slot_duration.mul_f64(0.75);
            ctx.set_timer(produce_at, SolanaTimer::Produce { slot });
        }
        self.flush_outbox(slot, ctx);
        ctx.set_timer(
            self.config.slot_duration,
            SolanaTimer::SlotTick { slot: slot + 1 },
        );
        // Garbage-collect old vote state.
        let keep_from = self.root.saturating_sub(64);
        self.votes.retain(|s, _| *s >= keep_from);
        self.blocks
            .retain(|s, _| *s + 256 >= keep_from + 256 && *s >= keep_from);
    }

    /// The Epoch-Accounts-Hash state machine. The calculation must start
    /// from a bank rooted *inside* the epoch at the quarter mark; at the
    /// three-quarter mark `wait_get_epoch_accounts_hash` aborts the
    /// validator if no calculation is in flight — it cannot be started
    /// retroactively (anza-xyz/agave#1491).
    fn run_eah_checks(&mut self, slot: u64, ctx: &mut Ctx<'_, Self>) {
        let epoch = self.config.schedule.epoch_of(slot);
        if slot == self.config.schedule.eah_start_slot(epoch) {
            let epoch_start = self.config.schedule.first_slot(epoch);
            // Genesis counts as rooted for epoch 0.
            if self.root >= epoch_start || epoch == 0 {
                self.eah.insert(epoch, EahState::Started);
            }
        }
        if slot == self.config.schedule.eah_stop_slot(epoch) && !self.eah.contains_key(&epoch) {
            ctx.panic_node(format!(
                "wait_get_epoch_accounts_hash: EAH for epoch {epoch} neither complete nor \
                 in flight (no bank rooted at the start of the epoch)"
            ));
        }
    }

    /// Forwards pending outbox transactions to the current and upcoming
    /// leaders (Solana has no mempool; RPC nodes retry every slot).
    fn flush_outbox(&mut self, slot: u64, ctx: &mut Ctx<'_, Self>) {
        if self.outbox.is_empty() {
            return;
        }
        let batch: Vec<Transaction> = self
            .outbox
            .iter()
            .take(self.config.resend_batch)
            .copied()
            .collect();
        let mut targets: Vec<NodeId> = Vec::new();
        for s in slot..=slot + self.config.forward_lookahead {
            let leader = self.leader_for(s);
            if !targets.contains(&leader) {
                targets.push(leader);
            }
        }
        for leader in targets {
            if leader == self.id {
                for tx in &batch {
                    self.buffer.insert(*tx);
                }
            } else {
                ctx.send(leader, SolanaMsg::Forward { txs: batch.clone() });
            }
        }
    }

    fn produce_block(&mut self, slot: u64, ctx: &mut Ctx<'_, Self>) {
        ctx.span("produce");
        ctx.gauge("mempool_depth", self.buffer.len() as u64);
        let txs = self.buffer.take_ready(self.config.max_block_txs);
        let parent = self
            .blocks
            .values()
            .next_back()
            .map(Block::hash)
            .unwrap_or(Hash32::ZERO);
        let block = Block::new(parent, slot, self.id, txs);
        ctx.broadcast(SolanaMsg::BlockMsg {
            slot,
            block: block.clone(),
        });
        self.handle_block(slot, block, ctx);
    }

    fn handle_block(&mut self, slot: u64, block: Block, ctx: &mut Ctx<'_, Self>) {
        if self.confirmed.contains(&slot) || slot < self.root {
            return;
        }
        let hash = block.hash();
        self.blocks.insert(slot, block);
        if self.voted_slots.insert(slot) {
            ctx.broadcast(SolanaMsg::Vote { slot, hash });
            self.record_vote(self.id, slot, hash, ctx);
        }
    }

    fn record_vote(&mut self, from: NodeId, slot: u64, hash: Hash32, ctx: &mut Ctx<'_, Self>) {
        if self.confirmed.contains(&slot) {
            return;
        }
        let votes = self.votes.entry(slot).or_default().entry(hash).or_default();
        votes.insert(from);
        let voted = self.voted_stake(&self.votes[&slot][&hash]);
        if voted >= self.stake_quorum {
            self.confirm(slot, ctx);
        }
    }

    fn confirm(&mut self, slot: u64, ctx: &mut Ctx<'_, Self>) {
        let Some(block) = self.blocks.get(&slot).cloned() else {
            return;
        };
        if !self.confirmed.insert(slot) {
            return;
        }
        let mut settled = Vec::with_capacity(block.len());
        for tx in block.txs() {
            match self.ledger.apply(tx) {
                Ok(id) => {
                    ctx.commit(id);
                    self.buffer.mark_committed(tx.from(), tx.nonce() + 1);
                    settled.push(id);
                }
                Err(stabl_types::ApplyError::SequenceNumberTooOld { .. }) => {
                    settled.push(tx.id());
                }
                Err(_) => {} // nonce gap: the origin RPC node will retry
            }
        }
        self.outbox.remove_all(&settled);
        self.highest_confirmed = self.highest_confirmed.max(slot);
        self.root = self.root.max(
            self.highest_confirmed
                .saturating_sub(self.config.root_lag_slots),
        );
    }

    fn handle_sync_request(&mut self, from: NodeId, from_slot: u64, ctx: &mut Ctx<'_, Self>) {
        let blocks: Vec<(u64, Block)> = self
            .blocks
            .range(from_slot..)
            .filter(|(slot, _)| self.confirmed.contains(slot))
            .take(64)
            .map(|(slot, block)| (*slot, block.clone()))
            .collect();
        if !blocks.is_empty() {
            ctx.send(from, SolanaMsg::SyncResponse { blocks });
        }
    }

    fn handle_sync_response(&mut self, blocks: Vec<(u64, Block)>, ctx: &mut Ctx<'_, Self>) {
        for (slot, block) in blocks {
            if self.confirmed.contains(&slot) {
                continue;
            }
            self.blocks.insert(slot, block);
            self.confirm(slot, ctx);
        }
    }
}

impl Protocol for SolanaNode {
    type Msg = SolanaMsg;
    type Request = Transaction;
    type Commit = TxId;
    type Timer = SolanaTimer;
    type Config = SolanaConfig;

    fn new(id: NodeId, n: usize, config: &SolanaConfig, ctx: &mut Ctx<'_, Self>) -> Self {
        let stakes = config.stakes_for(n);
        let stake_quorum = config.stake_quorum(stakes.iter().sum());
        let mut node = SolanaNode {
            id,
            config: config.clone(),
            blocks: BTreeMap::new(),
            votes: BTreeMap::new(),
            voted_slots: BTreeSet::new(),
            confirmed: BTreeSet::new(),
            highest_confirmed: 0,
            root: 0,
            ledger: Ledger::genesis(),
            eah: BTreeMap::new(),
            buffer: AccountPool::new(config.outbox_capacity),
            outbox: Outbox::default(),
            current_slot: 0,
            stakes,
            stake_quorum,
        };
        node.handle_slot_start(0, ctx);
        node
    }

    fn on_message(&mut self, from: NodeId, msg: SolanaMsg, ctx: &mut Ctx<'_, Self>) {
        match msg {
            SolanaMsg::Forward { txs } => {
                for tx in txs {
                    self.buffer.insert(tx);
                }
            }
            SolanaMsg::BlockMsg { slot, block } => self.handle_block(slot, block, ctx),
            SolanaMsg::Vote { slot, hash } => self.record_vote(from, slot, hash, ctx),
            SolanaMsg::SyncRequest { from_slot } => self.handle_sync_request(from, from_slot, ctx),
            SolanaMsg::SyncResponse { blocks } => self.handle_sync_response(blocks, ctx),
        }
    }

    fn on_timer(&mut self, timer: SolanaTimer, ctx: &mut Ctx<'_, Self>) {
        match timer {
            SolanaTimer::SlotTick { slot } => self.handle_slot_start(slot, ctx),
            SolanaTimer::Produce { slot } => self.produce_block(slot, ctx),
        }
    }

    fn on_request(&mut self, tx: Transaction, ctx: &mut Ctx<'_, Self>) {
        if self.ledger.next_nonce(tx.from()) > tx.nonce()
            || self.outbox.len() >= self.config.outbox_capacity
            || !self.outbox.push(tx)
        {
            return;
        }
        // Forward immediately as well as on the next slot ticks.
        let slot = self.slot_at(ctx.now());
        let leader = self.leader_for(slot);
        if leader == self.id {
            self.buffer.insert(tx);
        } else {
            ctx.send(leader, SolanaMsg::Forward { txs: vec![tx] });
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Self>) {
        let now_slot = self.slot_at(ctx.now());
        self.current_slot = now_slot;
        // Volatile state is gone.
        self.buffer.clear_pending();
        self.outbox.clear();
        self.votes.clear();
        self.voted_slots.clear();
        // Restart validation: replaying into an epoch whose EAH start
        // point has passed without a calculation aborts the validator
        // (anza-xyz/agave#1491 — "validator fails to restart").
        let epoch = self.config.schedule.epoch_of(now_slot);
        if now_slot >= self.config.schedule.eah_start_slot(epoch) && !self.eah.contains_key(&epoch)
        {
            ctx.panic_node(format!(
                "wait_get_epoch_accounts_hash on restart: EAH for epoch {epoch} was never \
                 started (node was down at the start slot)"
            ));
            return;
        }
        // Resume the slot clock at the next boundary and catch up.
        let next_slot = now_slot + 1;
        let boundary = SimTime::from_micros(next_slot * self.config.slot_duration.as_micros());
        ctx.set_timer(
            boundary.saturating_since(ctx.now()),
            SolanaTimer::SlotTick { slot: next_slot },
        );
        ctx.broadcast(SolanaMsg::SyncRequest {
            from_slot: self.root,
        });
    }

    fn contention_stats(&self) -> ContentionStats {
        self.buffer.contention_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabl_sim::{NodeStatus, SimDuration, Simulation};
    use stabl_types::AccountId;
    use std::collections::HashSet as Set;

    fn sim(n: usize, seed: u64) -> Simulation<SolanaNode> {
        Simulation::new(n, seed, SolanaConfig::default())
    }

    fn submit_stream(
        sim: &mut Simulation<SolanaNode>,
        accounts: u32,
        tps: u64,
        from: u64,
        to: u64,
    ) {
        let targets = (sim.n() as u64 / 2).max(1);
        let period_us = 1_000_000 / tps;
        let mut nonces = vec![0u64; accounts as usize];
        let mut at = SimTime::from_secs(from);
        let mut k = 0u64;
        while at < SimTime::from_secs(to) {
            let acct = (k % accounts as u64) as u32;
            let tx = Transaction::transfer(
                AccountId::new(acct),
                nonces[acct as usize],
                AccountId::new(200 + acct),
                1,
            );
            nonces[acct as usize] += 1;
            sim.schedule_request(at, NodeId::new((k % targets) as u32), tx);
            at += SimDuration::from_micros(period_us);
            k += 1;
        }
    }

    fn unique_commits_at(sim: &Simulation<SolanaNode>, node: u32) -> usize {
        sim.commits()
            .iter()
            .filter(|c| c.node == NodeId::new(node))
            .map(|c| c.commit)
            .collect::<Set<TxId>>()
            .len()
    }

    #[test]
    fn commits_offered_load_in_baseline() {
        let mut s = sim(10, 1);
        submit_stream(&mut s, 10, 100, 1, 11);
        s.run_until(SimTime::from_secs(20));
        assert_eq!(unique_commits_at(&s, 0), 1000);
        assert!(s.panics().is_empty(), "no EAH panic in a healthy run");
    }

    #[test]
    fn baseline_survives_warmup_epoch_boundaries() {
        let mut s = sim(10, 2);
        submit_stream(&mut s, 10, 50, 1, 115);
        // Runs through epochs 0..3 and the EAH start check of epoch 3
        // (slot 288, t = 115.2 s).
        s.run_until(SimTime::from_secs(120));
        assert!(s.panics().is_empty(), "panics: {:?}", s.panics());
        assert_eq!(unique_commits_at(&s, 0), 5700);
    }

    #[test]
    fn latency_is_subsecond_in_baseline() {
        let mut s = sim(10, 3);
        let tx = Transaction::transfer(AccountId::new(0), 0, AccountId::new(1), 1);
        s.schedule_request(SimTime::from_secs(5), NodeId::new(0), tx);
        s.run_until(SimTime::from_secs(10));
        let commit = s
            .commits()
            .iter()
            .find(|c| c.commit == tx.id() && c.node == NodeId::new(0))
            .expect("committed");
        let latency = commit.time - SimTime::from_secs(5);
        assert!(
            latency < SimDuration::from_millis(1500),
            "latency {latency}"
        );
    }

    #[test]
    fn crashed_leaders_make_throughput_bursty_but_no_panic() {
        let mut s = sim(10, 4);
        submit_stream(&mut s, 10, 100, 1, 60);
        for i in 5..8u32 {
            s.schedule_crash(SimTime::from_secs(20), NodeId::new(i)); // f = t = 3
        }
        s.run_until(SimTime::from_secs(80));
        assert!(
            s.panics().is_empty(),
            "rooting continues with 7/10: {:?}",
            s.panics()
        );
        assert_eq!(
            unique_commits_at(&s, 0),
            5900,
            "all load commits despite dead leaders"
        );
        // Dead-leader slots produce nothing: per-slot (400 ms) commit
        // buckets show far more empty slots after the crash.
        let bucket_of = |t: SimTime| (t.as_micros() / 400_000) as usize;
        let mut buckets = vec![0u32; bucket_of(SimTime::from_secs(80)) + 1];
        for c in s.commits().iter().filter(|c| c.node == NodeId::new(0)) {
            buckets[bucket_of(c.time)] += 1;
        }
        let empty_in = |from: u64, to: u64| {
            (bucket_of(SimTime::from_secs(from))..bucket_of(SimTime::from_secs(to)))
                .filter(|&b| buckets[b] == 0)
                .count()
        };
        let before = empty_in(4, 19);
        let after = empty_in(24, 59);
        assert!(
            after as f64 / 35.0 > before as f64 / 15.0 + 0.15,
            "expected more dead slots after the crash: before {before}/15s, after {after}/35s"
        );
    }

    #[test]
    fn transient_outage_panics_every_node() {
        let mut s = sim(10, 5);
        submit_stream(&mut s, 10, 100, 1, 300);
        // f = t + 1 = 4 transient failures spanning the start check of
        // warmup epoch 4 (slot 608, t = 243.2 s): rooting stalls, the
        // EAH never starts, and the whole cluster dies.
        for i in 5..9u32 {
            s.schedule_crash(SimTime::from_secs(150), NodeId::new(i));
            s.schedule_restart(SimTime::from_secs(250), NodeId::new(i));
        }
        s.run_until(SimTime::from_secs(360));
        // The restarted nodes abort on restart; the others at the stop
        // slot of epoch 4 (slot 864, t = 345.6 s).
        for i in 0..10u32 {
            assert_eq!(
                s.status(NodeId::new(i)),
                NodeStatus::Panicked,
                "node {i} should have aborted"
            );
        }
        let late_commits = s
            .commits()
            .iter()
            .filter(|c| c.time > SimTime::from_secs(160))
            .count();
        assert_eq!(late_commits, 0, "no quorum, then no validators at all");
    }

    #[test]
    fn partition_also_ends_in_cluster_panic() {
        let mut s = sim(10, 6);
        submit_stream(&mut s, 10, 100, 1, 300);
        let isolated: Vec<NodeId> = (5..9u32).map(NodeId::new).collect();
        s.schedule_partition(SimTime::from_secs(150), SimTime::from_secs(250), isolated);
        s.run_until(SimTime::from_secs(360));
        let panicked = (0..10u32)
            .filter(|i| s.status(NodeId::new(*i)) == NodeStatus::Panicked)
            .count();
        assert_eq!(panicked, 10, "EAH stop slot of epoch 4 aborts the cluster");
    }

    #[test]
    fn forwarding_reaches_future_leaders_when_current_is_dead() {
        let mut s = sim(10, 7);
        // Find a slot led by node 9, crash node 9, submit during its
        // slot: the transaction still commits through the next leaders.
        s.schedule_crash(SimTime::from_secs(4), NodeId::new(9));
        submit_stream(&mut s, 5, 50, 5, 15);
        s.run_until(SimTime::from_secs(25));
        assert_eq!(unique_commits_at(&s, 0), 500);
    }

    #[test]
    fn crashing_a_whale_stalls_despite_being_one_node() {
        // Stake centralisation: node 9 holds 40% of the stake. Crashing
        // it alone (far below the nominal t = 3 *node* threshold) takes
        // the network under the 2/3 *stake* supermajority and halts
        // confirmations — fault tolerance is about stake, not machines.
        let config = SolanaConfig {
            stakes: Some(vec![1, 1, 1, 1, 1, 1, 1, 1, 1, 6]),
            ..SolanaConfig::default()
        };
        let mut s = Simulation::<SolanaNode>::new(10, 10, config);
        let mut nonces = [0u64; 10];
        let mut at = SimTime::from_secs(1);
        let mut k = 0u64;
        while at < SimTime::from_secs(30) {
            let acct = (k % 10) as u32;
            let tx = Transaction::transfer(
                AccountId::new(acct),
                nonces[acct as usize],
                AccountId::new(200 + acct),
                1,
            );
            nonces[acct as usize] += 1;
            s.schedule_request(at, NodeId::new((k % 5) as u32), tx);
            at += SimDuration::from_millis(10);
            k += 1;
        }
        s.schedule_crash(SimTime::from_secs(10), NodeId::new(9));
        s.run_until(SimTime::from_secs(30));
        let late = s
            .commits()
            .iter()
            .filter(|c| c.time > SimTime::from_secs(12))
            .count();
        assert_eq!(late, 0, "9/15 stake is below the 2/3 supermajority");
    }

    #[test]
    fn restart_within_t_and_with_eah_state_survives() {
        // One node (f < t) restarts at 30 s: it was up at epoch 1's EAH
        // start slot (19.2 s), so the restart check passes, it resyncs
        // and the cluster stays healthy through later epoch boundaries.
        let mut s = sim(10, 9);
        submit_stream(&mut s, 10, 100, 1, 60);
        s.schedule_crash(SimTime::from_secs(22), NodeId::new(9));
        s.schedule_restart(SimTime::from_secs(30), NodeId::new(9));
        s.run_until(SimTime::from_secs(70));
        assert!(s.panics().is_empty(), "panics: {:?}", s.panics());
        assert_eq!(unique_commits_at(&s, 0), 5900, "all load commits");
        assert_eq!(s.status(NodeId::new(9)), NodeStatus::Running);
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut s = sim(4, seed);
            submit_stream(&mut s, 4, 50, 1, 5);
            s.run_until(SimTime::from_secs(10));
            s.commits()
                .iter()
                .map(|c| (c.time.as_micros(), c.node.as_u32()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn replicas_converge() {
        let mut s = sim(10, 8);
        submit_stream(&mut s, 10, 100, 1, 20);
        s.run_until(SimTime::from_secs(30));
        let executed: Set<u64> = (0..10u32)
            .map(|i| s.node(NodeId::new(i)).ledger().executed())
            .collect();
        assert_eq!(executed.len(), 1, "diverged: {executed:?}");
    }
}
