//! The simulated Aptos validator: DiemBFT consensus (round-based,
//! leader-based, quadratic view change), shared mempool, Block-STM
//! executor timing and Aptos' fast-recovery connection management.

use std::collections::{BTreeMap, BTreeSet};

use stabl_sim::{ConnectionManager, ContentionStats, Ctx, NodeId, Protocol, SimTime};
use stabl_types::{AccountPool, Block, Hash32, Replica, Transaction, TxId};

use crate::{AptosConfig, BlockStmExecutor};

/// Wire messages of the simulated Aptos network.
#[derive(Clone, Debug)]
pub enum AptosMsg {
    /// Shared-mempool transaction broadcast.
    TxGossip(Transaction),
    /// Leader's block proposal for a (height, round).
    Proposal {
        /// Chain height being decided.
        height: u64,
        /// DiemBFT round within the height.
        round: u64,
        /// The proposed block.
        block: Block,
    },
    /// First-phase vote on a proposal.
    Vote {
        /// Chain height being decided.
        height: u64,
        /// DiemBFT round within the height.
        round: u64,
        /// Hash of the voted block.
        hash: Hash32,
    },
    /// Second-phase (commit) vote once a quorum certificate formed.
    CommitVote {
        /// Chain height being decided.
        height: u64,
        /// DiemBFT round within the height.
        round: u64,
        /// Hash of the certified block.
        hash: Hash32,
    },
    /// Pacemaker timeout for a round (the quadratic view-change path).
    Timeout {
        /// Chain height being decided.
        height: u64,
        /// Round that timed out.
        round: u64,
    },
    /// State-sync request: send me committed blocks from this height on.
    SyncRequest {
        /// First height the requester is missing.
        from_height: u64,
    },
    /// State-sync response carrying a batch of committed blocks.
    SyncResponse {
        /// Consecutive committed blocks starting at the requested height.
        blocks: Vec<Block>,
    },
    /// Connection keep-alive.
    Heartbeat,
    /// Reconnection attempt.
    Dial,
    /// Reconnection acknowledgement.
    DialAck,
}

/// Timer tokens of the Aptos node.
#[derive(Clone, Debug)]
pub enum AptosTimer {
    /// Pacemaker deadline for (height, round).
    Round {
        /// Height the timer was armed in.
        height: u64,
        /// Round the timer was armed in.
        round: u64,
    },
    /// Leader batching delay before proposing in (height, round).
    Propose {
        /// Height the timer was armed in.
        height: u64,
        /// Round the timer was armed in.
        round: u64,
    },
    /// A Block-STM execution completion instant.
    ExecDone,
    /// Periodic connection-manager tick.
    ConnTick,
}

/// A simulated Aptos validator node.
#[derive(Debug)]
pub struct AptosNode {
    id: NodeId,
    n: usize,
    config: AptosConfig,
    /// The committed chain, the ledger and the execution pipeline.
    replica: Replica<Block>,
    // Consensus state (volatile).
    height: u64,
    round: u64,
    consecutive_failures: u32,
    proposal: Option<Block>,
    voted: bool,
    commit_voted: bool,
    votes: BTreeMap<Hash32, BTreeSet<NodeId>>,
    commit_votes: BTreeMap<Hash32, BTreeSet<NodeId>>,
    timeouts: BTreeSet<NodeId>,
    // Leader reputation.
    strikes: Vec<u32>,
    excluded_until: Vec<SimTime>,
    // Mempool and execution.
    pool: AccountPool,
    executor: BlockStmExecutor,
    // Networking.
    conn: ConnectionManager,
    syncing: bool,
}

impl AptosNode {
    fn quorum(&self) -> usize {
        self.n * 2 / 3 + 1
    }

    /// Number of pending mempool transactions.
    pub fn mempool_len(&self) -> usize {
        self.pool.len()
    }

    /// The node's durable state: the committed blocks, the ledger and
    /// the height executed so far.
    pub fn replica(&self) -> &Replica<Block> {
        &self.replica
    }

    /// Stale (`SEQUENCE_NUMBER_TOO_OLD`) re-executions observed.
    pub fn stale_reexecutions(&self) -> u64 {
        self.executor.stale_reexecutions()
    }

    /// The round the pacemaker is currently in.
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// The leader scheduled for `(height, round)` given the local
    /// reputation state: round-robin over non-excluded validators.
    fn scheduled_leader(&self, height: u64, round: u64, now: SimTime) -> NodeId {
        let active: Vec<NodeId> = NodeId::all(self.n)
            .filter(|p| self.excluded_until[p.index()] <= now)
            .collect();
        if active.is_empty() {
            return NodeId::new(((height + round) % self.n as u64) as u32);
        }
        active[((height + round) % active.len() as u64) as usize]
    }

    fn round_timeout(&self) -> stabl_sim::SimDuration {
        let factor = (self.config.timeout_factor_permille as f64 / 1000.0)
            .powi(self.consecutive_failures as i32);
        self.config
            .round_timeout
            .mul_f64(factor)
            .min(self.config.timeout_cap)
    }

    fn enter_round(&mut self, height: u64, round: u64, ctx: &mut Ctx<'_, Self>) {
        ctx.span("bft-round");
        ctx.gauge("round", round);
        ctx.gauge("height", height);
        ctx.gauge("mempool_depth", self.pool.len() as u64);
        ctx.gauge("connections", self.conn.connected_peers().len() as u64);
        self.height = height;
        self.round = round;
        self.proposal = None;
        self.voted = false;
        self.commit_voted = false;
        self.votes.clear();
        self.commit_votes.clear();
        self.timeouts.clear();
        ctx.set_timer(self.round_timeout(), AptosTimer::Round { height, round });
        if self.scheduled_leader(height, round, ctx.now()) == self.id {
            ctx.set_timer(
                self.config.propose_delay,
                AptosTimer::Propose { height, round },
            );
        }
    }

    fn propose(&mut self, ctx: &mut Ctx<'_, Self>) {
        ctx.span("propose");
        let txs = self.pool.take_ready(self.config.max_block_txs);
        let parent = self.replica.tip().map_or(Hash32::ZERO, Block::hash);
        let block = Block::new(parent, self.height, self.id, txs);
        let msg = AptosMsg::Proposal {
            height: self.height,
            round: self.round,
            block: block.clone(),
        };
        ctx.multicast(self.conn.connected_peers(), msg);
        self.handle_proposal(self.id, self.height, self.round, block, ctx);
    }

    /// Adopts a higher round observed in a peer's message (round
    /// synchronisation — lets restarted validators rejoin the pacemaker).
    fn maybe_catch_up_round(&mut self, height: u64, round: u64, ctx: &mut Ctx<'_, Self>) {
        if height == self.height && round > self.round {
            self.enter_round(height, round, ctx);
        }
    }

    fn handle_proposal(
        &mut self,
        from: NodeId,
        height: u64,
        round: u64,
        block: Block,
        ctx: &mut Ctx<'_, Self>,
    ) {
        if height != self.height || round != self.round || self.proposal.is_some() {
            if height > self.height && !self.syncing {
                self.syncing = true;
                self.request_sync(from, ctx);
            }
            return;
        }
        let hash = block.hash();
        self.proposal = Some(block);
        if !self.voted {
            self.voted = true;
            let msg = AptosMsg::Vote {
                height,
                round,
                hash,
            };
            ctx.multicast(self.conn.connected_peers(), msg);
            self.handle_vote(self.id, height, round, hash, ctx);
        }
    }

    fn handle_vote(
        &mut self,
        from: NodeId,
        height: u64,
        round: u64,
        hash: Hash32,
        ctx: &mut Ctx<'_, Self>,
    ) {
        if height != self.height || round != self.round {
            return;
        }
        let votes = self.votes.entry(hash).or_default();
        votes.insert(from);
        if votes.len() >= self.quorum() && !self.commit_voted {
            self.commit_voted = true;
            let msg = AptosMsg::CommitVote {
                height,
                round,
                hash,
            };
            ctx.multicast(self.conn.connected_peers(), msg);
            self.handle_commit_vote(self.id, height, round, hash, ctx);
        }
    }

    fn handle_commit_vote(
        &mut self,
        from: NodeId,
        height: u64,
        round: u64,
        hash: Hash32,
        ctx: &mut Ctx<'_, Self>,
    ) {
        if height != self.height || round != self.round {
            return;
        }
        let votes = self.commit_votes.entry(hash).or_default();
        votes.insert(from);
        if votes.len() >= self.quorum() {
            match &self.proposal {
                Some(block) if block.hash() == hash => {
                    let block = block.clone();
                    self.commit_block(block, ctx);
                }
                _ => {
                    // Certified but the proposal never arrived: fetch it.
                    if !self.syncing {
                        self.syncing = true;
                        self.request_sync(from, ctx);
                    }
                }
            }
        }
    }

    /// Appends an agreed block to the chain and schedules its Block-STM
    /// execution.
    fn append_block(&mut self, block: Block, ctx: &mut Ctx<'_, Self>) {
        for tx in block.txs() {
            self.pool.mark_committed(tx.from(), tx.nonce() + 1);
        }
        let cost = self.executor.block_cost(ctx.now(), &block);
        let done_at = self.replica.append(ctx.now(), block, cost);
        ctx.set_timer(done_at - ctx.now(), AptosTimer::ExecDone);
    }

    fn commit_block(&mut self, block: Block, ctx: &mut Ctx<'_, Self>) {
        debug_assert_eq!(block.height(), self.replica.height() + 1);
        self.append_block(block, ctx);
        self.consecutive_failures = 0;
        let next = self.replica.height() + 1;
        self.enter_round(next, 0, ctx);
    }

    fn handle_timeout_msg(
        &mut self,
        from: NodeId,
        height: u64,
        round: u64,
        ctx: &mut Ctx<'_, Self>,
    ) {
        if height != self.height {
            return;
        }
        if round > self.round {
            // Join the higher round and immediately declare our own
            // timeout for it, so a timeout certificate can form.
            self.enter_round(height, round, ctx);
            self.declare_timeout(ctx);
        }
        if round == self.round {
            self.timeouts.insert(from);
            if self.timeouts.len() >= self.quorum() {
                self.advance_after_timeout(ctx);
            }
        }
    }

    fn declare_timeout(&mut self, ctx: &mut Ctx<'_, Self>) {
        let msg = AptosMsg::Timeout {
            height: self.height,
            round: self.round,
        };
        ctx.multicast(self.conn.connected_peers(), msg);
        self.timeouts.insert(self.id);
        if self.timeouts.len() >= self.quorum() {
            self.advance_after_timeout(ctx);
        }
    }

    fn advance_after_timeout(&mut self, ctx: &mut Ctx<'_, Self>) {
        // Strike the leader whose round failed (leader reputation).
        let leader = self.scheduled_leader(self.height, self.round, ctx.now());
        let strikes = &mut self.strikes[leader.index()];
        *strikes += 1;
        if *strikes >= self.config.reputation_strikes {
            *strikes = 0;
            self.excluded_until[leader.index()] = ctx.now() + self.config.reputation_window;
        }
        self.consecutive_failures += 1;
        let (h, r) = (self.height, self.round + 1);
        self.enter_round(h, r, ctx);
    }

    fn handle_sync_request(&mut self, from: NodeId, from_height: u64, ctx: &mut Ctx<'_, Self>) {
        let blocks = self.replica.page(from_height.max(1), 50).to_vec();
        if !blocks.is_empty() {
            ctx.send(from, AptosMsg::SyncResponse { blocks });
        }
    }

    fn handle_sync_response(&mut self, from: NodeId, blocks: Vec<Block>, ctx: &mut Ctx<'_, Self>) {
        let mut advanced = false;
        for block in blocks {
            if block.height() == self.replica.height() + 1 {
                self.append_block(block, ctx);
                advanced = true;
            }
        }
        self.syncing = false;
        if advanced {
            let next = self.replica.height() + 1;
            self.enter_round(next, 0, ctx);
            // Possibly still behind: ask for more.
            self.request_sync(from, ctx);
            self.syncing = true;
        }
    }

    fn run_conn_tick(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.conn.upkeep(ctx, AptosMsg::Heartbeat, AptosMsg::Dial);
        ctx.set_timer(self.config.conn_tick, AptosTimer::ConnTick);
    }

    /// Asks `peer` for the committed blocks above our chain.
    fn request_sync(&self, peer: NodeId, ctx: &mut Ctx<'_, Self>) {
        let from_height = self.replica.height() + 1;
        ctx.send(peer, AptosMsg::SyncRequest { from_height });
    }

    /// A peer we had lost contact with is back: resynchronise.
    fn on_reconnected(&mut self, peer: NodeId, ctx: &mut Ctx<'_, Self>) {
        self.request_sync(peer, ctx);
        // Share our pacemaker position so the peer can catch up rounds.
        ctx.send(
            peer,
            AptosMsg::Timeout {
                height: self.height,
                round: self.round,
            },
        );
    }

    fn drain_executor(&mut self, ctx: &mut Ctx<'_, Self>) {
        let (executor, stale_cost) = (&mut self.executor, self.config.stale_exec_cost);
        self.replica.drain(ctx.now(), |outcome| match outcome {
            Ok(id) => ctx.commit(id),
            // SEQUENCE_NUMBER_TOO_OLD (or a gap): charged as a
            // speculative re-execution.
            Err(_) => executor.charge_stale(ctx.now(), stale_cost),
        });
    }
}

impl Protocol for AptosNode {
    type Msg = AptosMsg;
    type Request = Transaction;
    type Commit = TxId;
    type Timer = AptosTimer;
    type Config = AptosConfig;

    fn new(id: NodeId, n: usize, config: &AptosConfig, ctx: &mut Ctx<'_, Self>) -> Self {
        let mut node = AptosNode {
            id,
            n,
            config: config.clone(),
            replica: Replica::genesis(),
            height: 1,
            round: 0,
            consecutive_failures: 0,
            proposal: None,
            voted: false,
            commit_voted: false,
            votes: BTreeMap::new(),
            commit_votes: BTreeMap::new(),
            timeouts: BTreeSet::new(),
            strikes: vec![0; n],
            excluded_until: vec![SimTime::ZERO; n],
            pool: AccountPool::new(config.mempool_capacity),
            executor: BlockStmExecutor::new(
                config.exec_per_tx,
                config.exec_per_block,
                config.model_contention,
            ),
            conn: ConnectionManager::new(id, n, config.conn),
            syncing: false,
        };
        node.enter_round(1, 0, ctx);
        ctx.set_timer(node.config.conn_tick, AptosTimer::ConnTick);
        node
    }

    fn on_message(&mut self, from: NodeId, msg: AptosMsg, ctx: &mut Ctx<'_, Self>) {
        if self.conn.on_heard(from, ctx.now()) {
            self.on_reconnected(from, ctx);
        }
        match msg {
            AptosMsg::TxGossip(tx) => {
                // Shared-mempool ingestion costs executor time; stale
                // copies of committed transactions trigger the
                // SEQUENCE_NUMBER_TOO_OLD speculative path.
                if self.pool.is_stale(&tx) {
                    self.executor
                        .charge_stale(ctx.now(), self.config.stale_exec_cost);
                } else {
                    self.executor.charge(ctx.now(), self.config.validation_cost);
                    self.pool.insert(tx);
                }
            }
            AptosMsg::Proposal {
                height,
                round,
                block,
            } => {
                self.maybe_catch_up_round(height, round, ctx);
                self.handle_proposal(from, height, round, block, ctx);
            }
            AptosMsg::Vote {
                height,
                round,
                hash,
            } => {
                self.maybe_catch_up_round(height, round, ctx);
                self.handle_vote(from, height, round, hash, ctx);
            }
            AptosMsg::CommitVote {
                height,
                round,
                hash,
            } => {
                self.maybe_catch_up_round(height, round, ctx);
                self.handle_commit_vote(from, height, round, hash, ctx);
            }
            AptosMsg::Timeout { height, round } => {
                self.handle_timeout_msg(from, height, round, ctx);
            }
            AptosMsg::SyncRequest { from_height } => {
                self.handle_sync_request(from, from_height, ctx);
            }
            AptosMsg::SyncResponse { blocks } => {
                self.handle_sync_response(from, blocks, ctx);
            }
            AptosMsg::Heartbeat => {}
            AptosMsg::Dial => ctx.send(from, AptosMsg::DialAck),
            AptosMsg::DialAck => {}
        }
    }

    fn on_timer(&mut self, timer: AptosTimer, ctx: &mut Ctx<'_, Self>) {
        match timer {
            AptosTimer::Round { height, round } => {
                if height == self.height && round == self.round {
                    // Re-arm so timeouts keep being re-broadcast while the
                    // network lacks a quorum (DiemBFT keeps signalling).
                    ctx.set_timer(self.round_timeout(), AptosTimer::Round { height, round });
                    self.declare_timeout(ctx);
                }
            }
            AptosTimer::Propose { height, round } => {
                if height == self.height && round == self.round && self.proposal.is_none() {
                    self.propose(ctx);
                }
            }
            AptosTimer::ExecDone => self.drain_executor(ctx),
            AptosTimer::ConnTick => self.run_conn_tick(ctx),
        }
    }

    fn on_request(&mut self, tx: Transaction, ctx: &mut Ctx<'_, Self>) {
        // RPC path: validate + speculatively dispatch, then share through
        // the mempool broadcast.
        if self.pool.is_stale(&tx) {
            self.executor
                .charge_stale(ctx.now(), self.config.stale_exec_cost);
            return;
        }
        self.executor.charge(ctx.now(), self.config.validation_cost);
        if self.pool.insert(tx) {
            ctx.multicast(self.conn.connected_peers(), AptosMsg::TxGossip(tx));
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Self>) {
        // Volatile state is gone; the chain and ledger are durable.
        self.pool.clear_pending();
        self.executor.reset(ctx.now());
        self.proposal = None;
        self.votes.clear();
        self.commit_votes.clear();
        self.timeouts.clear();
        self.voted = false;
        self.commit_voted = false;
        self.consecutive_failures = 0;
        self.syncing = false;
        self.strikes = vec![0; self.n];
        self.excluded_until = vec![SimTime::ZERO; self.n];
        // Ledger reflects only executed blocks: re-execute the committed
        // suffix that had not finished executing before the crash.
        let (executor, now) = (&mut self.executor, ctx.now());
        for done_at in self
            .replica
            .restart(now, |block| executor.block_cost(now, block))
        {
            ctx.set_timer(done_at - now, AptosTimer::ExecDone);
        }
        // Active recovery: dial everyone immediately and resync.
        self.conn.redial_all(ctx.now());
        let next = self.replica.height() + 1;
        self.enter_round(next, 0, ctx);
        ctx.set_timer(self.config.conn_tick, AptosTimer::ConnTick);
        self.run_conn_tick(ctx);
        ctx.multicast(
            self.conn.connected_peers(),
            AptosMsg::SyncRequest {
                from_height: self.replica.height() + 1,
            },
        );
    }

    fn contention_stats(&self) -> ContentionStats {
        ContentionStats {
            // Every conflict abort re-runs speculatively, on top of the
            // SEQUENCE_NUMBER_TOO_OLD re-executions of stale copies.
            speculative_reexecutions: self.executor.stale_reexecutions()
                + self.executor.conflict_aborts(),
            conflict_aborts: self.executor.conflict_aborts(),
            ..self.pool.contention_stats()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabl_sim::{NodeStatus, SimDuration, Simulation};
    use stabl_types::AccountId;

    fn sim(n: usize, seed: u64) -> Simulation<AptosNode> {
        Simulation::new(n, seed, AptosConfig::default())
    }

    fn submit_stream(sim: &mut Simulation<AptosNode>, accounts: u32, tps: u64, from: u64, to: u64) {
        // `tps` transactions per second spread over `accounts` senders,
        // submitted round-robin to the first half of the nodes.
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

    #[test]
    fn commits_offered_load_in_baseline() {
        let mut sim = sim(10, 1);
        submit_stream(&mut sim, 10, 100, 1, 11);
        sim.run_until(SimTime::from_secs(20));
        // 1000 txs, each committed by all 10 nodes.
        let unique: std::collections::HashSet<TxId> =
            sim.commits().iter().map(|c| c.commit).collect();
        assert_eq!(unique.len(), 1000, "all offered transactions commit");
        let node0 = sim.node(NodeId::new(0));
        assert!(node0.replica().height() > 10, "chain advances");
        assert_eq!(node0.replica().ledger().executed(), 1000);
    }

    #[test]
    fn latency_is_subsecond_in_baseline() {
        let mut sim = sim(10, 2);
        let tx = Transaction::transfer(AccountId::new(0), 0, AccountId::new(1), 1);
        sim.schedule_request(SimTime::from_secs(5), NodeId::new(0), tx);
        sim.run_until(SimTime::from_secs(10));
        let commit = sim
            .commits()
            .iter()
            .find(|c| c.commit == tx.id() && c.node == NodeId::new(0))
            .expect("tx committed at the receiving node");
        let latency = commit.time - SimTime::from_secs(5);
        assert!(latency < SimDuration::from_secs(2), "latency {latency}");
    }

    #[test]
    fn survives_f_crashes_with_quorum() {
        let mut sim = sim(10, 3);
        submit_stream(&mut sim, 10, 100, 1, 30);
        for i in 5..8u32 {
            sim.schedule_crash(SimTime::from_secs(10), NodeId::new(i));
        }
        sim.run_until(SimTime::from_secs(45));
        let unique: std::collections::HashSet<TxId> = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0))
            .map(|c| c.commit)
            .collect();
        assert_eq!(unique.len(), 2900, "all load commits despite f=3 crashes");
    }

    #[test]
    fn halts_without_quorum_then_recovers() {
        let mut sim = sim(10, 4);
        submit_stream(&mut sim, 10, 100, 1, 60);
        for i in 5..9u32 {
            sim.schedule_crash(SimTime::from_secs(10), NodeId::new(i)); // f = 4 > t
            sim.schedule_restart(SimTime::from_secs(40), NodeId::new(i));
        }
        sim.run_until(SimTime::from_secs(120));
        // During the outage nothing commits.
        let during = sim
            .commits()
            .iter()
            .filter(|c| c.time > SimTime::from_secs(14) && c.time < SimTime::from_secs(40))
            .count();
        assert_eq!(during, 0, "no quorum, no commits");
        // After the restart the backlog eventually drains.
        let unique: std::collections::HashSet<TxId> = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0))
            .map(|c| c.commit)
            .collect();
        assert_eq!(unique.len(), 5900, "backlog cleared after recovery");
        assert_eq!(sim.status(NodeId::new(5)), NodeStatus::Running);
    }

    #[test]
    fn recovers_from_partition() {
        let mut sim = sim(10, 5);
        submit_stream(&mut sim, 10, 100, 1, 60);
        let isolated: Vec<NodeId> = (5..9u32).map(NodeId::new).collect();
        sim.schedule_partition(SimTime::from_secs(10), SimTime::from_secs(40), isolated);
        sim.run_until(SimTime::from_secs(120));
        let unique: std::collections::HashSet<TxId> = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0))
            .map(|c| c.commit)
            .collect();
        assert_eq!(
            unique.len(),
            5900,
            "all load commits after the partition heals"
        );
    }

    #[test]
    fn crashed_leader_rounds_time_out_and_reputation_excludes() {
        let mut sim = sim(4, 6);
        submit_stream(&mut sim, 4, 50, 1, 20);
        sim.schedule_crash(SimTime::from_secs(5), NodeId::new(3)); // t = 1 for n=4
        sim.run_until(SimTime::from_secs(30));
        let node0 = sim.node(NodeId::new(0));
        // Node 3's proposer turns timed out at least reputation_strikes
        // times before being excluded, and the chain still advanced.
        assert!(node0.replica().height() > 20);
        let unique: std::collections::HashSet<TxId> = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0))
            .map(|c| c.commit)
            .collect();
        assert_eq!(unique.len(), 950);
    }

    #[test]
    fn duplicate_submissions_are_deduplicated() {
        let mut sim = sim(4, 7);
        let tx = Transaction::transfer(AccountId::new(0), 0, AccountId::new(1), 5);
        for node in 0..4u32 {
            sim.schedule_request(SimTime::from_secs(1), NodeId::new(node), tx);
        }
        sim.run_until(SimTime::from_secs(10));
        for node in 0..4u32 {
            let commits = sim
                .commits()
                .iter()
                .filter(|c| c.node == NodeId::new(node) && c.commit == tx.id())
                .count();
            assert_eq!(commits, 1, "node {node} commits the transfer exactly once");
        }
        let total: u64 = (0..4u32)
            .map(|i| sim.node(NodeId::new(i)).replica().ledger().executed())
            .sum();
        assert_eq!(total, 4, "each replica executed the transfer once");
    }

    #[test]
    fn stale_submission_after_commit_charges_reexecution() {
        let mut sim = sim(4, 8);
        let tx = Transaction::transfer(AccountId::new(0), 0, AccountId::new(1), 5);
        sim.schedule_request(SimTime::from_secs(1), NodeId::new(0), tx);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.node(NodeId::new(0)).stale_reexecutions(), 0);
        // Resubmitting an already-committed transfer hits the
        // SEQUENCE_NUMBER_TOO_OLD speculative path.
        sim.schedule_request(SimTime::from_secs(5), NodeId::new(0), tx);
        sim.run_until(SimTime::from_secs(6));
        assert!(
            sim.node(NodeId::new(0)).stale_reexecutions() >= 1,
            "stale submission must be charged"
        );
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
}
