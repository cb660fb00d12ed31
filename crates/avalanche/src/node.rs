//! The simulated Avalanche validator: Snowball polling over block
//! proposals, randomised transaction gossip and the inbound throttler.

use std::collections::{BTreeMap, VecDeque};

use stabl_sim::{ContentionStats, Ctx, NodeId, Protocol, SimTime};
use stabl_types::{AccountPool, Block, Hash32, Ledger, Transaction, TxId};

use crate::pending::PendingTxs;
use crate::throttle::Admission;
use crate::{AvalancheConfig, InboundThrottler, Snowball};

/// Wire messages of the simulated Avalanche network.
#[derive(Clone, Debug)]
pub enum AvalancheMsg {
    /// First-hop / epidemic announcement of fresh transactions.
    AnnounceTxs {
        /// The announced transactions.
        txs: Vec<Transaction>,
    },
    /// Periodic re-gossip of stale pending transactions (drawn in
    /// effectively random order, like coreth's `legacypool`).
    RegossipTxs {
        /// The re-gossiped transactions.
        txs: Vec<Transaction>,
    },
    /// A validator's block proposal for a height.
    Proposal {
        /// The height the block is proposed for.
        height: u64,
        /// The proposed block.
        block: Block,
    },
    /// Snowball poll: "what block do you prefer at `height`?".
    Query {
        /// Poll identifier (local to the querier).
        id: u64,
        /// The polled height.
        height: u64,
    },
    /// Snowball poll response.
    Chit {
        /// The poll this answers.
        id: u64,
        /// The responder's preference, if it has one.
        preference: Option<Hash32>,
    },
    /// Gossip that a height was decided.
    Accepted {
        /// The decided height.
        height: u64,
        /// Hash of the accepted block.
        hash: Hash32,
    },
    /// Request for committed blocks starting at a height (bootstrap).
    BlockRequest {
        /// First height requested.
        height: u64,
    },
    /// One committed block.
    BlockResponse {
        /// The block's height.
        height: u64,
        /// The committed block.
        block: Block,
    },
}

/// Timer tokens of the Avalanche node.
#[derive(Clone, Debug)]
pub enum AvalancheTimer {
    /// Block production cadence.
    BlockTick,
    /// Snowball poll cadence.
    QueryTick,
    /// Announce batching cadence.
    AnnounceTick,
    /// Stale re-gossip cadence.
    RegossipTick,
    /// Parked-message drain attempt.
    Drain,
    /// A poll's chit collection deadline.
    QueryDeadline {
        /// The poll to finalise.
        id: u64,
    },
}

#[derive(Debug)]
struct Poll {
    height: u64,
    values: Vec<Hash32>,
    received: usize,
    expected: usize,
}

/// A simulated Avalanche validator node.
#[derive(Debug)]
pub struct AvalancheNode {
    id: NodeId,
    n: usize,
    config: AvalancheConfig,
    k_eff: usize,
    alpha_eff: usize,
    // Chain state.
    chain: Vec<Block>,
    ledger: Ledger,
    // Current-height consensus.
    proposals: BTreeMap<Hash32, Block>,
    snowball: Snowball,
    proposed: Option<Hash32>,
    pending_decided: Option<Hash32>,
    // Transaction gossip.
    pool: AccountPool,
    pending: PendingTxs,
    announce_queue: Vec<Transaction>,
    // Throttling.
    throttler: InboundThrottler,
    parked: VecDeque<(NodeId, AvalancheMsg)>,
    drain_armed: bool,
    // Polling.
    outstanding: BTreeMap<u64, Poll>,
    next_poll: u64,
}

impl AvalancheNode {
    /// The committed chain height.
    pub fn chain_height(&self) -> u64 {
        self.chain.len() as u64
    }

    /// The height currently under Snowball agreement.
    pub fn current_height(&self) -> u64 {
        self.chain_height() + 1
    }

    /// Pending pool transactions.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// The node's ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Messages parked by the CPU throttler right now.
    pub fn throttled_backlog(&self) -> usize {
        self.parked.len()
    }

    /// Read-only view of the tracked CPU usage (diagnostics).
    pub fn cpu_usage_peek(&self, now: SimTime) -> f64 {
        self.throttler.usage_peek(now)
    }

    /// Messages dropped by the buffer throttler so far.
    pub fn throttled_drops(&self) -> u64 {
        self.throttler.dropped_total()
    }

    /// Messages deferred by the CPU throttler so far.
    pub fn throttled_defers(&self) -> u64 {
        self.throttler.deferred_total()
    }

    /// Failed Snowball polls so far (current height instance only).
    pub fn failed_polls(&self) -> u64 {
        self.snowball.failed_polls()
    }

    fn cost_of(&self, msg: &AvalancheMsg) -> f64 {
        match msg {
            AvalancheMsg::AnnounceTxs { txs } | AvalancheMsg::RegossipTxs { txs } => {
                self.config.cost_per_tx * txs.len() as f64
            }
            AvalancheMsg::Proposal { block, .. } => {
                self.config.cost_proposal_base
                    + self.config.cost_proposal_per_tx * block.len() as f64
            }
            AvalancheMsg::Query { .. }
            | AvalancheMsg::Chit { .. }
            | AvalancheMsg::Accepted { .. } => self.config.cost_query,
            AvalancheMsg::BlockRequest { .. } => self.config.cost_proposal_base,
            AvalancheMsg::BlockResponse { block, .. } => {
                self.config.cost_proposal_base
                    + self.config.cost_proposal_per_tx * block.len() as f64
            }
        }
    }

    /// `count` distinct peers drawn uniformly: indices into the `n − 1`
    /// other nodes in id order, so index `i` is node `i`, or `i + 1` at
    /// and above this node's own id.
    fn sample_peers(&self, ctx: &mut Ctx<'_, Self>, count: usize) -> Vec<NodeId> {
        let me = self.id.index();
        let peers = self.n - 1;
        ctx.rng()
            .sample_indices(peers, count.min(peers))
            .into_iter()
            .map(|i| NodeId::new((i + usize::from(i >= me)) as u32))
            .collect()
    }

    fn insert_pending(&mut self, tx: Transaction, now: SimTime, announce: bool) {
        if self.pool.insert(tx) {
            self.pending.insert(tx, now);
            if announce {
                self.announce_queue.push(tx);
            }
        }
    }

    fn dispatch(&mut self, from: NodeId, msg: AvalancheMsg, ctx: &mut Ctx<'_, Self>) {
        match msg {
            AvalancheMsg::AnnounceTxs { txs } => {
                for tx in txs {
                    // Epidemic gossip: newly learned transactions are
                    // announced onwards.
                    self.insert_pending(tx, ctx.now(), true);
                }
            }
            AvalancheMsg::RegossipTxs { txs } => {
                for tx in txs {
                    self.insert_pending(tx, ctx.now(), false);
                }
            }
            AvalancheMsg::Proposal { height, block } => {
                if height == self.current_height() {
                    let hash = block.hash();
                    self.proposals.insert(hash, block);
                    self.snowball.observe_proposal(hash);
                    if self.pending_decided == Some(hash) {
                        self.try_commit(hash, ctx);
                    }
                } else if height > self.current_height() {
                    ctx.send(
                        from,
                        AvalancheMsg::BlockRequest {
                            height: self.current_height(),
                        },
                    );
                }
            }
            AvalancheMsg::Query { id, height } => {
                let preference = if height <= self.chain_height() {
                    Some(self.chain[(height - 1) as usize].hash())
                } else if height == self.current_height() {
                    self.snowball.preference()
                } else {
                    None
                };
                ctx.send(from, AvalancheMsg::Chit { id, preference });
            }
            AvalancheMsg::Chit { id, preference } => {
                let finalise = match self.outstanding.get_mut(&id) {
                    Some(poll) => {
                        poll.received += 1;
                        if let Some(p) = preference {
                            poll.values.push(p);
                        }
                        poll.received >= poll.expected
                    }
                    None => false,
                };
                if finalise {
                    self.finalise_poll(id, ctx);
                }
            }
            AvalancheMsg::Accepted { height, hash } => {
                if height == self.current_height() {
                    if self.proposals.contains_key(&hash) {
                        self.try_commit(hash, ctx);
                    } else {
                        self.pending_decided = Some(hash);
                        ctx.send(from, AvalancheMsg::BlockRequest { height });
                    }
                }
            }
            AvalancheMsg::BlockRequest { height } => {
                if height >= 1 {
                    let start = (height - 1) as usize;
                    let end = (start + 8).min(self.chain.len());
                    for i in start..end {
                        let block = self.chain[i].clone();
                        ctx.send(
                            from,
                            AvalancheMsg::BlockResponse {
                                height: i as u64 + 1,
                                block,
                            },
                        );
                    }
                }
            }
            AvalancheMsg::BlockResponse { height, block } => {
                if height == self.current_height() {
                    // The block is committed at the responder: adopt it.
                    let hash = block.hash();
                    self.proposals.insert(hash, block);
                    self.try_commit(hash, ctx);
                }
            }
        }
    }

    fn finalise_poll(&mut self, id: u64, ctx: &mut Ctx<'_, Self>) {
        let Some(poll) = self.outstanding.remove(&id) else {
            return;
        };
        if poll.height != self.current_height() {
            return;
        }
        if let Some(decided) = self.snowball.record_poll(&poll.values) {
            if self.proposals.contains_key(&decided) {
                self.try_commit(decided, ctx);
            } else {
                self.pending_decided = Some(decided);
                let peers = self.sample_peers(ctx, 2);
                let height = self.current_height();
                for peer in peers {
                    ctx.send(peer, AvalancheMsg::BlockRequest { height });
                }
            }
        }
    }

    fn try_commit(&mut self, hash: Hash32, ctx: &mut Ctx<'_, Self>) {
        let Some(block) = self.proposals.remove(&hash) else {
            return;
        };
        let height = self.current_height();
        // Execution competes with message handling for CPU.
        self.throttler
            .charge_local(ctx.now(), self.config.cost_exec_per_tx * block.len() as f64);
        for tx in block.txs() {
            if let Ok(id) = self.ledger.apply(tx) {
                ctx.commit(id);
            }
            self.pool.mark_committed(tx.from(), tx.nonce() + 1);
        }
        self.pending.commit(block.txs());
        self.chain.push(block);
        self.proposals.clear();
        self.snowball = Snowball::new(self.alpha_eff, self.config.beta);
        self.proposed = None;
        self.pending_decided = None;
        ctx.broadcast(AvalancheMsg::Accepted { height, hash });
    }

    fn handle_block_tick(&mut self, ctx: &mut Ctx<'_, Self>) {
        ctx.set_timer(self.config.block_interval, AvalancheTimer::BlockTick);
        if self.snowball.decision().is_some() {
            return;
        }
        match self.proposed {
            None => {
                let txs = self.pool.take_ready(self.config.max_block_txs);
                if txs.is_empty() {
                    return;
                }
                let parent = self.chain.last().map(Block::hash).unwrap_or(Hash32::ZERO);
                let height = self.current_height();
                let block = Block::new(parent, height, self.id, txs);
                let hash = block.hash();
                ctx.span("propose");
                ctx.gauge("height", height);
                ctx.gauge("mempool_depth", self.pool.len() as u64);
                ctx.gauge("pending_txs", self.pending.len() as u64);
                self.throttler.charge_local(
                    ctx.now(),
                    self.config.cost_proposal_base
                        + self.config.cost_proposal_per_tx * block.len() as f64,
                );
                self.proposals.insert(hash, block.clone());
                self.snowball.observe_proposal(hash);
                self.proposed = Some(hash);
                ctx.broadcast(AvalancheMsg::Proposal { height, block });
            }
            Some(hash) => {
                // Re-gossip our unaccepted proposal (container re-gossip)
                // so late or recovering peers can still converge.
                if let Some(block) = self.proposals.get(&hash).cloned() {
                    let height = self.current_height();
                    ctx.broadcast(AvalancheMsg::Proposal { height, block });
                }
            }
        }
    }

    fn handle_query_tick(&mut self, ctx: &mut Ctx<'_, Self>) {
        ctx.set_timer(self.config.query_interval, AvalancheTimer::QueryTick);
        if self.snowball.decision().is_some() || self.proposals.is_empty() {
            return;
        }
        // Polls are sequential (the AvalancheGo poll loop): a poll that
        // sampled an unresponsive node holds the β streak hostage for
        // the full query timeout — the §4 instability under crashes.
        let current = self.current_height();
        if self.outstanding.values().any(|p| p.height == current) {
            return;
        }
        ctx.span("snowball-poll");
        ctx.gauge("outstanding_polls", self.outstanding.len() as u64 + 1);
        let id = self.next_poll;
        self.next_poll += 1;
        let peers = self.sample_peers(ctx, self.k_eff);
        let height = self.current_height();
        self.outstanding.insert(
            id,
            Poll {
                height,
                values: Vec::new(),
                received: 0,
                expected: peers.len(),
            },
        );
        for peer in peers {
            ctx.send(peer, AvalancheMsg::Query { id, height });
        }
        ctx.set_timer(
            self.config.query_timeout,
            AvalancheTimer::QueryDeadline { id },
        );
    }

    fn handle_announce_tick(&mut self, ctx: &mut Ctx<'_, Self>) {
        ctx.set_timer(self.config.announce_interval, AvalancheTimer::AnnounceTick);
        if self.announce_queue.is_empty() {
            return;
        }
        let txs = std::mem::take(&mut self.announce_queue);
        let peers = self.sample_peers(ctx, self.config.gossip_fanout);
        for peer in peers {
            ctx.send(peer, AvalancheMsg::AnnounceTxs { txs: txs.clone() });
        }
    }

    fn handle_regossip_tick(&mut self, ctx: &mut Ctx<'_, Self>) {
        ctx.set_timer(self.config.regossip_interval, AvalancheTimer::RegossipTick);
        // Stale pending transactions, drawn in effectively random order
        // (the unordered-map iteration the paper pins nonce delays on):
        // a seeded shuffle of the id-sorted stale set. Shuffling
        // positions draws exactly what shuffling the ids would.
        let stale = self.pending.stale(ctx.now(), self.config.stale_age);
        if stale.is_empty() {
            return;
        }
        let len = u32::try_from(stale.len()).expect("fewer than 2^32 stale transactions");
        let mut order: Vec<u32> = (0..len).collect();
        ctx.rng().shuffle(&mut order);
        let txs: Vec<Transaction> = order
            .iter()
            .take(self.config.regossip_batch)
            .map(|&i| stale[i as usize])
            .collect();
        let peers = self.sample_peers(ctx, self.config.gossip_fanout);
        for peer in peers {
            ctx.send(peer, AvalancheMsg::RegossipTxs { txs: txs.clone() });
        }
    }

    fn handle_drain(&mut self, ctx: &mut Ctx<'_, Self>) {
        loop {
            let Some((_, msg)) = self.parked.front() else {
                self.drain_armed = false;
                return;
            };
            let cost = self.cost_of(msg);
            if self.throttler.drain_one(ctx.now(), cost) {
                let (from, msg) = self.parked.pop_front().expect("front exists");
                self.dispatch(from, msg, ctx);
            } else {
                break;
            }
        }
        ctx.set_timer(self.config.drain_interval, AvalancheTimer::Drain);
    }
}

impl Protocol for AvalancheNode {
    type Msg = AvalancheMsg;
    type Request = Transaction;
    type Commit = TxId;
    type Timer = AvalancheTimer;
    type Config = AvalancheConfig;

    fn new(id: NodeId, n: usize, config: &AvalancheConfig, ctx: &mut Ctx<'_, Self>) -> Self {
        let (k_eff, alpha_eff) = config.effective_sampling(n);
        let node = AvalancheNode {
            id,
            n,
            config: config.clone(),
            k_eff,
            alpha_eff,
            chain: Vec::new(),
            ledger: Ledger::genesis(),
            proposals: BTreeMap::new(),
            snowball: Snowball::new(alpha_eff, config.beta),
            proposed: None,
            pending_decided: None,
            pool: AccountPool::new(config.pool_capacity),
            pending: PendingTxs::default(),
            announce_queue: Vec::new(),
            throttler: InboundThrottler::new(
                config.cpu_half_life,
                config.cpu_quota,
                config.max_unprocessed,
            ),
            parked: VecDeque::new(),
            drain_armed: false,
            outstanding: BTreeMap::new(),
            next_poll: 0,
        };
        ctx.set_timer(node.config.block_interval, AvalancheTimer::BlockTick);
        ctx.set_timer(node.config.query_interval, AvalancheTimer::QueryTick);
        ctx.set_timer(node.config.announce_interval, AvalancheTimer::AnnounceTick);
        ctx.set_timer(node.config.regossip_interval, AvalancheTimer::RegossipTick);
        node
    }

    fn on_message(&mut self, from: NodeId, msg: AvalancheMsg, ctx: &mut Ctx<'_, Self>) {
        let cost = self.cost_of(&msg);
        match self.throttler.admit(ctx.now(), cost) {
            Admission::Process => self.dispatch(from, msg, ctx),
            Admission::Defer => {
                self.parked.push_back((from, msg));
                if !self.drain_armed {
                    self.drain_armed = true;
                    ctx.set_timer(self.config.drain_interval, AvalancheTimer::Drain);
                }
            }
            Admission::Drop => {}
        }
    }

    fn on_timer(&mut self, timer: AvalancheTimer, ctx: &mut Ctx<'_, Self>) {
        match timer {
            AvalancheTimer::BlockTick => self.handle_block_tick(ctx),
            AvalancheTimer::QueryTick => self.handle_query_tick(ctx),
            AvalancheTimer::AnnounceTick => self.handle_announce_tick(ctx),
            AvalancheTimer::RegossipTick => self.handle_regossip_tick(ctx),
            AvalancheTimer::Drain => self.handle_drain(ctx),
            AvalancheTimer::QueryDeadline { id } => self.finalise_poll(id, ctx),
        }
    }

    fn on_request(&mut self, tx: Transaction, ctx: &mut Ctx<'_, Self>) {
        self.insert_pending(tx, ctx.now(), true);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.pool.clear_pending();
        self.pending.clear();
        self.announce_queue.clear();
        self.proposals.clear();
        self.snowball = Snowball::new(self.alpha_eff, self.config.beta);
        self.proposed = None;
        self.pending_decided = None;
        self.outstanding.clear();
        self.parked.clear();
        self.drain_armed = false;
        self.throttler.reset(ctx.now());
        ctx.set_timer(self.config.block_interval, AvalancheTimer::BlockTick);
        ctx.set_timer(self.config.query_interval, AvalancheTimer::QueryTick);
        ctx.set_timer(self.config.announce_interval, AvalancheTimer::AnnounceTick);
        ctx.set_timer(self.config.regossip_interval, AvalancheTimer::RegossipTick);
        // Bootstrap: fetch whatever the network committed while we were
        // away.
        let height = self.current_height();
        let peers = self.sample_peers(ctx, 3);
        for peer in peers {
            ctx.send(peer, AvalancheMsg::BlockRequest { height });
        }
    }

    fn contention_stats(&self) -> ContentionStats {
        self.pool.contention_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabl_sim::{SimDuration, Simulation};
    use stabl_types::AccountId;
    use std::collections::HashSet;

    fn sim(n: usize, seed: u64) -> Simulation<AvalancheNode> {
        Simulation::new(n, seed, AvalancheConfig::default())
    }

    fn submit_stream(
        sim: &mut Simulation<AvalancheNode>,
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

    fn unique_commits_at(sim: &Simulation<AvalancheNode>, node: u32) -> usize {
        sim.commits()
            .iter()
            .filter(|c| c.node == NodeId::new(node))
            .map(|c| c.commit)
            .collect::<HashSet<TxId>>()
            .len()
    }

    #[test]
    fn commits_offered_load_in_baseline() {
        let mut s = sim(10, 1);
        submit_stream(&mut s, 10, 100, 1, 11);
        s.run_until(SimTime::from_secs(30));
        assert_eq!(unique_commits_at(&s, 0), 1000);
        assert!(s.node(NodeId::new(0)).pool_len() < 100, "pool drains");
    }

    #[test]
    fn baseline_latency_is_seconds_scale() {
        let mut s = sim(10, 2);
        submit_stream(&mut s, 10, 100, 1, 31);
        s.run_until(SimTime::from_secs(45));
        // Committed within the run and no throttling collapse.
        assert_eq!(unique_commits_at(&s, 0), 3000);
        assert_eq!(
            s.node(NodeId::new(0)).throttled_drops(),
            0,
            "no buffer drops at baseline"
        );
    }

    #[test]
    fn one_crash_destabilises_but_does_not_kill() {
        let mut s = sim(10, 3);
        submit_stream(&mut s, 10, 100, 1, 60);
        s.schedule_crash(SimTime::from_secs(10), NodeId::new(9)); // f = t = 1
        s.run_until(SimTime::from_secs(90));
        assert_eq!(
            unique_commits_at(&s, 0),
            5900,
            "all load commits with f = t"
        );
        // Polls that sampled the dead node failed: visible instability.
        let failed: u64 = (0..9u32)
            .map(|i| s.node(NodeId::new(i)).failed_polls())
            .sum();
        let _ = failed; // per-height instance resets; drops are the stable signal
    }

    #[test]
    fn transient_outage_collapses_into_throttling() {
        let mut s = sim(10, 4);
        submit_stream(&mut s, 10, 200, 1, 200);
        for i in 5..7u32 {
            s.schedule_crash(SimTime::from_secs(40), NodeId::new(i)); // f = t + 1 = 2
            s.schedule_restart(SimTime::from_secs(100), NodeId::new(i));
        }
        s.run_until(SimTime::from_secs(200));
        let before: HashSet<TxId> = s
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0) && c.time < SimTime::from_secs(40))
            .map(|c| c.commit)
            .collect();
        let total = unique_commits_at(&s, 0);
        // The backlog grows stale, re-gossip storms saturate the CPU
        // throttler, chits are deferred past their deadlines and no new
        // block is ever agreed on: sensitivity is infinite.
        let after_recovery: HashSet<TxId> = s
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0) && c.time > SimTime::from_secs(110))
            .map(|c| c.commit)
            .collect();
        assert!(
            after_recovery.len() < 1000,
            "throttling collapse should prevent recovery, yet {} committed",
            after_recovery.len()
        );
        assert!(
            total < 32_000,
            "nowhere near the offered load: {total} vs {}",
            before.len()
        );
        let defers: u64 = (0..10u32)
            .map(|i| s.node(NodeId::new(i)).throttled_defers())
            .sum();
        assert!(defers > 1_000, "expected heavy deferral, got {defers}");
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut s = sim(4, seed);
            submit_stream(&mut s, 4, 50, 1, 5);
            s.run_until(SimTime::from_secs(15));
            s.commits()
                .iter()
                .map(|c| (c.time.as_micros(), c.node.as_u32()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn partition_prevents_consensus_on_both_sides() {
        let mut s = sim(10, 5);
        submit_stream(&mut s, 10, 100, 1, 60);
        let isolated: Vec<NodeId> = (5..7u32).map(NodeId::new).collect();
        s.schedule_partition(SimTime::from_secs(20), SimTime::from_secs(50), isolated);
        s.run_until(SimTime::from_secs(60));
        // With 2 of 10 unreachable, α = 4 of k = 5 samples fails too
        // often for β consecutive successes: few or no commits during
        // the partition window.
        let during = s
            .commits()
            .iter()
            .filter(|c| {
                c.node == NodeId::new(0)
                    && c.time > SimTime::from_secs(26)
                    && c.time < SimTime::from_secs(50)
            })
            .count();
        let before = s
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0) && c.time < SimTime::from_secs(20))
            .count();
        assert!(before > 1000, "baseline part must flow: {before}");
        assert!(
            (during as f64) < before as f64 * 0.4,
            "consensus should mostly stall during the partition: {during} vs {before}"
        );
    }

    #[test]
    fn incremental_stale_set_matches_the_whole_map_scan() {
        // Crashing t + 1 = 2 other nodes stalls the chain from 10 s to
        // 30 s, and the tested node's backlog turns stale (after 5 s
        // here) and is re-gossiped. The tested node crashes with that
        // stale backlog and restarts empty; once the victims return, the
        // backlog it gathered again commits, and two minutes of arrivals
        // make it rebuild its arrival index.
        let config = AvalancheConfig {
            stale_age: SimDuration::from_secs(5),
            ..AvalancheConfig::default()
        };
        let mut s = Simulation::<AvalancheNode>::new(10, 8, config);
        submit_stream(&mut s, 10, 20, 1, 120);
        for victim in [NodeId::new(7), NodeId::new(8)] {
            s.schedule_crash(SimTime::from_secs(10), victim);
            s.schedule_restart(SimTime::from_secs(30), victim);
        }
        let node = NodeId::new(5);
        s.schedule_crash(SimTime::from_secs(20), node);
        s.schedule_restart(SimTime::from_secs(23), node);
        s.run_until(SimTime::from_secs(150));
        // Every re-gossip tick of every node compared the incremental
        // stale vector with the old scan (`PendingTxs::stale`); here,
        // that the ticks covered what the test is about.
        let checks = &s.node(node).pending.reference;
        let commits_between = |from: u64, to: u64| {
            s.commits()
                .iter()
                .filter(|c| c.node == node)
                .filter(|c| c.time > SimTime::from_secs(from) && c.time < SimTime::from_secs(to))
                .count()
        };
        // (ticks, ticks with a stale backlog, stale transactions
        // committed, stale transactions the restart dropped, index
        // rebuilds) were (146, 10, 329, 118, 2) when written.
        assert!(checks.ticks > 100, "ticks checked: {}", checks.ticks);
        assert!(
            checks.stale_ticks > 5,
            "stale ticks: {}",
            checks.stale_ticks
        );
        assert!(checks.stale_commits > 0, "no stale transaction committed");
        assert_eq!(checks.restarts, 1);
        assert!(checks.reindexes > 0, "the arrival index was never rebuilt");
        assert!(
            checks.stale_restarted > 0,
            "the restart dropped no stale backlog"
        );
        assert_eq!(commits_between(12, 30), 0, "the chain stalls");
        assert!(commits_between(30, 150) > 0, "and recovers");
    }

    #[test]
    fn replicas_converge_in_baseline() {
        let mut s = sim(10, 6);
        submit_stream(&mut s, 10, 100, 1, 20);
        s.run_until(SimTime::from_secs(40));
        let executed: HashSet<u64> = (0..10u32)
            .map(|i| s.node(NodeId::new(i)).ledger().executed())
            .collect();
        assert_eq!(executed.len(), 1, "diverged: {executed:?}");
    }
}
