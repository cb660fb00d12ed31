//! The discrete-event simulation kernel.

use std::collections::BTreeMap;

use crate::agenda::{Agenda, MsgArena, MsgRef, TimerRegistry};
use crate::protocol::Effect;
use crate::stats::{CommitRecord, PanicRecord, SimStats};
use crate::trace::{
    CaptureLevel, DropCause, EventCounters, EventRecorder, FaultKind, SimEvent, TimedEvent,
    DEFAULT_EVENT_CAP,
};
use crate::{
    ByzantineBehavior, ByzantineSpec, Ctx, DetRng, LatencyModel, LinkFault, Network, NodeId,
    Protocol, SimDuration, SimTime, TimerId,
};

/// Liveness state of a simulated node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeStatus {
    /// Processing messages and timers normally.
    Running,
    /// Halted by the harness; can be restarted.
    Crashed,
    /// Aborted fatally by its own logic; cannot be restarted.
    Panicked,
}

/// Builder for a [`Simulation`] ([C-BUILDER]).
///
/// # Examples
///
/// ```no_run
/// use stabl_sim::{LatencyModel, SimBuilder};
/// # use stabl_sim::Protocol;
/// # fn demo<P: Protocol>(config: P::Config) {
/// let sim = SimBuilder::new(10, 42)
///     .latency(LatencyModel::lan())
///     .build::<P>(config);
/// # }
/// ```
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#c-builder
#[derive(Clone, Debug)]
pub struct SimBuilder {
    n: usize,
    seed: u64,
    latency: LatencyModel,
    topology: Option<crate::LatencyTopology>,
    capture: CaptureLevel,
    byzantine: ByzantineSpec,
}

impl SimBuilder {
    /// Starts configuring a simulation of `n` nodes from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "a simulation needs at least one node");
        SimBuilder {
            n,
            seed,
            latency: LatencyModel::default(),
            topology: None,
            capture: CaptureLevel::Off,
            byzantine: ByzantineSpec::none(),
        }
    }

    /// Sets the link latency model (default: [`LatencyModel::lan`]).
    pub fn latency(&mut self, latency: LatencyModel) -> &mut Self {
        self.latency = latency;
        self
    }

    /// Installs a region-based latency topology (overrides the uniform
    /// latency model per node pair).
    pub fn topology(&mut self, topology: crate::LatencyTopology) -> &mut Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the structured-event capture level (default:
    /// [`CaptureLevel::Off`]). Capture is deterministic-neutral: it
    /// never changes what a run computes, only what it records.
    pub fn capture(&mut self, level: CaptureLevel) -> &mut Self {
        self.capture = level;
        self
    }

    /// Makes the nodes named by `spec` deviate on their outbound
    /// messages (default: [`ByzantineSpec::none`]). Every node still
    /// runs `P` unmodified; the kernel deviates where it sends.
    pub fn byzantine(&mut self, spec: ByzantineSpec) -> &mut Self {
        self.byzantine = spec;
        self
    }

    /// Builds the simulation, constructing all `n` protocol instances.
    pub fn build<P: Protocol>(&self, config: P::Config) -> Simulation<P> {
        Simulation::with_builder(self.clone(), config)
    }
}

struct NodeSlot<P> {
    proto: P,
    status: NodeStatus,
    /// Incremented on every crash, restart and panic; pending timers
    /// carry the epoch they were armed in and are dropped if it is stale.
    epoch: u64,
    rng: DetRng,
}

enum EventKind<P: Protocol> {
    Deliver {
        from: NodeId,
        to: NodeId,
        /// Handle into the simulation's [`MsgArena`]; the payload is
        /// cloned lazily at delivery (the last reference moves).
        msg: MsgRef,
    },
    Timer {
        node: NodeId,
        id: TimerId,
        epoch: u64,
        token: P::Timer,
    },
    /// A send held back by [`ByzantineBehavior::Delay`], now due to
    /// enter the network. It is one of the sender's timers: it dies
    /// with the epoch it was held in. `msg` is a handle, not a payload,
    /// so the event enum does not grow with `P::Msg`.
    Held {
        from: NodeId,
        to: NodeId,
        epoch: u64,
        msg: MsgRef,
    },
    Request {
        node: NodeId,
        request: P::Request,
    },
    Crash(NodeId),
    Restart(NodeId),
    /// Installs `faults` under one handle, their drops booked as `cause`.
    RuleStart {
        handle: u64,
        cause: DropCause,
        faults: Vec<LinkFault>,
    },
    RuleEnd {
        handle: u64,
    },
    SetSlowdown {
        node: NodeId,
        extra: SimDuration,
    },
}

/// A deterministic discrete-event simulation of `n` nodes running
/// protocol `P`.
///
/// The harness schedules external events (client requests, crashes,
/// restarts, partitions) and then advances time with
/// [`Simulation::run_until`]; afterwards the commit log, panic log and
/// traffic counters describe the run.
///
/// Events live in a calendar-queue [`Agenda`] popping in strictly
/// ascending `(time, insertion seq)` order — the same total order the
/// original `BinaryHeap` agenda produced, so runs are bit-identical
/// across the two (see the ordering invariant in the [`crate::agenda`]
/// module docs).
pub struct Simulation<P: Protocol> {
    now: SimTime,
    /// Total node count, fixed at build time. Distinct from
    /// `nodes.len()` only while `with_builder` is still constructing
    /// the node vector — and construction-time effects (Redbelly dials
    /// peers from `Protocol::new`) already need the full count.
    n: usize,
    queue: Agenda<EventKind<P>>,
    nodes: Vec<NodeSlot<P>>,
    net: Network,
    net_rng: DetRng,
    timers: TimerRegistry,
    msgs: MsgArena<P::Msg>,
    /// Recycled effect buffer handed to each protocol callback, so the
    /// per-event `Vec` allocation of the seed kernel disappears.
    scratch: Vec<Effect<P>>,
    next_rule_handle: u64,
    /// Flat `n × n` matrix of last-scheduled delivery instants, indexed
    /// `from * n + to` (replaces the seed's per-link `BTreeMap`).
    link_clock: Vec<SimTime>,
    byzantine: ByzantineSpec,
    /// Per Byzantine node, the last payload a *previous* callback of
    /// its sent — what `Mutate` and `Equivocate` replay. Forgotten on
    /// restart, like the rest of a node's volatile state.
    stale: BTreeMap<NodeId, P::Msg>,
    commits: Vec<CommitRecord<P::Commit>>,
    panics: Vec<PanicRecord>,
    recorder: EventRecorder,
    stats: SimStats,
    config: P::Config,
}

impl<P: Protocol> Simulation<P> {
    /// Creates a simulation with default latency and FIFO links; see
    /// [`SimBuilder`] for more control.
    pub fn new(n: usize, seed: u64, config: P::Config) -> Self {
        SimBuilder::new(n, seed).build(config)
    }

    fn with_builder(b: SimBuilder, config: P::Config) -> Self {
        let master = DetRng::new(b.seed);
        let mut sim = Simulation {
            now: SimTime::ZERO,
            n: b.n,
            queue: Agenda::new(),
            nodes: Vec::with_capacity(b.n),
            net: {
                let mut net = Network::new(b.n, b.latency);
                if let Some(topology) = b.topology.clone() {
                    net.set_topology(topology);
                }
                net
            },
            net_rng: master.derive(u64::MAX),
            timers: TimerRegistry::new(),
            msgs: MsgArena::new(),
            scratch: Vec::new(),
            next_rule_handle: 0,
            link_clock: vec![SimTime::ZERO; b.n * b.n],
            byzantine: b.byzantine,
            stale: BTreeMap::new(),
            commits: Vec::new(),
            panics: Vec::new(),
            recorder: EventRecorder::new(b.capture, DEFAULT_EVENT_CAP),
            stats: SimStats::default(),
            config,
        };
        for id in NodeId::all(b.n) {
            let mut rng = master.derive(id.as_u32() as u64);
            let mut effects = Vec::new();
            let mut ctx = Ctx {
                node: id,
                n: b.n,
                now: SimTime::ZERO,
                rng: &mut rng,
                effects: &mut effects,
                timers: &mut sim.timers,
                capture: sim.recorder.level(),
            };
            let proto = P::new(id, b.n, &sim.config, &mut ctx);
            sim.nodes.push(NodeSlot {
                proto,
                status: NodeStatus::Running,
                epoch: 0,
                rng,
            });
            sim.apply_effects(id, effects);
        }
        sim
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of nodes.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// The liveness status of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn status(&self, node: NodeId) -> NodeStatus {
        self.nodes[node.index()].status
    }

    /// Immutable access to a node's protocol state (for post-run
    /// inspection and tests).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: NodeId) -> &P {
        &self.nodes[node.index()].proto
    }

    /// The commit log accumulated so far.
    pub fn commits(&self) -> &[CommitRecord<P::Commit>] {
        &self.commits
    }

    /// Drains the commit log, leaving it empty (useful to stream results
    /// out of long runs).
    pub fn take_commits(&mut self) -> Vec<CommitRecord<P::Commit>> {
        std::mem::take(&mut self.commits)
    }

    /// Fatal node failures recorded so far.
    pub fn panics(&self) -> &[PanicRecord] {
        &self.panics
    }

    /// The structured-event recorder (capture level, counters, stream).
    pub fn recorder(&self) -> &EventRecorder {
        &self.recorder
    }

    /// Drains the recorded structured events, oldest first.
    pub fn take_events(&mut self) -> Vec<TimedEvent> {
        self.recorder.take_events()
    }

    /// The per-kind event counters (zero at [`CaptureLevel::Off`]).
    pub fn event_counters(&self) -> EventCounters {
        self.recorder.counters()
    }

    /// Records a harness-level event (client submissions, retries,
    /// give-ups) into the same stream as the kernel's own events. The
    /// exporters sort by `(time, seq)`, so harness events scheduled
    /// ahead of the run still land in timeline order.
    pub fn record_event(&mut self, time: SimTime, event: SimEvent) {
        self.recorder.record(time, event);
    }

    /// Aggregate traffic counters, with every node's contention
    /// counters ([`Protocol::contention_stats`]) folded in.
    pub fn stats(&self) -> SimStats {
        let mut stats = self.stats;
        for node in &self.nodes {
            stats.absorb_contention(&node.proto.contention_stats());
        }
        stats
    }

    /// The network fabric (latency model, rule table, slowdowns).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Schedules a client request for delivery to `node` at `at`.
    ///
    /// Requests reaching a crashed or panicked node are counted in
    /// [`SimStats::requests_dropped`] and lost, exactly like a connection
    /// refused by a dead server.
    pub fn schedule_request(&mut self, at: SimTime, node: NodeId, request: P::Request) {
        self.push(at, EventKind::Request { node, request });
    }

    /// Schedules a permanent or transient crash of `node` at `at`.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.push(at, EventKind::Crash(node));
    }

    /// Schedules a restart of a previously crashed `node` at `at`.
    /// Restarting a running or panicked node is a recorded no-op.
    pub fn schedule_restart(&mut self, at: SimTime, node: NodeId) {
        self.push(at, EventKind::Restart(node));
    }

    /// Schedules a slowdown of `node` between `start` and `end`: every
    /// message the node sends gains `extra` delay (a slow-but-correct
    /// node — the single-slow-node case the paper's §4 discusses).
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn schedule_slowdown(
        &mut self,
        start: SimTime,
        end: SimTime,
        node: NodeId,
        extra: SimDuration,
    ) {
        assert!(start <= end, "slowdown must end after it starts");
        self.push(start, EventKind::SetSlowdown { node, extra });
        self.push(
            end,
            EventKind::SetSlowdown {
                node,
                extra: SimDuration::ZERO,
            },
        );
    }

    /// Schedules a partition isolating `isolated` from every other node,
    /// installed at `start` and healed at `end`: the netfilter drop rule
    /// pair `sever(isolated → rest)` and `sever(rest → isolated)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn schedule_partition<I>(&mut self, start: SimTime, end: SimTime, isolated: I)
    where
        I: IntoIterator<Item = NodeId>,
    {
        assert!(start <= end, "partition must end after it starts");
        let isolated: Vec<NodeId> = isolated.into_iter().collect();
        let rest: Vec<NodeId> = NodeId::all(self.n)
            .filter(|id| !isolated.contains(id))
            .collect();
        let faults = vec![
            LinkFault::sever(isolated.iter().copied(), rest.iter().copied()),
            LinkFault::sever(rest, isolated),
        ];
        self.schedule_rules(start, end, DropCause::Partition, faults);
    }

    /// Schedules a message-level link fault installed at `start` and
    /// lifted at `end` (see [`LinkFault`] for the drop / duplicate /
    /// reorder semantics).
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn schedule_link_fault(&mut self, start: SimTime, end: SimTime, fault: LinkFault) {
        assert!(start <= end, "link fault must end after it starts");
        self.schedule_rules(start, end, DropCause::LinkFault, vec![fault]);
    }

    fn schedule_rules(
        &mut self,
        start: SimTime,
        end: SimTime,
        cause: DropCause,
        faults: Vec<LinkFault>,
    ) {
        let handle = self.next_rule_handle;
        self.next_rule_handle += 1;
        self.push(
            start,
            EventKind::RuleStart {
                handle,
                cause,
                faults,
            },
        );
        self.push(end, EventKind::RuleEnd { handle });
    }

    /// Runs the simulation until no event at or before `horizon` remains;
    /// the clock finishes at `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        let horizon = horizon.max(self.now);
        while let Some((at, kind)) = self.queue.pop_due(horizon.as_micros()) {
            debug_assert!(at >= self.now.as_micros(), "event queue went backwards");
            self.now = SimTime::from_micros(at);
            self.stats.events_processed += 1;
            self.dispatch(kind);
        }
        self.now = horizon;
    }

    fn push(&mut self, time: SimTime, kind: EventKind<P>) {
        let time = time.max(self.now);
        self.queue.push(time.as_micros(), kind);
    }

    fn dispatch(&mut self, kind: EventKind<P>) {
        match kind {
            EventKind::Deliver { from, to, msg } => {
                // Packets already in flight when a partition or sever was
                // installed die at delivery time.
                let dead = (self.nodes[to.index()].status != NodeStatus::Running)
                    .then_some(DropCause::DeadNode);
                if let Some(cause) = self.net.severed(from, to).or(dead) {
                    return self.drop_message(from, to, msg, cause);
                }
                let Some(payload) = self.msgs.consume(msg) else {
                    return;
                };
                self.stats.messages_delivered += 1;
                self.recorder
                    .record(self.now, SimEvent::MessageDelivered { from, to });
                let effects = self.with_ctx(to, |proto, ctx| proto.on_message(from, payload, ctx));
                self.apply_effects(to, effects);
            }
            EventKind::Timer {
                node,
                id,
                epoch,
                token,
            } => {
                // Resolve unconditionally: the registry slot is freed
                // (and its generation bumped) the moment the timer event
                // fires, whatever the node's state.
                let was_cancelled = self.timers.resolve(id);
                if self.timer_fires(node, epoch, was_cancelled) {
                    let effects = self.with_ctx(node, |proto, ctx| proto.on_timer(token, ctx));
                    self.apply_effects(node, effects);
                }
            }
            EventKind::Held {
                from,
                to,
                epoch,
                msg,
            } => {
                if self.timer_fires(from, epoch, false) {
                    self.send_one(from, to, msg);
                } else {
                    self.msgs.release(msg);
                }
            }
            EventKind::Request { node, request } => {
                if self.nodes[node.index()].status != NodeStatus::Running {
                    self.stats.requests_dropped += 1;
                    self.recorder
                        .record(self.now, SimEvent::RequestDropped { node });
                    return;
                }
                self.stats.requests_delivered += 1;
                self.recorder
                    .record(self.now, SimEvent::RequestDelivered { node });
                let effects = self.with_ctx(node, |proto, ctx| proto.on_request(request, ctx));
                self.apply_effects(node, effects);
            }
            EventKind::Crash(node) => {
                let slot = &mut self.nodes[node.index()];
                if slot.status == NodeStatus::Running {
                    slot.status = NodeStatus::Crashed;
                    slot.epoch += 1;
                    self.recorder
                        .record(self.now, SimEvent::NodeCrashed { node });
                }
            }
            EventKind::Restart(node) => {
                if self.nodes[node.index()].status == NodeStatus::Crashed {
                    self.nodes[node.index()].status = NodeStatus::Running;
                    self.nodes[node.index()].epoch += 1;
                    self.stale.remove(&node);
                    self.recorder
                        .record(self.now, SimEvent::NodeRestarted { node });
                    let effects = self.with_ctx(node, |proto, ctx| proto.on_restart(ctx));
                    self.apply_effects(node, effects);
                }
            }
            EventKind::RuleStart {
                handle,
                cause,
                faults,
            } => {
                self.net.insert_rules(handle, cause, faults);
                let kind = rule_kind(cause);
                self.recorder
                    .record(self.now, SimEvent::FaultActivated { kind });
            }
            EventKind::RuleEnd { handle } => {
                if let Some(cause) = self.net.lift_rules(handle) {
                    let kind = rule_kind(cause);
                    self.recorder
                        .record(self.now, SimEvent::FaultCleared { kind });
                }
            }
            EventKind::SetSlowdown { node, extra } => {
                self.net.set_slowdown(node, extra);
                let kind = FaultKind::Slowdown;
                self.recorder.record(
                    self.now,
                    if extra.is_zero() {
                        SimEvent::FaultCleared { kind }
                    } else {
                        SimEvent::FaultActivated { kind }
                    },
                );
            }
        }
    }

    /// Counts and records a due timer of `node`, armed in `epoch`, as
    /// fired — or as stale if it was cancelled or the node has crashed,
    /// restarted or panicked since. Returns whether it fired.
    fn timer_fires(&mut self, node: NodeId, epoch: u64, was_cancelled: bool) -> bool {
        let slot = &self.nodes[node.index()];
        let fires = slot.status == NodeStatus::Running && slot.epoch == epoch && !was_cancelled;
        if fires {
            self.stats.timers_fired += 1;
            self.recorder
                .record(self.now, SimEvent::TimerFired { node });
        } else {
            self.stats.timers_stale += 1;
            self.recorder
                .record(self.now, SimEvent::TimerStale { node });
        }
        fires
    }

    fn with_ctx<F>(&mut self, node: NodeId, f: F) -> Vec<Effect<P>>
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P>),
    {
        let n = self.nodes.len();
        let mut effects = std::mem::take(&mut self.scratch);
        let slot = &mut self.nodes[node.index()];
        let mut ctx = Ctx {
            node,
            n,
            now: self.now,
            rng: &mut slot.rng,
            effects: &mut effects,
            timers: &mut self.timers,
            capture: self.recorder.level(),
        };
        f(&mut slot.proto, &mut ctx);
        effects
    }

    /// Releases the arena reference of a packet the network drops, and
    /// books the drop under `cause`.
    fn drop_message(&mut self, from: NodeId, to: NodeId, msg: MsgRef, cause: DropCause) {
        self.msgs.release(msg);
        *match cause {
            DropCause::Partition => &mut self.stats.messages_dropped_partition,
            DropCause::LinkFault => &mut self.stats.messages_dropped_link,
            DropCause::DeadNode => &mut self.stats.messages_dropped_dead,
        } += 1;
        self.recorder
            .record(self.now, SimEvent::MessageDropped { from, to, cause });
    }

    /// Schedules one delivery of the arena payload `msg` from `from` to
    /// `to`: counters, the rule table's verdict, latency sampling and
    /// FIFO clamping — in exactly the per-send order of the seed kernel,
    /// so RNG draws and event sequence numbers are unchanged.
    ///
    /// The caller has already retained one arena reference for this
    /// recipient ([`MsgArena::retain_n`]); a send-time drop releases it.
    fn send_one(&mut self, from: NodeId, to: NodeId, msg: MsgRef) {
        self.stats.messages_sent += 1;
        self.recorder
            .record(self.now, SimEvent::MessageSent { from, to });
        let verdict = self.net.verdict(from, to, &mut self.net_rng);
        if let Some(cause) = verdict.drop {
            return self.drop_message(from, to, msg, cause);
        }
        let delay = self.net.sample_delay(from, to, &mut self.net_rng) + self.net.slowdown(from);
        let mut deliver_at = self.now + delay;
        // Links are FIFO (they model TCP connections): a delivery never
        // overtakes the previous one on the same link.
        let idx = from.index() * self.n + to.index();
        if let Some(last) = self.link_clock.get_mut(idx) {
            deliver_at = deliver_at.max(*last);
            *last = deliver_at;
        }
        if !verdict.extra.is_zero() {
            // Hold the packet back *after* the FIFO clock was
            // advanced, so packets sent later can overtake it.
            self.stats.messages_reordered_link += 1;
            deliver_at += verdict.extra;
        }
        if verdict.duplicate {
            self.stats.messages_duplicated_link += 1;
            let dup_delay =
                self.net.sample_delay(from, to, &mut self.net_rng) + self.net.slowdown(from);
            let dup_at = (self.now + dup_delay).max(deliver_at);
            // The fanout pre-paid one reference for this recipient; the
            // duplicate is an extra delivery on top.
            self.msgs.retain(msg);
            self.push(dup_at, EventKind::Deliver { from, to, msg });
        }
        self.push(deliver_at, EventKind::Deliver { from, to, msg });
    }

    /// Sends `msg` from `from` to each of the `count` nodes in
    /// `targets`, in order — after the sender's Byzantine deviation, if
    /// it has one (see the [`crate::byzantine`] module docs). `epoch`
    /// is the sender's when the callback ran; `fresh` receives the
    /// payload a replaying sender's next callback will see as stale.
    fn emit<I>(
        &mut self,
        from: NodeId,
        epoch: u64,
        targets: I,
        count: usize,
        msg: P::Msg,
        fresh: &mut Option<P::Msg>,
    ) where
        I: IntoIterator<Item = NodeId>,
    {
        if !self.byzantine.is_byzantine(from) {
            return self.fan_out(from, targets, count, msg);
        }
        match self.byzantine.behavior() {
            ByzantineBehavior::Withhold => {}
            ByzantineBehavior::Mutate => {
                let stale = self.stale.get(&from).unwrap_or(&msg).clone();
                self.fan_out(from, targets, count, stale);
                *fresh = Some(msg);
            }
            ByzantineBehavior::Equivocate => {
                let stale = self.stale.get(&from).unwrap_or(&msg).clone();
                for to in targets {
                    let wire = if to.as_u32() % 2 == 1 { &stale } else { &msg };
                    self.fan_out(from, [to], 1, wire.clone());
                }
                *fresh = Some(msg);
            }
            ByzantineBehavior::Delay(extra) => {
                let handle = self.msgs.insert(msg);
                self.msgs.retain_n(handle, count as u32);
                let at = self.now + extra;
                for to in targets {
                    let held = EventKind::Held {
                        from,
                        to,
                        epoch,
                        msg: handle,
                    };
                    self.push(at, held);
                }
                self.msgs.seal(handle);
            }
        }
    }

    /// Stores `msg` once and schedules its delivery to each of the
    /// `count` nodes in `targets`, in order.
    fn fan_out<I>(&mut self, from: NodeId, targets: I, count: usize, msg: P::Msg)
    where
        I: IntoIterator<Item = NodeId>,
    {
        let handle = self.msgs.insert(msg);
        // Pre-pay the whole fanout in one arena touch; send-time drops
        // release their reference back.
        self.msgs.retain_n(handle, count as u32);
        for to in targets {
            self.send_one(from, to, handle);
        }
        self.msgs.seal(handle);
    }

    fn apply_effects(&mut self, from: NodeId, mut effects: Vec<Effect<P>>) {
        if effects.is_empty() {
            // Most deliveries produce no effects; hand the buffer
            // straight back without touching node state.
            if effects.capacity() > self.scratch.capacity() {
                self.scratch = effects;
            }
            return;
        }
        let epoch = self.nodes[from.index()].epoch;
        let n = self.n;
        // The last payload this callback sends, if `from` replays stale
        // payloads. It replaces the stale one only once the callback is
        // applied, so a broadcast equivocates consistently: every odd
        // peer sees the same previous-callback payload.
        let mut fresh = None;
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => self.emit(from, epoch, [to], 1, msg, &mut fresh),
                Effect::Broadcast { msg } => {
                    let others = NodeId::all(n).filter(|to| *to != from);
                    self.emit(from, epoch, others, n.saturating_sub(1), msg, &mut fresh);
                }
                Effect::Multicast { targets, msg } => {
                    let count = targets.len();
                    self.emit(from, epoch, targets, count, msg, &mut fresh);
                }
                Effect::SetTimer { id, delay, token } => {
                    let at = self.now + delay;
                    self.push(
                        at,
                        EventKind::Timer {
                            node: from,
                            id,
                            epoch,
                            token,
                        },
                    );
                }
                Effect::CancelTimer(id) => {
                    self.timers.cancel(id);
                }
                Effect::Commit(commit) => {
                    self.commits.push(CommitRecord {
                        time: self.now,
                        node: from,
                        commit,
                    });
                    self.recorder
                        .record(self.now, SimEvent::Committed { node: from });
                }
                Effect::Panic(reason) => {
                    let slot = &mut self.nodes[from.index()];
                    if slot.status == NodeStatus::Running {
                        slot.status = NodeStatus::Panicked;
                        slot.epoch += 1;
                    }
                    self.panics.push(PanicRecord {
                        time: self.now,
                        node: from,
                        reason,
                    });
                    self.recorder
                        .record(self.now, SimEvent::NodePanicked { node: from });
                }
                Effect::Span(phase) => {
                    self.recorder
                        .record(self.now, SimEvent::Phase { node: from, phase });
                }
                Effect::Gauge { metric, value } => {
                    self.recorder.record(
                        self.now,
                        SimEvent::Gauge {
                            node: from,
                            metric,
                            value,
                        },
                    );
                }
                Effect::Log(line) => {
                    self.recorder
                        .record(self.now, SimEvent::Log { node: from, line });
                }
            }
        }
        if let Some(msg) = fresh {
            self.stale.insert(from, msg);
        }
        // Hand the (drained) buffer back for the next callback. Node
        // construction uses per-node buffers, so keep the larger one.
        if effects.capacity() > self.scratch.capacity() {
            self.scratch = effects;
        }
    }
}

impl<P: Protocol> std::fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .field("commits", &self.commits.len())
            .field("panics", &self.panics.len())
            .finish()
    }
}

/// The fault kind a rule installed with drop cause `cause` reports.
fn rule_kind(cause: DropCause) -> FaultKind {
    match cause {
        DropCause::Partition => FaultKind::Partition,
        DropCause::LinkFault | DropCause::DeadNode => FaultKind::LinkFault,
    }
}

/// Convenience: a duration of `secs` seconds (shorthand used throughout
/// the test suites).
pub fn secs(secs: u64) -> SimDuration {
    SimDuration::from_secs(secs)
}

/// Convenience: a duration of `millis` milliseconds.
pub fn millis(millis: u64) -> SimDuration {
    SimDuration::from_millis(millis)
}
