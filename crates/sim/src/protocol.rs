//! The protocol trait implemented by every simulated blockchain node, and
//! the [`Ctx`] handle through which a node interacts with the world.

use std::fmt::Debug;

use smallvec::SmallVec;

use crate::agenda::TimerRegistry;
use crate::{CaptureLevel, ContentionStats, DetRng, NodeId, SimDuration, SimTime};

/// Handle to a pending timer, usable to cancel it.
///
/// Packs the timer's registry slot and a generation stamp, so a handle
/// kept past its timer's firing can never cancel an unrelated timer
/// that happens to reuse the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// Inline capacity of a multicast target list before it spills to the
/// heap (committee sizes beyond this are rare in the modelled chains).
pub(crate) const MULTICAST_INLINE: usize = 8;

/// A deterministic state machine driven by the simulation kernel.
///
/// One instance runs per validator node. All interaction with the outside
/// world — sending messages, arming timers, committing transactions —
/// happens through the [`Ctx`] passed to each callback; effects are applied
/// by the kernel after the callback returns, which keeps re-entrancy
/// impossible and executions deterministic.
///
/// # Crash/restart semantics
///
/// When the harness crashes a node, the kernel stops delivering messages
/// and timers to it but keeps the instance. When the node is restarted,
/// [`Protocol::on_restart`] runs: the implementation must discard its
/// *volatile* state (mempool contents, in-flight votes, open timers — all
/// timers are force-cancelled by the kernel) while keeping its *durable*
/// state (the committed chain), mirroring a real validator rebooting from
/// disk.
pub trait Protocol: Sized {
    /// Wire message exchanged between nodes.
    type Msg: Clone + Debug;
    /// Client request submitted to a node (a transaction).
    type Request: Clone + Debug;
    /// Commit notification payload (typically a transaction id).
    type Commit: Clone + Debug;
    /// Timer token distinguishing the purposes of timers.
    type Timer: Clone + Debug;
    /// Static per-run configuration shared by all nodes.
    type Config: Clone;

    /// Constructs the node `id` of an `n`-node network and performs
    /// start-up work (arming the first timers, etc.).
    fn new(id: NodeId, n: usize, config: &Self::Config, ctx: &mut Ctx<'_, Self>) -> Self;

    /// Handles a message delivered from `from`.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self>);

    /// Handles an armed timer firing.
    fn on_timer(&mut self, timer: Self::Timer, ctx: &mut Ctx<'_, Self>);

    /// Handles a client submitting a request directly to this node.
    fn on_request(&mut self, request: Self::Request, ctx: &mut Ctx<'_, Self>);

    /// Reinitialises the node after a restart (see the trait docs).
    fn on_restart(&mut self, ctx: &mut Ctx<'_, Self>);

    /// Reports this node's accumulated contention counters (speculative
    /// re-executions, conflict aborts, pool evictions/replacements).
    ///
    /// The kernel folds every node's report into [`SimStats`] when a
    /// run's statistics are read. The default reports zeros, which is
    /// correct for protocols whose model has no mempool or speculative
    /// execution layer.
    ///
    /// [`SimStats`]: crate::SimStats
    fn contention_stats(&self) -> ContentionStats {
        ContentionStats::default()
    }
}

/// An effect requested by a protocol callback, applied by the kernel after
/// the callback returns.
#[derive(Debug)]
pub(crate) enum Effect<P: Protocol> {
    Send {
        to: NodeId,
        msg: P::Msg,
    },
    /// One payload to every other node; the kernel expands the fanout
    /// (in ascending node order, skipping the sender) against a single
    /// arena-stored payload instead of `n - 1` eager clones.
    Broadcast {
        msg: P::Msg,
    },
    /// One payload to an explicit target list, expanded like
    /// [`Effect::Broadcast`] but in list order.
    Multicast {
        targets: SmallVec<NodeId, MULTICAST_INLINE>,
        msg: P::Msg,
    },
    SetTimer {
        id: TimerId,
        delay: SimDuration,
        token: P::Timer,
    },
    CancelTimer(TimerId),
    Commit(P::Commit),
    Panic(String),
    Log(String),
    Span(&'static str),
    Gauge {
        metric: &'static str,
        value: u64,
    },
}

/// The execution context passed to every [`Protocol`] callback.
///
/// Provides the current simulated time, the node's deterministic RNG and
/// buffered effect emission (sends, timers, commits).
#[derive(Debug)]
pub struct Ctx<'a, P: Protocol> {
    pub(crate) node: NodeId,
    pub(crate) n: usize,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut DetRng,
    pub(crate) effects: &'a mut Vec<Effect<P>>,
    pub(crate) timers: &'a mut TimerRegistry,
    pub(crate) capture: CaptureLevel,
}

impl<'a, P: Protocol> Ctx<'a, P> {
    /// The id of the node executing this callback.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The number of validator nodes in the network.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node's private deterministic RNG stream.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Sends `msg` to `to`. Sending to self delivers through the network
    /// like any other message.
    pub fn send(&mut self, to: NodeId, msg: P::Msg) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Sends `msg` to every other node.
    ///
    /// The payload is stored once and fanned out by the kernel (see
    /// [`Effect::Broadcast`]); recipients observe exactly the same
    /// deliveries as `n - 1` individual [`Ctx::send`] calls in
    /// ascending node order.
    pub fn broadcast(&mut self, msg: P::Msg) {
        self.effects.push(Effect::Broadcast { msg });
    }

    /// Sends `msg` to each node in `targets`.
    pub fn multicast<I>(&mut self, targets: I, msg: P::Msg)
    where
        I: IntoIterator<Item = NodeId>,
    {
        let targets: SmallVec<NodeId, MULTICAST_INLINE> = targets.into_iter().collect();
        self.effects.push(Effect::Multicast { targets, msg });
    }

    /// Arms a timer that fires after `delay` with `token`; returns a
    /// handle usable with [`Ctx::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: P::Timer) -> TimerId {
        let id = self.timers.arm();
        self.effects.push(Effect::SetTimer { id, delay, token });
        id
    }

    /// Cancels a previously armed timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// Reports that this node has committed (finalised and executed)
    /// `commit`; recorded with the current time in the run's commit log.
    pub fn commit(&mut self, commit: P::Commit) {
        self.effects.push(Effect::Commit(commit));
    }

    /// Reports a fatal, unrecoverable node failure (the analogue of a
    /// Rust/Go `panic` in a real validator, like Solana's EAH abort).
    /// The node halts permanently and cannot be restarted.
    pub fn panic_node(&mut self, reason: impl Into<String>) {
        self.effects.push(Effect::Panic(reason.into()));
    }

    /// Records a diagnostic line as a typed [`SimEvent::Log`] under
    /// [`CaptureLevel::Full`]; a no-op below that level.
    ///
    /// [`SimEvent::Log`]: crate::SimEvent::Log
    pub fn log(&mut self, line: impl AsRef<str>) {
        if self.capture == CaptureLevel::Full {
            self.effects.push(Effect::Log(line.as_ref().to_owned()));
        }
    }

    /// Marks this node entering the consensus phase `phase` (e.g.
    /// `"sortition"`, `"snowball_poll"`, `"leader_slot"`), recorded as a
    /// typed [`SimEvent::Phase`] from [`CaptureLevel::Events`] up.
    ///
    /// A no-op below that level, so protocols can mark phases
    /// unconditionally without string formatting or hot-loop cost; the
    /// mark never perturbs determinism (it only records).
    ///
    /// [`SimEvent::Phase`]: crate::SimEvent::Phase
    pub fn span(&mut self, phase: &'static str) {
        if self.capture >= CaptureLevel::Events {
            self.effects.push(Effect::Span(phase));
        }
    }

    /// Samples the named per-node metric (e.g. `"mempool_depth"`,
    /// `"round"`, `"connections"`), recorded as a typed
    /// [`SimEvent::Gauge`] from [`CaptureLevel::Events`] up.
    ///
    /// Like [`Ctx::span`], a no-op below that level and
    /// deterministic-neutral above it: the sample only records, it never
    /// feeds back into protocol state or the RNG, so gauges can be
    /// emitted unconditionally on hot paths.
    ///
    /// [`SimEvent::Gauge`]: crate::SimEvent::Gauge
    pub fn gauge(&mut self, metric: &'static str, value: u64) {
        if self.capture >= CaptureLevel::Events {
            self.effects.push(Effect::Gauge { metric, value });
        }
    }
}
