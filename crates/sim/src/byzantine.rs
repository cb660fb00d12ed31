//! Byzantine node behaviors: a transparent protocol wrapper that makes
//! selected nodes misbehave on their outbound traffic.
//!
//! The paper measures how chains tolerate *Byzantine* deviations, not
//! just crashes (§2: Redbelly's t < n/3, Algorand's 20 % assumption).
//! [`ByzantineWrapper`] turns any honest [`Protocol`] implementation
//! into a network where the nodes named by a [`ByzantineSpec`] deviate
//! in one of four ways while every other node runs the inner protocol
//! unchanged:
//!
//! * **Withhold** — outbound messages are silently discarded (a mute
//!   node that still processes inbound traffic, like a validator whose
//!   egress died).
//! * **Delay** — every outbound message is held back by a fixed extra
//!   delay before entering the network (a laggard that keeps
//!   responding, the slow-but-Byzantine case).
//! * **Mutate** — outbound payloads are replaced with the *stale*
//!   payload from the node's previous callback, corrupting its stream
//!   with replayed state. Mutation-by-replay is the only
//!   protocol-agnostic corruption possible: `Msg` is an opaque
//!   associated type, and a stale-but-well-formed message is exactly
//!   the kind of equivocation consensus protocols must reject.
//! * **Equivocate** — conflicting payloads to different peers: peers
//!   with an even node index receive the fresh payload, peers with an
//!   odd index receive the stale one from the previous callback.
//!
//! The wrapper is *bit-transparent* for honest nodes and for a spec
//! with no Byzantine nodes: it forwards effects unchanged and draws no
//! extra randomness, so wrapping does not perturb a run's RNG streams.

use std::collections::BTreeSet;
use std::fmt;

use crate::protocol::Effect;
use crate::{Ctx, NodeId, Protocol, SimDuration};

/// How a Byzantine node deviates (see the module docs for semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByzantineBehavior {
    /// Replace outbound payloads with the previous callback's payload.
    Mutate,
    /// Fresh payload to even-indexed peers, stale payload to odd ones.
    Equivocate,
    /// Hold every outbound message back by this extra delay.
    Delay(SimDuration),
    /// Discard every outbound message.
    Withhold,
}

/// Which nodes misbehave, and how.
///
/// # Examples
///
/// ```
/// use stabl_sim::{ByzantineBehavior, ByzantineSpec, NodeId};
///
/// let spec = ByzantineSpec::new([NodeId::new(3)], ByzantineBehavior::Equivocate);
/// assert!(spec.is_active());
/// assert!(spec.is_byzantine(NodeId::new(3)));
/// assert!(!spec.is_byzantine(NodeId::new(0)));
/// assert!(!ByzantineSpec::none().is_active());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ByzantineSpec {
    nodes: BTreeSet<NodeId>,
    behavior: ByzantineBehavior,
}

impl ByzantineSpec {
    /// A spec with no Byzantine nodes (the wrapper becomes transparent).
    pub fn none() -> ByzantineSpec {
        ByzantineSpec {
            nodes: BTreeSet::new(),
            behavior: ByzantineBehavior::Equivocate,
        }
    }

    /// Makes every node in `nodes` deviate with `behavior`.
    pub fn new<I>(nodes: I, behavior: ByzantineBehavior) -> ByzantineSpec
    where
        I: IntoIterator<Item = NodeId>,
    {
        ByzantineSpec {
            nodes: nodes.into_iter().collect(),
            behavior,
        }
    }

    /// `true` if at least one node misbehaves.
    pub fn is_active(&self) -> bool {
        !self.nodes.is_empty()
    }

    /// `true` if `node` is Byzantine under this spec.
    pub fn is_byzantine(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// The misbehaving nodes.
    pub fn nodes(&self) -> &BTreeSet<NodeId> {
        &self.nodes
    }

    /// The deviation applied to every Byzantine node.
    pub fn behavior(&self) -> ByzantineBehavior {
        self.behavior
    }
}

impl Default for ByzantineSpec {
    fn default() -> Self {
        ByzantineSpec::none()
    }
}

/// Configuration of a [`ByzantineWrapper`]: the inner protocol's config
/// plus the Byzantine spec.
#[derive(Clone, Debug)]
pub struct ByzConfig<C> {
    /// The wrapped protocol's configuration.
    pub inner: C,
    /// Which nodes misbehave, and how.
    pub spec: ByzantineSpec,
}

impl<C> ByzConfig<C> {
    /// Pairs an inner config with a Byzantine spec.
    pub fn new(inner: C, spec: ByzantineSpec) -> ByzConfig<C> {
        ByzConfig { inner, spec }
    }
}

/// Timer token of a [`ByzantineWrapper`]: either the inner protocol's
/// timer or a delayed outbound delivery (the `Delay` behavior).
pub enum ByzTimer<P: Protocol> {
    /// The inner protocol armed this timer.
    Inner(P::Timer),
    /// A held-back outbound message now due to enter the network.
    Deliver {
        /// The original recipient.
        to: NodeId,
        /// The original payload.
        msg: P::Msg,
    },
}

impl<P: Protocol> Clone for ByzTimer<P> {
    fn clone(&self) -> Self {
        match self {
            ByzTimer::Inner(t) => ByzTimer::Inner(t.clone()),
            ByzTimer::Deliver { to, msg } => ByzTimer::Deliver {
                to: *to,
                msg: msg.clone(),
            },
        }
    }
}

impl<P: Protocol> fmt::Debug for ByzTimer<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ByzTimer::Inner(t) => f.debug_tuple("Inner").field(t).finish(),
            ByzTimer::Deliver { to, msg } => f
                .debug_struct("Deliver")
                .field("to", to)
                .field("msg", msg)
                .finish(),
        }
    }
}

/// Runs protocol `P` on every node, making the nodes selected by the
/// [`ByzantineSpec`] misbehave on their outbound messages.
///
/// Honest nodes (and every node under an inactive spec) behave
/// bit-identically to the unwrapped protocol.
pub struct ByzantineWrapper<P: Protocol> {
    inner: P,
    byzantine: bool,
    behavior: ByzantineBehavior,
    /// The payload most recently sent by a *previous* callback — the
    /// stale message Mutate and Equivocate replay.
    last_sent: Option<P::Msg>,
}

impl<P: Protocol> ByzantineWrapper<P> {
    /// The wrapped protocol instance (for post-run inspection).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// `true` if this node misbehaves.
    pub fn is_byzantine(&self) -> bool {
        self.byzantine
    }

    /// Runs an inner-protocol callback against a scratch effect buffer,
    /// then relays the buffered effects through the Byzantine filter.
    fn drive<F>(&mut self, ctx: &mut Ctx<'_, Self>, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P>),
    {
        let mut effects: Vec<Effect<P>> = Vec::new();
        {
            let mut inner_ctx = Ctx {
                node: ctx.node,
                n: ctx.n,
                now: ctx.now,
                rng: &mut *ctx.rng,
                effects: &mut effects,
                timers: &mut *ctx.timers,
                capture: ctx.capture,
            };
            f(&mut self.inner, &mut inner_ctx);
        }
        self.relay(effects, ctx);
    }

    /// Applies the Byzantine filter to one callback's worth of effects.
    fn relay(&mut self, effects: Vec<Effect<P>>, ctx: &mut Ctx<'_, Self>) {
        // The stale payload seen by this whole callback is fixed up
        // front, so a broadcast equivocates consistently: every odd
        // peer sees the same previous-round payload.
        let mut fresh: Option<P::Msg> = None;
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    if !self.byzantine {
                        ctx.send(to, msg);
                        continue;
                    }
                    match self.behavior {
                        ByzantineBehavior::Withhold => {}
                        ByzantineBehavior::Delay(extra) => {
                            ctx.set_timer(extra, ByzTimer::Deliver { to, msg });
                        }
                        ByzantineBehavior::Mutate => {
                            let wire = self.last_sent.clone().unwrap_or_else(|| msg.clone());
                            fresh = Some(msg);
                            ctx.send(to, wire);
                        }
                        ByzantineBehavior::Equivocate => {
                            let wire = if to.as_u32() % 2 == 1 {
                                self.last_sent.clone().unwrap_or_else(|| msg.clone())
                            } else {
                                msg.clone()
                            };
                            fresh = Some(msg);
                            ctx.send(to, wire);
                        }
                    }
                }
                Effect::Broadcast { msg } => {
                    if !self.byzantine {
                        ctx.effects.push(Effect::Broadcast { msg });
                        continue;
                    }
                    // Expand the fanout exactly as the kernel would
                    // (ascending node order, skipping the sender) and
                    // deviate per target.
                    let me = ctx.node;
                    let n = ctx.n;
                    match self.behavior {
                        ByzantineBehavior::Withhold => {}
                        ByzantineBehavior::Delay(extra) => {
                            for to in NodeId::all(n).filter(|to| *to != me) {
                                ctx.set_timer(
                                    extra,
                                    ByzTimer::Deliver {
                                        to,
                                        msg: msg.clone(),
                                    },
                                );
                            }
                        }
                        ByzantineBehavior::Mutate => {
                            let wire = self.last_sent.clone().unwrap_or_else(|| msg.clone());
                            fresh = Some(msg);
                            ctx.effects.push(Effect::Broadcast { msg: wire });
                        }
                        ByzantineBehavior::Equivocate => {
                            for to in NodeId::all(n).filter(|to| *to != me) {
                                let wire = if to.as_u32() % 2 == 1 {
                                    self.last_sent.clone().unwrap_or_else(|| msg.clone())
                                } else {
                                    msg.clone()
                                };
                                ctx.send(to, wire);
                            }
                            fresh = Some(msg);
                        }
                    }
                }
                Effect::Multicast { targets, msg } => {
                    if !self.byzantine {
                        ctx.effects.push(Effect::Multicast { targets, msg });
                        continue;
                    }
                    match self.behavior {
                        ByzantineBehavior::Withhold => {}
                        ByzantineBehavior::Delay(extra) => {
                            for to in targets {
                                ctx.set_timer(
                                    extra,
                                    ByzTimer::Deliver {
                                        to,
                                        msg: msg.clone(),
                                    },
                                );
                            }
                        }
                        ByzantineBehavior::Mutate => {
                            let wire = self.last_sent.clone().unwrap_or_else(|| msg.clone());
                            fresh = Some(msg);
                            ctx.effects.push(Effect::Multicast { targets, msg: wire });
                        }
                        ByzantineBehavior::Equivocate => {
                            for to in targets {
                                let wire = if to.as_u32() % 2 == 1 {
                                    self.last_sent.clone().unwrap_or_else(|| msg.clone())
                                } else {
                                    msg.clone()
                                };
                                ctx.send(to, wire);
                            }
                            fresh = Some(msg);
                        }
                    }
                }
                Effect::SetTimer { id, delay, token } => {
                    ctx.effects.push(Effect::SetTimer {
                        id,
                        delay,
                        token: ByzTimer::Inner(token),
                    });
                }
                Effect::CancelTimer(id) => ctx.effects.push(Effect::CancelTimer(id)),
                Effect::Commit(commit) => ctx.effects.push(Effect::Commit(commit)),
                Effect::Panic(reason) => ctx.effects.push(Effect::Panic(reason)),
                Effect::Log(line) => ctx.effects.push(Effect::Log(line)),
                Effect::Span(phase) => ctx.effects.push(Effect::Span(phase)),
                Effect::Gauge { metric, value } => {
                    ctx.effects.push(Effect::Gauge { metric, value })
                }
            }
        }
        if let Some(msg) = fresh {
            self.last_sent = Some(msg);
        }
    }
}

impl<P: Protocol> Protocol for ByzantineWrapper<P> {
    type Msg = P::Msg;
    type Request = P::Request;
    type Commit = P::Commit;
    type Timer = ByzTimer<P>;
    type Config = ByzConfig<P::Config>;

    fn new(id: NodeId, n: usize, config: &Self::Config, ctx: &mut Ctx<'_, Self>) -> Self {
        let mut effects: Vec<Effect<P>> = Vec::new();
        let inner = {
            let mut inner_ctx = Ctx {
                node: id,
                n,
                now: ctx.now,
                rng: &mut *ctx.rng,
                effects: &mut effects,
                timers: &mut *ctx.timers,
                capture: ctx.capture,
            };
            P::new(id, n, &config.inner, &mut inner_ctx)
        };
        let mut wrapper = ByzantineWrapper {
            inner,
            byzantine: config.spec.is_byzantine(id),
            behavior: config.spec.behavior(),
            last_sent: None,
        };
        wrapper.relay(effects, ctx);
        wrapper
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self>) {
        self.drive(ctx, |inner, inner_ctx| {
            inner.on_message(from, msg, inner_ctx)
        });
    }

    fn on_timer(&mut self, timer: Self::Timer, ctx: &mut Ctx<'_, Self>) {
        match timer {
            ByzTimer::Inner(token) => {
                self.drive(ctx, |inner, inner_ctx| inner.on_timer(token, inner_ctx));
            }
            // The Byzantine filter already ran when the message was
            // held back; release it into the network untouched.
            ByzTimer::Deliver { to, msg } => ctx.send(to, msg),
        }
    }

    fn on_request(&mut self, request: Self::Request, ctx: &mut Ctx<'_, Self>) {
        self.drive(ctx, |inner, inner_ctx| inner.on_request(request, inner_ctx));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.last_sent = None;
        self.drive(ctx, |inner, inner_ctx| inner.on_restart(inner_ctx));
    }

    fn contention_stats(&self) -> crate::ContentionStats {
        self.inner.contention_stats()
    }
}

impl<P: Protocol + fmt::Debug> fmt::Debug for ByzantineWrapper<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ByzantineWrapper")
            .field("inner", &self.inner)
            .field("byzantine", &self.byzantine)
            .field("behavior", &self.behavior)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimTime, Simulation};

    /// Each node broadcasts an increasing sequence number every 100 ms
    /// and commits `(sender, seq)` for every broadcast it receives.
    #[derive(Debug)]
    struct Counter {
        seq: u64,
    }

    impl Protocol for Counter {
        type Msg = u64;
        type Request = u64;
        type Commit = (u32, u64);
        type Timer = ();
        type Config = ();

        fn new(_: NodeId, _: usize, _: &(), ctx: &mut Ctx<'_, Self>) -> Self {
            ctx.set_timer(SimDuration::from_millis(100), ());
            Counter { seq: 0 }
        }
        fn on_message(&mut self, from: NodeId, seq: u64, ctx: &mut Ctx<'_, Self>) {
            ctx.commit((from.as_u32(), seq));
        }
        fn on_timer(&mut self, _: (), ctx: &mut Ctx<'_, Self>) {
            self.seq += 1;
            ctx.broadcast(self.seq);
            ctx.set_timer(SimDuration::from_millis(100), ());
        }
        fn on_request(&mut self, seq: u64, ctx: &mut Ctx<'_, Self>) {
            ctx.broadcast(seq);
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_, Self>) {
            ctx.set_timer(SimDuration::from_millis(100), ());
        }
    }

    fn byz_sim(n: usize, seed: u64, spec: ByzantineSpec) -> Simulation<ByzantineWrapper<Counter>> {
        Simulation::new(n, seed, ByzConfig::new((), spec))
    }

    fn commits_of(sim: &Simulation<ByzantineWrapper<Counter>>) -> Vec<(u64, u32, (u32, u64))> {
        sim.commits()
            .iter()
            .map(|c| (c.time.as_micros(), c.node.as_u32(), c.commit))
            .collect()
    }

    #[test]
    fn inactive_spec_is_bit_transparent() {
        let mut plain = Simulation::<Counter>::new(3, 42, ());
        plain.run_until(SimTime::from_secs(2));
        let mut wrapped = byz_sim(3, 42, ByzantineSpec::none());
        wrapped.run_until(SimTime::from_secs(2));
        let plain_commits: Vec<_> = plain
            .commits()
            .iter()
            .map(|c| (c.time.as_micros(), c.node.as_u32(), c.commit))
            .collect();
        assert_eq!(plain_commits, commits_of(&wrapped));
        assert_eq!(plain.stats(), wrapped.stats());
    }

    #[test]
    fn withholding_node_goes_mute() {
        let spec = ByzantineSpec::new([NodeId::new(2)], ByzantineBehavior::Withhold);
        let mut sim = byz_sim(3, 7, spec);
        sim.run_until(SimTime::from_secs(2));
        let from_byz = sim.commits().iter().filter(|c| c.commit.0 == 2).count();
        assert_eq!(from_byz, 0, "withheld broadcasts never arrive");
        let at_byz = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(2))
            .count();
        assert!(at_byz > 0, "the mute node still processes inbound traffic");
        assert!(sim.node(NodeId::new(2)).is_byzantine());
    }

    #[test]
    fn delaying_node_arrives_late() {
        let first_arrival = |spec: ByzantineSpec| {
            let mut sim = byz_sim(2, 9, spec);
            sim.run_until(SimTime::from_secs(2));
            sim.commits()
                .iter()
                .find(|c| c.commit.0 == 1)
                .map(|c| c.time)
                .expect("node1's broadcast observed")
        };
        let honest = first_arrival(ByzantineSpec::none());
        let delayed = first_arrival(ByzantineSpec::new(
            [NodeId::new(1)],
            ByzantineBehavior::Delay(SimDuration::from_millis(500)),
        ));
        assert!(
            delayed >= honest + SimDuration::from_millis(450),
            "delay must hold messages back: {honest} vs {delayed}"
        );
    }

    #[test]
    fn equivocating_node_sends_conflicting_payloads() {
        // 3 nodes; node2 equivocates. In round k, node0 (even) sees seq
        // k while node1 (odd) sees seq k-1: conflicting views of the
        // same broadcast.
        let spec = ByzantineSpec::new([NodeId::new(2)], ByzantineBehavior::Equivocate);
        let mut sim = byz_sim(3, 11, spec);
        sim.run_until(SimTime::from_secs(1));
        let seen_by = |node: u32| -> Vec<u64> {
            sim.commits()
                .iter()
                .filter(|c| c.node == NodeId::new(node) && c.commit.0 == 2)
                .map(|c| c.commit.1)
                .collect()
        };
        let even_view = seen_by(0);
        let odd_view = seen_by(1);
        assert!(!even_view.is_empty() && !odd_view.is_empty());
        assert_ne!(
            even_view, odd_view,
            "peers must observe conflicting streams"
        );
        assert!(
            odd_view.iter().zip(even_view.iter()).all(|(o, e)| o <= e),
            "odd peers lag behind: {odd_view:?} vs {even_view:?}"
        );
    }

    #[test]
    fn mutating_node_replays_stale_payloads() {
        let spec = ByzantineSpec::new([NodeId::new(1)], ByzantineBehavior::Mutate);
        let mut sim = byz_sim(2, 13, spec);
        sim.run_until(SimTime::from_secs(1));
        let seen: Vec<u64> = sim
            .commits()
            .iter()
            .filter(|c| c.node == NodeId::new(0) && c.commit.0 == 1)
            .map(|c| c.commit.1)
            .collect();
        // Round k delivers the payload of round k-1 (round 1 passes
        // through unchanged): 1, 1, 2, 3, ... instead of 1, 2, 3, ...
        assert!(seen.len() >= 3);
        assert_eq!(seen[0], 1);
        assert_eq!(seen[1], 1, "round 2 replays round 1's payload");
        assert!(seen.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn byzantine_runs_are_deterministic() {
        let run = |seed| {
            let spec = ByzantineSpec::new([NodeId::new(0)], ByzantineBehavior::Equivocate);
            let mut sim = byz_sim(4, seed, spec);
            sim.run_until(SimTime::from_secs(1));
            commits_of(&sim)
        };
        assert_eq!(run(5), run(5));
    }
}
