//! Peer connection tracking with idle timeouts and dial backoff.
//!
//! Real validators talk over TCP connections managed by a network stack:
//! when a peer goes silent the connection is torn down after an idle
//! timeout, and reconnection attempts are retried with (usually
//! exponential) backoff. Stabl's §6 shows this machinery — not consensus —
//! dominates how fast Algorand, Aptos and Redbelly recover from network
//! partitions: Aptos probes every 5 s with a 2 s-base backoff capped at
//! 30 s and recovers quickly, while Algorand's and Redbelly's longer
//! timeouts delay recovery by 99 s and 81 s respectively.
//!
//! [`ConnectionManager`] is a pure state machine: the owning protocol
//! drives it from a periodic timer via [`ConnectionManager::upkeep`]
//! (one [`ConnectionManager::tick`] whose [`ConnAction`]s are sent as the
//! protocol's own heartbeat/dial messages) and feeds every received
//! message through [`ConnectionManager::on_heard`]. Keeping it passive
//! means it composes with any protocol and stays deterministic.

use crate::{Ctx, NodeId, Protocol, SimDuration, SimTime};

/// Timing parameters of a [`ConnectionManager`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnConfig {
    /// Silence longer than this tears the connection down.
    pub idle_timeout: SimDuration,
    /// Heartbeat period on healthy connections.
    pub heartbeat_interval: SimDuration,
    /// First retry delay after a disconnect.
    pub backoff_base: SimDuration,
    /// Multiplier applied to the delay after every failed dial
    /// (per-mille, so `2000` doubles and `1500` grows by half).
    pub backoff_factor_permille: u32,
    /// Retry delay ceiling.
    pub backoff_cap: SimDuration,
}

impl ConnConfig {
    /// Aptos-like settings (paper §6): 5 s connectivity probes,
    /// exponential backoff with a 2 s base capped at 30 s.
    pub fn fast_recovery() -> ConnConfig {
        ConnConfig {
            idle_timeout: SimDuration::from_secs(15),
            heartbeat_interval: SimDuration::from_secs(5),
            backoff_base: SimDuration::from_secs(2),
            backoff_factor_permille: 2000,
            backoff_cap: SimDuration::from_secs(30),
        }
    }
}

/// Connection state of one peer as seen locally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LinkState {
    Connected {
        last_heard: SimTime,
        last_sent: SimTime,
    },
    Disconnected {
        next_attempt: SimTime,
        backoff: SimDuration,
    },
}

/// An action requested by [`ConnectionManager::tick`]; the owning
/// protocol turns these into wire messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnAction {
    /// Send a keep-alive to a connected peer.
    SendHeartbeat(NodeId),
    /// Attempt to re-establish a torn-down connection.
    SendDial(NodeId),
    /// The connection to this peer was just torn down (idle timeout).
    Disconnected(NodeId),
}

/// Tracks the liveness of every peer connection of one node.
///
/// # Examples
///
/// ```
/// use stabl_sim::{ConnAction, ConnConfig, ConnectionManager, NodeId, SimTime};
///
/// let mut cm = ConnectionManager::new(NodeId::new(0), 3, ConnConfig::fast_recovery());
/// assert!(cm.is_connected(NodeId::new(1)));
/// // A long silence tears the link down on the next tick.
/// let actions = cm.tick(SimTime::from_secs(60));
/// assert!(actions.contains(&ConnAction::Disconnected(NodeId::new(1))));
/// assert!(!cm.is_connected(NodeId::new(1)));
/// ```
#[derive(Clone, Debug)]
pub struct ConnectionManager {
    me: NodeId,
    links: Vec<LinkState>,
    config: ConnConfig,
}

impl ConnectionManager {
    /// Creates a manager for node `me` of an `n`-node network; all links
    /// start connected (the harness boots every node simultaneously).
    pub fn new(me: NodeId, n: usize, config: ConnConfig) -> ConnectionManager {
        ConnectionManager {
            me,
            links: vec![
                LinkState::Connected {
                    last_heard: SimTime::ZERO,
                    last_sent: SimTime::ZERO,
                };
                n
            ],
            config,
        }
    }

    /// The configured timing parameters.
    pub fn config(&self) -> ConnConfig {
        self.config
    }

    /// `true` if the link to `peer` is currently up (self is always up).
    pub fn is_connected(&self, peer: NodeId) -> bool {
        peer == self.me || matches!(self.links[peer.index()], LinkState::Connected { .. })
    }

    /// All peers with an established link, in id order.
    pub fn connected_peers(&self) -> Vec<NodeId> {
        (0..self.links.len() as u32)
            .map(NodeId::new)
            .filter(|&p| p != self.me && self.is_connected(p))
            .collect()
    }

    /// Records traffic from `peer`; returns `true` if this re-established
    /// a torn-down link (the caller should then trigger state sync).
    pub fn on_heard(&mut self, peer: NodeId, now: SimTime) -> bool {
        if peer == self.me {
            return false;
        }
        let link = &mut self.links[peer.index()];
        let reconnected = matches!(link, LinkState::Disconnected { .. });
        let last_sent = match *link {
            LinkState::Connected { last_sent, .. } => last_sent,
            LinkState::Disconnected { .. } => now,
        };
        *link = LinkState::Connected {
            last_heard: now,
            last_sent,
        };
        reconnected
    }

    /// Advances the state machine to `now`, returning the actions to take.
    ///
    /// Call this from a periodic timer (1 s is plenty); the manager is
    /// insensitive to the exact cadence because all deadlines are stored
    /// as absolute times.
    pub fn tick(&mut self, now: SimTime) -> Vec<ConnAction> {
        let mut actions = Vec::new();
        for (i, link) in self.links.iter_mut().enumerate() {
            let peer = NodeId::new(i as u32);
            if peer == self.me {
                continue;
            }
            match *link {
                LinkState::Connected {
                    last_heard,
                    last_sent,
                } => {
                    if now.saturating_since(last_heard) > self.config.idle_timeout {
                        *link = LinkState::Disconnected {
                            next_attempt: now + self.config.backoff_base,
                            backoff: self.config.backoff_base,
                        };
                        actions.push(ConnAction::Disconnected(peer));
                    } else if now.saturating_since(last_sent) >= self.config.heartbeat_interval {
                        *link = LinkState::Connected {
                            last_heard,
                            last_sent: now,
                        };
                        actions.push(ConnAction::SendHeartbeat(peer));
                    }
                }
                LinkState::Disconnected {
                    next_attempt,
                    backoff,
                } => {
                    if now >= next_attempt {
                        // Wait out the *current* backoff before growing it:
                        // the first retry gap honours `backoff_base`, later
                        // gaps grow by the factor up to `backoff_cap`.
                        let wait = backoff.min(self.config.backoff_cap);
                        let grown = backoff
                            .mul_f64(self.config.backoff_factor_permille as f64 / 1000.0)
                            .min(self.config.backoff_cap);
                        *link = LinkState::Disconnected {
                            next_attempt: now + wait,
                            backoff: grown,
                        };
                        actions.push(ConnAction::SendDial(peer));
                    }
                }
            }
        }
        actions
    }

    /// One periodic upkeep round: [`tick`](Self::tick)s to `ctx.now()`
    /// and sends a clone of `heartbeat` to every peer due a keep-alive
    /// and of `dial` to every torn-down peer whose backoff elapsed.
    /// Re-arming the periodic timer stays with the caller.
    pub fn upkeep<P: Protocol>(&mut self, ctx: &mut Ctx<'_, P>, heartbeat: P::Msg, dial: P::Msg) {
        for action in self.tick(ctx.now()) {
            match action {
                ConnAction::SendHeartbeat(peer) => ctx.send(peer, heartbeat.clone()),
                ConnAction::SendDial(peer) => ctx.send(peer, dial.clone()),
                ConnAction::Disconnected(_) => {}
            }
        }
    }

    /// Forces every link down with an immediate dial (a freshly restarted
    /// node actively reconnecting — the paper's "active recovery" that
    /// makes transient-fault recovery much faster than partition
    /// recovery).
    pub fn redial_all(&mut self, now: SimTime) {
        for (i, link) in self.links.iter_mut().enumerate() {
            if i == self.me.index() {
                continue;
            }
            *link = LinkState::Disconnected {
                next_attempt: now,
                backoff: self.config.backoff_base,
            };
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn small_cfg() -> ConnConfig {
        ConnConfig {
            idle_timeout: SimDuration::from_secs(10),
            heartbeat_interval: SimDuration::from_secs(3),
            backoff_base: SimDuration::from_secs(2),
            backoff_factor_permille: 2000,
            backoff_cap: SimDuration::from_secs(16),
        }
    }

    proptest! {
        /// Hearing from a peer always re-establishes the link, whatever
        /// happened before.
        #[test]
        fn on_heard_always_connects(
            events in proptest::collection::vec((0u64..120, proptest::bool::ANY), 1..60)
        ) {
            let mut cm = ConnectionManager::new(NodeId::new(0), 3, small_cfg());
            let mut times: Vec<(u64, bool)> = events;
            times.sort_by_key(|(t, _)| *t);
            for (t, heard) in times {
                let now = SimTime::from_secs(t);
                if heard {
                    cm.on_heard(NodeId::new(1), now);
                    prop_assert!(cm.is_connected(NodeId::new(1)));
                } else {
                    cm.tick(now);
                }
            }
        }

        /// Consecutive dial attempts are spaced by at most the cap plus
        /// one tick, and at least the base backoff.
        #[test]
        fn dial_spacing_respects_backoff_bounds(horizon in 40u64..400) {
            let cfg = small_cfg();
            let mut cm = ConnectionManager::new(NodeId::new(0), 2, cfg);
            let mut dials: Vec<u64> = Vec::new();
            for s in 0..horizon {
                for action in cm.tick(SimTime::from_secs(s)) {
                    if matches!(action, ConnAction::SendDial(_)) {
                        dials.push(s);
                    }
                }
            }
            for pair in dials.windows(2) {
                let gap = pair[1] - pair[0];
                prop_assert!(gap >= cfg.backoff_base.as_micros() / 1_000_000);
                prop_assert!(gap <= cfg.backoff_cap.as_micros() / 1_000_000 + 1);
            }
        }

        /// The manager never emits heartbeats for disconnected peers or
        /// dials for connected ones.
        #[test]
        fn actions_match_link_state(
            heard_at in proptest::collection::btree_set(0u64..100, 0..20)
        ) {
            let mut cm = ConnectionManager::new(NodeId::new(0), 2, small_cfg());
            let peer = NodeId::new(1);
            for s in 0..100u64 {
                let was_connected = cm.is_connected(peer);
                let actions = cm.tick(SimTime::from_secs(s));
                for action in actions {
                    match action {
                        ConnAction::SendHeartbeat(p) => {
                            prop_assert_eq!(p, peer);
                            prop_assert!(was_connected, "heartbeat while down at {}", s);
                        }
                        ConnAction::SendDial(p) => {
                            prop_assert_eq!(p, peer);
                            prop_assert!(!was_connected, "dial while up at {}", s);
                        }
                        ConnAction::Disconnected(_) => {}
                    }
                }
                if heard_at.contains(&s) {
                    cm.on_heard(peer, SimTime::from_secs(s));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ConnConfig {
        ConnConfig {
            idle_timeout: SimDuration::from_secs(10),
            heartbeat_interval: SimDuration::from_secs(3),
            backoff_base: SimDuration::from_secs(2),
            backoff_factor_permille: 2000,
            backoff_cap: SimDuration::from_secs(16),
        }
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn starts_connected_and_heartbeats() {
        let mut cm = ConnectionManager::new(NodeId::new(0), 3, cfg());
        assert_eq!(cm.connected_peers(), vec![NodeId::new(1), NodeId::new(2)]);
        let actions = cm.tick(t(4));
        assert_eq!(
            actions,
            vec![
                ConnAction::SendHeartbeat(NodeId::new(1)),
                ConnAction::SendHeartbeat(NodeId::new(2)),
            ]
        );
        // Heartbeat interval not elapsed again yet.
        assert!(cm.tick(t(5)).is_empty());
    }

    #[test]
    fn idle_timeout_disconnects() {
        let mut cm = ConnectionManager::new(NodeId::new(0), 2, cfg());
        let actions = cm.tick(t(11));
        assert!(actions.contains(&ConnAction::Disconnected(NodeId::new(1))));
        assert!(!cm.is_connected(NodeId::new(1)));
    }

    #[test]
    fn traffic_keeps_link_alive() {
        let mut cm = ConnectionManager::new(NodeId::new(0), 2, cfg());
        for s in [5u64, 10, 15, 20] {
            cm.on_heard(NodeId::new(1), t(s));
        }
        let actions = cm.tick(t(22));
        assert!(!actions
            .iter()
            .any(|a| matches!(a, ConnAction::Disconnected(_))));
        assert!(cm.is_connected(NodeId::new(1)));
    }

    #[test]
    fn dial_backoff_grows_to_cap() {
        let mut cm = ConnectionManager::new(NodeId::new(0), 2, cfg());
        cm.tick(t(11)); // disconnect, first attempt scheduled at 13
        let mut dial_times = Vec::new();
        for s in 11..120 {
            let now = t(s);
            for a in cm.tick(now) {
                if matches!(a, ConnAction::SendDial(_)) {
                    dial_times.push(s);
                }
            }
        }
        // Delays: base 2 doubling to cap 16 → dials at 13, 15(+2),
        // 19(+4), 27(+8), 43(+16), 59(+16 — capped), ...
        assert_eq!(&dial_times[..6], &[13, 15, 19, 27, 43, 59]);
    }

    #[test]
    fn backoff_resets_after_reconnect_under_flapping() {
        // Partition → dials back off to the cap; heal → traffic
        // reconnects the link; re-partition → the dial schedule restarts
        // from the base, not from the capped delay.
        let mut cm = ConnectionManager::new(NodeId::new(0), 2, cfg());
        let dials_between = |cm: &mut ConnectionManager, from: u64, to: u64| -> Vec<u64> {
            let mut dials = Vec::new();
            for s in from..to {
                for a in cm.tick(t(s)) {
                    if matches!(a, ConnAction::SendDial(_)) {
                        dials.push(s);
                    }
                }
            }
            dials
        };
        // First partition: silence from t=0 tears the link at 11.
        let first = dials_between(&mut cm, 0, 60);
        assert_eq!(&first[..5], &[13, 15, 19, 27, 43]);
        // Heal at 60: the peer is heard again, link re-established.
        assert!(cm.on_heard(NodeId::new(1), t(60)));
        assert!(cm.is_connected(NodeId::new(1)));
        // Re-partition: silence again; teardown at 71 (60 + idle 10,
        // strictly exceeded at the next whole-second tick), and the
        // backoff schedule starts over at the 2 s base.
        let second = dials_between(&mut cm, 60, 120);
        assert_eq!(
            &second[..5],
            &[73, 75, 79, 87, 103],
            "recovery schedule must restart from the base after a reconnect"
        );
    }

    #[test]
    fn on_heard_reconnects_and_reports() {
        let mut cm = ConnectionManager::new(NodeId::new(0), 2, cfg());
        cm.tick(t(11));
        assert!(!cm.is_connected(NodeId::new(1)));
        assert!(
            cm.on_heard(NodeId::new(1), t(12)),
            "reconnect reported once"
        );
        assert!(cm.is_connected(NodeId::new(1)));
        assert!(!cm.on_heard(NodeId::new(1), t(13)), "already connected");
    }

    #[test]
    fn redial_all_is_immediate() {
        let mut cm = ConnectionManager::new(NodeId::new(0), 3, cfg());
        cm.redial_all(t(50));
        let actions = cm.tick(t(50));
        assert_eq!(
            actions,
            vec![
                ConnAction::SendDial(NodeId::new(1)),
                ConnAction::SendDial(NodeId::new(2))
            ]
        );
    }

    #[test]
    fn self_link_ignored() {
        let mut cm = ConnectionManager::new(NodeId::new(1), 2, cfg());
        assert!(cm.is_connected(NodeId::new(1)));
        assert!(!cm.on_heard(NodeId::new(1), t(5)));
        assert!(cm.connected_peers().contains(&NodeId::new(0)));
    }

    #[test]
    fn tick_cadence_does_not_matter() {
        // Coarse ticking may batch actions but produces the same dials.
        let run = |step: u64| {
            let mut cm = ConnectionManager::new(NodeId::new(0), 2, cfg());
            let mut dials = 0;
            let mut s = 0;
            while s < 100 {
                for a in cm.tick(t(s)) {
                    if matches!(a, ConnAction::SendDial(_)) {
                        dials += 1;
                    }
                }
                s += step;
            }
            dials
        };
        let fine = run(1);
        let coarse = run(5);
        assert!(fine > 0 && coarse > 0);
        assert!(
            (fine as i64 - coarse as i64).abs() <= 2,
            "{fine} vs {coarse}"
        );
    }
}
