//! Kernel-stressing workloads for the host-time benchmark.
//!
//! Nothing in this workspace runs them: `benchmark/src/micro.rs` (the
//! repo's one measuring path, see `benchmark/README.md`) imports these
//! protocols and agenda drivers for its `sim.*` per-layer metrics, and
//! that crate may only use what the product crates export. The tests
//! below keep them doing what the benchmark assumes.

use stabl_sim::{Agenda, Ctx, DetRng, NodeId, Protocol, SimDuration};

/// A chatty protocol stressing the event queue: every node broadcasts on
/// a 10 ms timer and ignores what it hears back.
pub struct Chatty;

impl Protocol for Chatty {
    type Msg = u64;
    type Request = u64;
    type Commit = u64;
    type Timer = ();
    type Config = ();
    fn new(_: NodeId, _: usize, _: &(), ctx: &mut Ctx<'_, Self>) -> Self {
        ctx.set_timer(SimDuration::from_millis(10), ());
        Chatty
    }
    fn on_message(&mut self, _: NodeId, _: u64, _: &mut Ctx<'_, Self>) {}
    fn on_timer(&mut self, _: (), ctx: &mut Ctx<'_, Self>) {
        ctx.broadcast(1);
        ctx.set_timer(SimDuration::from_millis(10), ());
    }
    fn on_request(&mut self, _: u64, _: &mut Ctx<'_, Self>) {}
    fn on_restart(&mut self, _: &mut Ctx<'_, Self>) {}
}

/// A timer-churn protocol: every fire arms a fresh batch of eight timers
/// and immediately cancels all but one, so the agenda carries a steady
/// load of stale, generation-bumped slots next to the live ones.
pub struct Churny;

impl Protocol for Churny {
    type Msg = u64;
    type Request = u64;
    type Commit = u64;
    type Timer = u32;
    type Config = ();
    fn new(_: NodeId, _: usize, _: &(), ctx: &mut Ctx<'_, Self>) -> Self {
        ctx.set_timer(SimDuration::from_millis(1), 0);
        Churny
    }
    fn on_message(&mut self, _: NodeId, _: u64, _: &mut Ctx<'_, Self>) {}
    fn on_timer(&mut self, _: u32, ctx: &mut Ctx<'_, Self>) {
        for i in 0..8u32 {
            let delay = SimDuration::from_micros(500 + 137 * u64::from(i));
            let id = ctx.set_timer(delay, i);
            if i < 7 {
                ctx.cancel_timer(id);
            }
        }
    }
    fn on_request(&mut self, _: u64, _: &mut Ctx<'_, Self>) {}
    fn on_restart(&mut self, _: &mut Ctx<'_, Self>) {}
}

/// Pre-generates `count` event times drawn uniformly from
/// `[0, horizon_micros)`, shared by the agenda workloads.
pub fn event_times(count: usize, horizon_micros: u64, seed: u64) -> Vec<u64> {
    let mut rng = DetRng::new(seed);
    (0..count).map(|_| rng.next_below(horizon_micros)).collect()
}

/// Pushes every time into a fresh agenda and pops them all back out,
/// returning a payload checksum that forces the work to happen.
pub fn agenda_round_trip(times: &[u64]) -> u64 {
    let mut agenda: Agenda<u64> = Agenda::new();
    for (i, &t) in times.iter().enumerate() {
        agenda.push(t, i as u64);
    }
    let mut acc = 0u64;
    while let Some((_, payload)) = agenda.pop() {
        acc = acc.wrapping_add(payload);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabl_sim::{SimTime, Simulation};

    #[test]
    fn agenda_round_trip_sums_all_payloads() {
        let times = event_times(1_000, 64_000, 7);
        let expected: u64 = (0..1_000u64).sum();
        assert_eq!(agenda_round_trip(&times), expected);
    }

    #[test]
    fn chatty_delivers_broadcasts() {
        let mut sim = Simulation::<Chatty>::new(5, 42, ());
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.stats().messages_delivered > 0);
    }

    #[test]
    fn churny_leaves_stale_timers() {
        let mut sim = Simulation::<Churny>::new(5, 42, ());
        sim.run_until(SimTime::from_secs(1));
        let stats = sim.stats();
        // Seven of every eight armed timers are cancelled before firing.
        assert!(stats.timers_stale > stats.timers_fired);
    }
}
