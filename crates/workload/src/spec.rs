//! The workload specification: the paper's constant-rate transfers plus
//! the production traffic extension.
//!
//! The paper fixes 200 TPS total from 5 clients (40 TPS each), each
//! client pinned to one blockchain node, with failures injected only on
//! the nodes that serve no client — so faulty nodes never lose
//! transactions they were the sole recipient of (§3).
//!
//! The legacy deterministic grid generator lives here unchanged: a
//! spec whose `traffic` is `None` produces submissions byte-identical
//! to every artifact the suite has ever committed. Setting `traffic`
//! routes generation through [`TrafficModel`] instead, which is where
//! Zipf populations, bursty arrivals and conflict profiles come in.

use stabl_sim::{SimDuration, SimTime};
use stabl_types::{AccountId, Transaction};

use crate::traffic::TrafficModel;

/// The time profile of the offered load.
///
/// The paper's workload is constant-rate (its §8 limitations name
/// fluctuating workloads and request bursts as future work); the other
/// shapes implement that extension. [`crate::ArrivalProcess`]
/// generalizes this family with stochastic arrivals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadShape {
    /// Constant rate (the paper's workload).
    Constant,
    /// Periodic bursts: every `period`, the rate multiplies by `factor`
    /// for `burst_len`.
    Burst {
        /// Distance between burst starts.
        period: SimDuration,
        /// Burst duration (must not exceed `period`).
        burst_len: SimDuration,
        /// Rate multiplier during a burst.
        factor: u32,
    },
    /// Linear ramp from `tps_per_client` at `start` to this per-client
    /// rate at `end`.
    Ramp {
        /// Final per-client rate.
        end_tps_per_client: u64,
    },
}

/// One client's scheduled submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Submission {
    /// When the client sends it.
    pub at: SimTime,
    /// The submitting client's index.
    pub client: usize,
    /// The transfer itself.
    pub transaction: Transaction,
}

/// Specification of a transfer workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Number of clients (the paper: 5).
    pub clients: usize,
    /// Accounts per client; each account sends a strictly increasing
    /// nonce sequence. (Legacy grid generator only.)
    pub accounts_per_client: u32,
    /// Per-client submission rate (the paper: 40 TPS). (Legacy grid
    /// generator only; a traffic model carries its own rates.)
    pub tps_per_client: u64,
    /// First submission instant.
    pub start: SimTime,
    /// Submissions stop at this instant (exclusive).
    pub end: SimTime,
    /// The time profile of the rate. (Legacy grid generator only.)
    pub shape: WorkloadShape,
    /// Production traffic model; `None` selects the legacy grid
    /// generator (the paper's workload, byte-identical to the seed).
    pub traffic: Option<TrafficModel>,
}

impl WorkloadSpec {
    /// The paper's standard workload: 5 clients × 40 TPS from 1 s until
    /// `end`.
    pub fn paper_standard(end: SimTime) -> WorkloadSpec {
        WorkloadSpec {
            clients: 5,
            accounts_per_client: 4,
            tps_per_client: 40,
            start: SimTime::from_secs(1),
            end,
            shape: WorkloadShape::Constant,
            traffic: None,
        }
    }

    /// The paper-standard window driven by a production traffic model.
    pub fn production(end: SimTime, model: TrafficModel) -> WorkloadSpec {
        WorkloadSpec {
            traffic: Some(model),
            ..WorkloadSpec::paper_standard(end)
        }
    }

    /// The per-client rate in force at instant `at` (TPS).
    pub fn rate_at(&self, at: SimTime) -> u64 {
        match self.shape {
            WorkloadShape::Constant => self.tps_per_client,
            WorkloadShape::Burst {
                period,
                burst_len,
                factor,
            } => {
                let elapsed = at.saturating_since(self.start).as_micros();
                if period.as_micros() > 0 && elapsed % period.as_micros() < burst_len.as_micros() {
                    self.tps_per_client * factor as u64
                } else {
                    self.tps_per_client
                }
            }
            WorkloadShape::Ramp { end_tps_per_client } => {
                let window = self.end.saturating_since(self.start).as_micros().max(1);
                let elapsed = at.saturating_since(self.start).as_micros().min(window);
                let from = self.tps_per_client as i128;
                let to = end_tps_per_client as i128;
                (from + (to - from) * elapsed as i128 / window as i128).max(1) as u64
            }
        }
    }

    /// Total offered rate in transactions per second.
    pub fn total_tps(&self) -> u64 {
        match &self.traffic {
            None => self.clients as u64 * self.tps_per_client,
            Some(model) => {
                let window = self.end.saturating_since(self.start);
                self.clients as u64 * model.arrival.mean_tps(window)
            }
        }
    }

    /// Expected number of submissions (exact for the constant shape,
    /// the mean for stochastic traffic models).
    pub fn expected_count(&self) -> u64 {
        let window = self.end.saturating_since(self.start);
        window.as_micros() * self.total_tps() / 1_000_000
    }

    /// Generates the deterministic submission schedule of a legacy
    /// (grid) spec.
    ///
    /// Clients interleave their accounts round-robin; within an account,
    /// nonces increase by one per submission, so every chain's nonce
    /// rules are satisfiable in submission order.
    ///
    /// # Panics
    ///
    /// Panics on a zero-client, zero-account or zero-rate spec, if
    /// `end <= start`, or if the spec carries a traffic model (those
    /// need a seed — use [`generate_seeded`](Self::generate_seeded)).
    pub fn generate(&self) -> Vec<Submission> {
        assert!(
            self.traffic.is_none(),
            "traffic-model workloads are seeded; call generate_seeded"
        );
        assert!(
            self.clients > 0 && self.accounts_per_client > 0,
            "empty workload"
        );
        assert!(self.tps_per_client > 0, "zero rate");
        assert!(self.start < self.end, "empty submission window");
        if let WorkloadShape::Burst {
            period, burst_len, ..
        } = self.shape
        {
            assert!(burst_len <= period, "burst longer than its period");
        }
        let mut out = Vec::new();
        for client in 0..self.clients {
            let mut nonces = vec![0u64; self.accounts_per_client as usize];
            let mut at = self.start;
            let mut k = 0u64;
            while at < self.end {
                let local = (k % self.accounts_per_client as u64) as u32;
                let account = AccountId::new(client as u32 * self.accounts_per_client + local);
                let sink = AccountId::new(10_000 + account.as_u32());
                let transaction = Transaction::transfer(account, nonces[local as usize], sink, 1);
                nonces[local as usize] += 1;
                out.push(Submission {
                    at,
                    client,
                    transaction,
                });
                at += SimDuration::from_micros(1_000_000 / self.rate_at(at));
                k += 1;
            }
        }
        out.sort_by_key(|s| (s.at, s.client));
        out
    }

    /// Generates the submission schedule under `seed`.
    ///
    /// A legacy (grid) spec ignores the seed entirely — its schedule is
    /// the same byte-identical stream [`generate`](Self::generate)
    /// produces — so threading the run seed through the harness cannot
    /// perturb any committed artifact. A traffic-model spec derives all
    /// of its randomness from the seed.
    pub fn generate_seeded(&self, seed: u64) -> Vec<Submission> {
        match &self.traffic {
            None => self.generate(),
            Some(model) => model.generate(self.clients, self.start, self.end, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            clients: 3,
            accounts_per_client: 2,
            tps_per_client: 10,
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(3),
            shape: WorkloadShape::Constant,
            traffic: None,
        }
    }

    #[test]
    fn count_matches_rate() {
        let subs = spec().generate();
        assert_eq!(subs.len(), 60, "3 clients × 10 TPS × 2 s");
        assert_eq!(spec().expected_count(), 60);
        assert_eq!(spec().total_tps(), 30);
    }

    #[test]
    fn ids_are_unique_and_nonces_sequential() {
        let subs = spec().generate();
        let ids: HashSet<_> = subs.iter().map(|s| s.transaction.id()).collect();
        assert_eq!(ids.len(), subs.len());
        let mut per_account: HashMap<AccountId, Vec<(SimTime, u64)>> = HashMap::new();
        for s in &subs {
            per_account
                .entry(s.transaction.from())
                .or_default()
                .push((s.at, s.transaction.nonce()));
        }
        assert_eq!(per_account.len(), 6);
        for (account, mut seq) in per_account {
            seq.sort();
            for (i, (_, nonce)) in seq.iter().enumerate() {
                assert_eq!(*nonce, i as u64, "{account} nonce gap");
            }
        }
    }

    #[test]
    fn accounts_do_not_collide_across_clients() {
        let subs = spec().generate();
        let by_client: HashMap<usize, HashSet<AccountId>> =
            subs.iter().fold(HashMap::new(), |mut m, s| {
                m.entry(s.client).or_default().insert(s.transaction.from());
                m
            });
        for (a, set_a) in &by_client {
            for (b, set_b) in &by_client {
                if a != b {
                    assert!(set_a.is_disjoint(set_b));
                }
            }
        }
    }

    #[test]
    fn schedule_is_sorted_and_in_window() {
        let subs = spec().generate();
        assert!(subs.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(subs
            .iter()
            .all(|s| s.at >= SimTime::from_secs(1) && s.at < SimTime::from_secs(3)));
    }

    #[test]
    fn paper_standard_shape() {
        let w = WorkloadSpec::paper_standard(SimTime::from_secs(400));
        assert_eq!(w.total_tps(), 200);
        assert_eq!(w.clients, 5);
        assert!(w.traffic.is_none(), "the paper's workload is the grid");
    }

    #[test]
    #[should_panic(expected = "empty submission window")]
    fn inverted_window_rejected() {
        let mut w = spec();
        w.end = w.start;
        let _ = w.generate();
    }

    #[test]
    fn burst_shape_multiplies_rate_periodically() {
        let mut w = spec();
        w.end = SimTime::from_secs(11);
        w.shape = WorkloadShape::Burst {
            period: SimDuration::from_secs(5),
            burst_len: SimDuration::from_secs(1),
            factor: 4,
        };
        assert_eq!(
            w.rate_at(SimTime::from_millis(1_500)),
            40,
            "inside first burst"
        );
        assert_eq!(w.rate_at(SimTime::from_millis(3_000)), 10, "between bursts");
        assert_eq!(w.rate_at(SimTime::from_millis(6_500)), 40, "second burst");
        let subs = w.generate();
        // 10 s window: 2 bursty seconds at 40 + 8 quiet at 10 per client.
        let expected = 3 * (2 * 40 + 8 * 10);
        let got = subs.len() as i64;
        assert!(
            (got - expected as i64).abs() <= 9,
            "expected ≈{expected}, got {got}"
        );
    }

    #[test]
    fn ramp_shape_increases_rate_linearly() {
        let mut w = spec();
        w.end = SimTime::from_secs(11);
        w.shape = WorkloadShape::Ramp {
            end_tps_per_client: 30,
        };
        assert_eq!(w.rate_at(SimTime::from_secs(1)), 10);
        assert_eq!(w.rate_at(SimTime::from_secs(11)), 30);
        let mid = w.rate_at(SimTime::from_secs(6));
        assert!((19..=21).contains(&mid), "midpoint rate {mid}");
        let subs = w.generate();
        // Average rate 20 TPS per client over 10 s.
        let got = subs.len() as i64;
        assert!((got - 600).abs() <= 15, "expected ≈600, got {got}");
        // Nonces stay sequential per account regardless of shape.
        let mut per_account: std::collections::HashMap<AccountId, u64> =
            std::collections::HashMap::new();
        for s in &subs {
            let next = per_account.entry(s.transaction.from()).or_insert(0);
            assert_eq!(s.transaction.nonce(), *next);
            *next += 1;
        }
    }

    #[test]
    #[should_panic(expected = "burst longer")]
    fn oversized_burst_rejected() {
        let mut w = spec();
        w.shape = WorkloadShape::Burst {
            period: SimDuration::from_secs(1),
            burst_len: SimDuration::from_secs(2),
            factor: 2,
        };
        let _ = w.generate();
    }

    #[test]
    fn seeded_generation_of_legacy_spec_ignores_the_seed() {
        let w = spec();
        assert_eq!(w.generate_seeded(1), w.generate());
        assert_eq!(w.generate_seeded(0xDEAD_BEEF), w.generate());
    }

    #[test]
    fn production_spec_routes_through_the_traffic_model() {
        let w = WorkloadSpec::production(SimTime::from_secs(6), TrafficModel::production(900, 1));
        let subs = w.generate_seeded(42);
        assert_eq!(subs, w.generate_seeded(42));
        assert_ne!(subs, w.generate_seeded(43));
        let expected = w.expected_count() as i64;
        let got = subs.len() as i64;
        assert!(
            (got - expected).abs() < expected / 2,
            "expected ≈{expected}, got {got}"
        );
    }

    #[test]
    #[should_panic(expected = "call generate_seeded")]
    fn unseeded_generation_of_production_spec_rejected() {
        let w = WorkloadSpec::production(SimTime::from_secs(6), TrafficModel::production(900, 1));
        let _ = w.generate();
    }
}
