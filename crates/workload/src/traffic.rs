//! The production traffic model: who sends what, to whom, and when.
//!
//! A [`TrafficModel`] composes the three production ingredients this
//! crate provides — a declared [`AccountPopulation`], a [`ZipfSampler`]
//! over it, and a per-client [`ArrivalProcess`] — into the same
//! `Submission` schedule format the paper's constant-rate generator
//! emits, so the harness, clients and chains run it unchanged.
//!
//! Determinism contract: the schedule is a pure function of
//! `(model, clients, start, end, seed)`. Each client's arrival stream
//! comes from an independent `DetRng::derive` label, the merged stream
//! is ordered by `(time, client)` (a total order — a single client's
//! arrivals never tie), and sender/receiver sampling walks that merged
//! order with one more derived stream. Nonces are assigned in merged
//! order, so every account's nonce sequence is contiguous and
//! time-monotone, satisfying every chain's sequencing rules.

use stabl_sim::{DetRng, SimTime};
use stabl_types::Transaction;

use crate::arrival::ArrivalProcess;
use crate::population::AccountPopulation;
use crate::spec::Submission;
use crate::zipf::ZipfSampler;

/// How receivers are chosen — the contention dial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictProfile {
    /// Receiver drawn independently from the same Zipf distribution as
    /// the sender: hot accounts appear on both sides of transfers, so
    /// their read-write sets collide in Block-STM and nonce pools.
    Skewed,
    /// Receiver is a dedicated sink derived from the sender (paper-like:
    /// every transfer's read-write set is private to its sender).
    Disjoint,
    /// A `permille` fraction of transfers pay one single hot account;
    /// the rest behave like [`ConflictProfile::Skewed`].
    HotSpot {
        /// Fraction of transfers hitting the hot account, in permille.
        permille: u32,
    },
}

/// A complete production workload description.
///
/// # Examples
///
/// ```
/// use stabl_sim::SimTime;
/// use stabl_workload::{ArrivalProcess, ConflictProfile, TrafficModel};
///
/// let model = TrafficModel {
///     accounts: 10_000_000,
///     theta_permille: 900,
///     arrival: ArrivalProcess::Poisson { tps: 40 },
///     conflict: ConflictProfile::Skewed,
/// };
/// let subs = model.generate(5, SimTime::from_secs(1), SimTime::from_secs(3), 42);
/// assert!(!subs.is_empty());
/// assert_eq!(subs, model.generate(5, SimTime::from_secs(1), SimTime::from_secs(3), 42));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficModel {
    /// Declared population size (lazily materialized; 10M is cheap).
    pub accounts: u64,
    /// Zipf skew over the population, in permille (0 = uniform).
    pub theta_permille: u32,
    /// Per-client arrival process.
    pub arrival: ArrivalProcess,
    /// Read-write-set overlap profile.
    pub conflict: ConflictProfile,
}

/// Label salt for per-client arrival streams.
const ARRIVAL_STREAM: u64 = 0x41_52_52_49_56_41_4C_00; // "ARRIVAL"
/// Label for the sender/receiver sampling stream.
const SAMPLE_STREAM: u64 = 0x5A_49_50_46_00_00_00_00; // "ZIPF"

impl TrafficModel {
    /// The ISSUE's reference production model: 10M accounts, Zipf θ,
    /// Poisson (burst factor 1) or burst-train arrivals at the paper's
    /// 40 TPS per client, with skew-colliding receivers.
    pub fn production(theta_permille: u32, burst_factor: u32) -> TrafficModel {
        use stabl_sim::SimDuration;
        let arrival = if burst_factor <= 1 {
            ArrivalProcess::Poisson { tps: 40 }
        } else {
            // Mean rate stays pinned at 40 TPS per client so θ is the
            // only load-shape difference across a campaign row: solve
            // base·(1 + (factor−1)·duty) = 40 with a 1 s burst every 10.
            let base = 40 * 10 / (10 + burst_factor as u64 - 1);
            ArrivalProcess::BurstTrain {
                base_tps: base.max(1),
                period: SimDuration::from_secs(10),
                burst_len: SimDuration::from_secs(1),
                factor: burst_factor,
            }
        };
        TrafficModel {
            accounts: 10_000_000,
            theta_permille,
            arrival,
            conflict: ConflictProfile::Skewed,
        }
    }

    /// Generates the deterministic submission schedule for `clients`
    /// clients over `[start, end)` under `seed`.
    ///
    /// # Panics
    ///
    /// Panics on zero clients or an invalid arrival window/process (see
    /// [`ArrivalProcess::arrivals`]).
    pub fn generate(
        &self,
        clients: usize,
        start: SimTime,
        end: SimTime,
        seed: u64,
    ) -> Vec<Submission> {
        let (submissions, _) = self.generate_with_population(clients, start, end, seed);
        submissions
    }

    /// [`generate`](Self::generate), also returning the materialized
    /// population (used by tests and the memory-bound proptest).
    pub fn generate_with_population(
        &self,
        clients: usize,
        start: SimTime,
        end: SimTime,
        seed: u64,
    ) -> (Vec<Submission>, AccountPopulation) {
        assert!(clients > 0, "empty workload");
        let root = DetRng::new(seed);
        // Per-client independent arrival streams, merged by (at, client).
        let mut schedule: Vec<(SimTime, usize)> = Vec::new();
        for client in 0..clients {
            let mut rng = root.derive(ARRIVAL_STREAM ^ client as u64);
            for at in self.arrival.arrivals(start, end, &mut rng) {
                schedule.push((at, client));
            }
        }
        schedule.sort_unstable();

        let zipf = ZipfSampler::new(self.accounts, self.theta_permille);
        let mut population = AccountPopulation::new(self.accounts, seed);
        let mut rng = root.derive(SAMPLE_STREAM);
        let mut out = Vec::with_capacity(schedule.len());
        for (at, client) in schedule {
            let sender_rank = zipf.sample(&mut rng);
            let (from, nonce) = population.touch_sender(sender_rank);
            let to = match self.conflict {
                ConflictProfile::Disjoint => population.sink_at(sender_rank),
                ConflictProfile::Skewed => {
                    let mut rank = zipf.sample(&mut rng);
                    if rank == sender_rank {
                        // Self-transfers are rejected by the ledger;
                        // shift to the neighbouring rank (still hot).
                        rank = (rank + 1) % self.accounts;
                    }
                    population.touch_receiver(rank)
                }
                ConflictProfile::HotSpot { permille } => {
                    if rng.next_below(1000) < permille as u64 && sender_rank != 0 {
                        population.touch_receiver(0)
                    } else {
                        let mut rank = zipf.sample(&mut rng);
                        if rank == sender_rank {
                            rank = (rank + 1) % self.accounts;
                        }
                        population.touch_receiver(rank)
                    }
                }
            };
            out.push(Submission {
                at,
                client,
                transaction: Transaction::transfer(from, nonce, to, 1),
            });
        }
        (out, population)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabl_types::AccountId;
    use std::collections::HashMap;

    fn model(theta: u32) -> TrafficModel {
        TrafficModel {
            accounts: 1_000_000,
            theta_permille: theta,
            arrival: ArrivalProcess::Poisson { tps: 20 },
            conflict: ConflictProfile::Skewed,
        }
    }

    fn generate(theta: u32, seed: u64) -> Vec<Submission> {
        model(theta).generate(3, SimTime::from_secs(1), SimTime::from_secs(11), seed)
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        assert_eq!(generate(900, 1), generate(900, 1));
        assert_ne!(generate(900, 1), generate(900, 2));
    }

    #[test]
    fn schedule_is_sorted_with_contiguous_nonces() {
        let subs = generate(900, 5);
        assert!(subs
            .windows(2)
            .all(|w| (w[0].at, w[0].client) < (w[1].at, w[1].client)));
        let mut next: HashMap<AccountId, u64> = HashMap::new();
        for s in &subs {
            let n = next.entry(s.transaction.from()).or_insert(0);
            assert_eq!(s.transaction.nonce(), *n, "nonce gap at {}", s.transaction);
            *n += 1;
        }
    }

    #[test]
    fn no_self_transfers() {
        for profile in [
            ConflictProfile::Skewed,
            ConflictProfile::Disjoint,
            ConflictProfile::HotSpot { permille: 300 },
        ] {
            let mut m = model(1100);
            m.accounts = 100; // small population stresses collisions
            m.conflict = profile;
            let subs = m.generate(2, SimTime::from_secs(1), SimTime::from_secs(6), 7);
            assert!(subs
                .iter()
                .all(|s| s.transaction.from() != s.transaction.to()));
        }
    }

    #[test]
    fn skew_concentrates_senders() {
        let hot_share = |theta: u32| {
            let subs = generate(theta, 9);
            let mut counts: HashMap<AccountId, usize> = HashMap::new();
            for s in &subs {
                *counts.entry(s.transaction.from()).or_default() += 1;
            }
            let max = counts.values().copied().max().unwrap_or(0);
            (max * 1000) / subs.len().max(1)
        };
        assert!(hot_share(0) <= 5, "uniform senders should not repeat much");
        assert!(hot_share(1100) >= 100, "θ=1.1 hottest sender share too low");
    }

    #[test]
    fn disjoint_profile_never_reuses_senders_as_receivers() {
        let mut m = model(900);
        m.conflict = ConflictProfile::Disjoint;
        let subs = m.generate(3, SimTime::from_secs(1), SimTime::from_secs(6), 3);
        let senders: std::collections::HashSet<_> =
            subs.iter().map(|s| s.transaction.from()).collect();
        assert!(subs.iter().all(|s| !senders.contains(&s.transaction.to())));
    }

    #[test]
    fn hot_spot_profile_routes_to_one_account() {
        let mut m = model(0);
        m.conflict = ConflictProfile::HotSpot { permille: 500 };
        let (subs, pop) =
            m.generate_with_population(3, SimTime::from_secs(1), SimTime::from_secs(11), 3);
        let hot = pop.account_at(0);
        let hits = subs.iter().filter(|s| s.transaction.to() == hot).count();
        assert!(
            hits * 1000 / subs.len() > 350,
            "hot spot got {hits}/{}",
            subs.len()
        );
    }

    #[test]
    fn population_stays_lazy() {
        let (subs, pop) = model(900).generate_with_population(
            3,
            SimTime::from_secs(1),
            SimTime::from_secs(11),
            13,
        );
        assert!(pop.materialized() <= 2 * subs.len());
        assert_eq!(pop.declared(), 1_000_000);
        assert!(pop.materialized() < 10_000, "active set exploded");
    }

    #[test]
    fn production_pins_mean_rate() {
        use stabl_sim::SimDuration;
        for burst in [1, 4, 16] {
            let m = TrafficModel::production(900, burst);
            let mean = m.arrival.mean_tps(SimDuration::from_secs(100));
            assert!(
                (38..=40).contains(&mean),
                "burst={burst} mean {mean} drifted from 40 TPS"
            );
        }
    }
}
