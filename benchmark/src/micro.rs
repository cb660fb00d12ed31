//! Micro-drivers: one small fixed piece of work per layer, timed from
//! outside through the crates' public functions. They run in every
//! traced run, after the workload's own passes, and give the
//! workload-independent half of the per-layer metrics — what an agenda
//! round trip, a routed message, a cache store or a JSON decode costs on
//! this host at this commit.
//!
//! The kernel drivers reuse the workloads behind `ext_speed` and the
//! criterion suite (`stabl_bench::speed_bench`): there is no second copy.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use stabl::metrics::{Ecdf, Sensitivity};
use stabl::{
    report_from_runs, run_protocol, CaptureLevel, Chain, PaperSetup, RunResult, ScenarioKind,
    WorkloadSpec,
};
use stabl_adversary::{Fitness, FnEvaluator, Objective, SearchConfig, SearchSpace, Strategy};
use stabl_bench::engine::cache_key;
use stabl_bench::speed_bench::{agenda_round_trip, event_times, Chatty, Churny};
use stabl_bench::{Engine, Job};
use stabl_sim::{Ctx, DetRng, NodeId, Protocol, SimTime, Simulation};
use stabl_stats::{percentile_ci, QuantileSketch};
use stabl_types::{AccountId, AccountPool, Hash32, Ledger, Mempool, Transaction, TxId};

use crate::host;
use crate::metrics::{median, Measured, Values};
use crate::trace::Tracer;
use crate::workloads::{serialise, CAMPAIGN_HORIZON_S};

/// Runs `work` `reps` times and returns the median host seconds.
fn time<R>(reps: usize, mut work: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(work());
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Collects the drivers' results, one span per driver.
struct Drivers<'a> {
    tracer: &'a mut Tracer,
    values: Values,
}

impl Drivers<'_> {
    /// Runs one driver under a span named after it; the driver returns
    /// its `(metric, value)` rows and the repetitions behind each.
    fn run(&mut self, name: &str, driver: impl FnOnce() -> (usize, Vec<(String, f64)>)) {
        let span = self.tracer.begin(&format!("micro {name}"), None);
        let (samples, rows) = driver();
        self.tracer.end(span);
        for (metric, value) in rows {
            self.values.insert(metric, Measured { value, samples });
        }
    }
}

/// A protocol with no consensus at all: every node commits a request the
/// instant it arrives. Run through `run_protocol` under the paper's
/// workload it leaves only the harness — client scheduling, commit
/// draining, stage bookkeeping — to take time.
struct CommitOnRequest;

impl Protocol for CommitOnRequest {
    type Msg = ();
    type Request = Transaction;
    type Commit = TxId;
    type Timer = ();
    type Config = ();
    fn new(_: NodeId, _: usize, _: &(), _: &mut Ctx<'_, Self>) -> Self {
        CommitOnRequest
    }
    fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, Self>) {}
    fn on_timer(&mut self, _: (), _: &mut Ctx<'_, Self>) {}
    fn on_request(&mut self, request: Transaction, ctx: &mut Ctx<'_, Self>) {
        ctx.commit(request.id());
    }
    fn on_restart(&mut self, _: &mut Ctx<'_, Self>) {}
}

/// Transfers with valid nonces, round-robin over `accounts` senders.
fn transfers(count: u32, accounts: u32) -> Vec<Transaction> {
    (0..count)
        .map(|i| {
            let from = i % accounts;
            Transaction::transfer(
                AccountId::new(from),
                u64::from(i / accounts),
                AccountId::new((from + 1) % accounts),
                1,
            )
        })
        .collect()
}

/// Every workload-independent layer metric. Scratch files go under
/// `out_dir` and are removed before returning.
pub fn run_all(seed: u64, out_dir: &Path, tracer: &mut Tracer) -> Values {
    let mut drivers = Drivers {
        tracer,
        values: Values::new(),
    };
    let row = |name: &str, value: f64| (name.to_owned(), value);

    drivers.run("host.calibration", || {
        (1, vec![row("host.calibration_ms", host::calibration_ms())])
    });

    // sim: the agenda at the three horizon distributions of ext_speed.
    drivers.run("sim.agenda", || {
        let count = 10_000usize;
        let near = event_times(count, 64_000, 7);
        let far = event_times(count, 10_000_000, 7);
        let burst: Vec<u64> = event_times(count, 32, 7)
            .into_iter()
            .map(|t| t * 1_000)
            .collect();
        let per_event = |times: &[u64]| time(15, || agenda_round_trip(times)) * 1e9 / count as f64;
        (
            15,
            vec![
                row("sim.agenda_ns_per_event.near", per_event(&near)),
                row("sim.agenda_ns_per_event.far", per_event(&far)),
                row("sim.agenda_ns_per_event.burst", per_event(&burst)),
            ],
        )
    });

    // sim: the whole kernel loop under no-op handlers.
    drivers.run("sim.kernel", || {
        let mut events = 0u64;
        let wall = time(9, || {
            let mut sim = Simulation::<Chatty>::new(10, seed, ());
            sim.run_until(SimTime::from_secs(10));
            events = sim.stats().events_processed;
        });
        (
            9,
            vec![row("sim.kernel_ns_per_event", wall * 1e9 / events as f64)],
        )
    });

    drivers.run("sim.timer", || {
        let mut timers = 0u64;
        let wall = time(9, || {
            let mut sim = Simulation::<Churny>::new(10, seed, ());
            sim.run_until(SimTime::from_secs(1));
            let stats = sim.stats();
            timers = stats.timers_fired + stats.timers_stale;
        });
        (
            9,
            vec![row("sim.timer_ns_per_timer", wall * 1e9 / timers as f64)],
        )
    });

    // sim: routing + message slab as the broadcast fanout grows.
    drivers.run("sim.net", || {
        let rows = [(10usize, 400u64), (40, 200), (100, 100)]
            .into_iter()
            .map(|(n, millis)| {
                let mut delivered = 0u64;
                let wall = time(7, || {
                    let mut sim = Simulation::<Chatty>::new(n, seed, ());
                    sim.run_until(SimTime::from_millis(millis));
                    delivered = sim.stats().messages_delivered;
                });
                (
                    format!("sim.net_ns_per_msg.n{n}"),
                    wall * 1e9 / delivered as f64,
                )
            })
            .collect();
        (7, rows)
    });

    // sim: what each capture level adds to one faulted cell.
    drivers.run("sim.recorder", || {
        let config = PaperSetup::quick(30, seed).run_config(Chain::Aptos, ScenarioKind::Crash);
        let rounds = 3;
        let mut walls = [const { Vec::new() }; 4];
        for _ in 0..rounds {
            for (level, walls) in CaptureLevel::ALL.into_iter().zip(&mut walls) {
                walls.push(time(1, || Chain::Aptos.run_traced(&config, level)));
            }
        }
        let off = median(&walls[0]);
        let share = |level: usize| (median(&walls[level]) - off) / off;
        (
            rounds,
            vec![
                row("sim.recorder_overhead_share.counters", share(1)),
                row("sim.recorder_overhead_share.events", share(2)),
                row("sim.recorder_overhead_share.full", share(3)),
            ],
        )
    });

    drivers.run("types", || {
        let buffer = vec![0xA5u8; 4 << 20];
        let sha = time(5, || Hash32::digest(&buffer));
        let count = 20_000u32;
        let txs = transfers(count, 1_000);
        let per_tx = |wall: f64| wall * 1e9 / f64::from(count);
        let mempool = time(5, || {
            let mut pool = Mempool::new(txs.len());
            for tx in &txs {
                pool.insert(*tx);
            }
            pool.take(txs.len()).len()
        });
        let ledger = time(5, || {
            let mut ledger = Ledger::with_uniform_balance(1_000, 1_000_000);
            let applied = ledger.apply_batch(&txs).len();
            assert_eq!(applied, txs.len(), "every generated transfer is valid");
        });
        let account_pool = time(5, || {
            let mut pool = AccountPool::new(txs.len());
            for tx in &txs {
                pool.insert(*tx);
            }
            let ready = pool.take_ready(txs.len());
            for tx in &ready {
                pool.mark_committed(tx.from(), tx.nonce() + 1);
            }
            ready.len()
        });
        (
            5,
            vec![
                row("types.sha256_mb_per_s", buffer.len() as f64 / 1e6 / sha),
                row("types.mempool_ns_per_tx", per_tx(mempool)),
                row("types.ledger_apply_ns_per_tx", per_tx(ledger)),
                row("types.account_pool_ns_per_tx", per_tx(account_pool)),
            ],
        )
    });

    // workload: the paper's 200 TPS stream up to 380 s.
    drivers.run("workload", || {
        let spec = WorkloadSpec::paper_standard(SimTime::from_secs(380));
        let mut submissions = 0usize;
        let wall = time(5, || submissions = spec.generate_seeded(seed).len());
        (
            5,
            vec![
                row("workload.generate_ms", wall * 1e3),
                row("workload.submissions", submissions as f64),
            ],
        )
    });

    drivers.run("core.harness_floor", || {
        let config = PaperSetup {
            seed,
            ..PaperSetup::default()
        }
        .run_config(Chain::Aptos, ScenarioKind::Baseline);
        let wall = time(3, || {
            let result = run_protocol::<CommitOnRequest>(&config, ());
            assert_eq!(
                result.unresolved, 0,
                "commit-on-request resolves everything"
            );
        });
        (3, vec![row("core.harness_floor_s", wall)])
    });

    // One baseline/crash pair, shared by the report and cache drivers.
    let setup = PaperSetup::quick(CAMPAIGN_HORIZON_S, seed);
    let baseline = setup.run(Chain::Aptos, ScenarioKind::Baseline);
    let crashed = setup.run(Chain::Aptos, ScenarioKind::Crash);

    drivers.run("core.metrics", || {
        let mut rng = DetRng::new(seed);
        let mut samples =
            |n: usize| -> Vec<f64> { (0..n).map(|_| rng.next_f64() * 10.0 + 0.2).collect() };
        let (a, b) = (samples(80_000), samples(80_000));
        let build = time(5, || Ecdf::new(a.iter().copied()).expect("finite samples"));
        let ecdf_a = Ecdf::new(a.iter().copied()).expect("finite samples");
        let ecdf_b = Ecdf::new(b.iter().copied()).expect("finite samples");
        let sensitivity = time(5, || Sensitivity::from_ecdfs(&ecdf_a, &ecdf_b));
        let report = time(5, || {
            report_from_runs(Chain::Aptos, ScenarioKind::Crash, &baseline, &crashed)
        });
        (
            5,
            vec![
                row("core.ecdf_build_ms", build * 1e3),
                row("core.sensitivity_ms", sensitivity * 1e3),
                row("core.report_ms", report * 1e3),
            ],
        )
    });

    drivers.run("stats", || {
        let count = 100_000usize;
        let sketch = time(5, || {
            let mut sketch = QuantileSketch::new();
            for latency in baseline.latencies.iter().cycle().take(count) {
                sketch.record_secs(*latency);
            }
            sketch.count()
        });
        let replicates = [1.2, 1.4, 1.1, 1.3, 1.25, 1.35, 1.15, 1.28];
        let bootstrap = time(5, || percentile_ci(&replicates, &mut DetRng::new(seed)));
        (
            5,
            vec![
                row("stats.sketch_ns_per_insert", sketch * 1e9 / count as f64),
                row("stats.bootstrap_ci_ms", bootstrap * 1e3),
            ],
        )
    });

    drivers.run("bench.engine", || {
        let new = time(5, || Engine::new(1, None));
        let config = setup.run_config(Chain::Aptos, ScenarioKind::Crash);
        let material = Job::config("", Chain::Aptos, config).material().to_owned();
        let reps = 1_000;
        let key = time(5, || {
            (0..reps)
                .map(|_| cache_key(&material, "v").len())
                .sum::<usize>()
        }) / reps as f64;
        (
            5,
            vec![
                row("bench.engine_new_ms", new * 1e3),
                row("bench.cache_key_us", key * 1e6),
            ],
        )
    });

    drivers.run("bench.cache", || cache_probe(&baseline, out_dir));

    drivers.run("adversary.search_overhead", || {
        let space = SearchSpace::paper(&setup, Chain::Redbelly);
        let budget = 2_000;
        let config = SearchConfig {
            seed,
            budget,
            objective: Objective::Sensitivity,
        };
        let constant = Fitness {
            lost_liveness: false,
            score: Some(1.0),
            improved: false,
            unresolved_frac: 0.0,
        };
        let wall = time(3, || {
            Strategy::Annealing.search(&space, &mut FnEvaluator::new(|_| constant), &config)
        });
        (
            3,
            vec![row(
                "adversary.search_overhead_us_per_eval",
                wall * 1e6 / budget as f64,
            )],
        )
    });

    drivers.values
}

/// Cache stores and loads through the engine itself: jobs that hand back
/// a clone of `sample` cost nothing to "simulate", so a cold batch times
/// encode + write and a warm batch read + decode.
fn cache_probe(sample: &RunResult, out_dir: &Path) -> (usize, Vec<(String, f64)>) {
    let cells = 8usize;
    let dir = out_dir.join(format!("probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::new(1, Some(dir.clone()));
    let jobs = || -> Vec<Job> {
        (0..cells)
            .map(|i| {
                let sample = sample.clone();
                Job::new(format!("probe/{i}"), format!("probe-{i}"), move || {
                    sample.clone()
                })
            })
            .collect()
    };
    let clone = time(cells, || sample.clone());
    let store = time(1, || engine.run(jobs())) / cells as f64 - clone;
    let load = time(1, || engine.run(jobs())) / cells as f64;
    let bytes: u64 = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);

    let json = serialise(sample);
    let megabytes = json.len() as f64 / 1e6;
    let encode = time(cells, || serde_json::to_string(sample));
    let decode = time(cells, || {
        serde_json::from_str::<RunResult>(&json).expect("round trip of a serialised result")
    });
    let row = |name: &str, value: f64| (name.to_owned(), value);
    (
        cells,
        vec![
            row("bench.cache_store_ms_per_cell", store * 1e3),
            row("bench.cache_load_ms_per_cell", load * 1e3),
            row("bench.cache_bytes_per_cell", bytes as f64 / cells as f64),
            row("bench.serde_encode_mb_per_s", megabytes / encode),
            row("bench.serde_decode_mb_per_s", megabytes / decode),
        ],
    )
}
