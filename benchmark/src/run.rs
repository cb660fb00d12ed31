//! Runs one workload for the asked number of seconds and turns its
//! passes into the metrics `BENCHMARK.json` declares.
//!
//! An untraced run repeats the set-up three times (reporting the median
//! as `setup_s`), then repeats timed passes until their wall times add up
//! to `--seconds` (to the nearest whole pass), and reports medians over
//! the passes. A traced run makes a fixed number of passes traced and as
//! many untraced around them, then the micro-drivers, and reports the
//! per-layer metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use serde_json::{json, Value};
use stabl::Chain;
use stabl_types::Hash32;

use crate::host::{self, HostSample};
use crate::metrics::{
    cell_metric, highest_supported_percentile, median, per_layer, Measured, Values, END_TO_END,
};
use crate::micro;
use crate::trace::{self_seconds, SpanId, Tracer};
use crate::workloads::{serialise, set_up, Kind, Pass, Prepared};

/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// What to run.
pub struct RunArgs<'a> {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch and trace files go here (`benchmark/out`).
    pub out_dir: &'a Path,
}

/// Operations attempted and failed, and the first outputs every later
/// pass must reproduce byte for byte.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// One line per failed check.
    pub notes: Vec<String>,
    /// Lines worth printing that are not failures.
    pub info: Vec<String>,
    reports: Option<String>,
    digest: Option<Hash32>,
}

impl Tally {
    /// Counts one pass of `ops` operations. A pass that panicked, or
    /// whose outputs differ from the first pass's, fails all of them;
    /// otherwise each broken invariant fails one.
    pub fn record(&mut self, ops: usize, pass: Result<&Pass, String>) {
        self.attempted += ops;
        let pass = match pass {
            Ok(pass) => pass,
            Err(panic) => {
                self.failed += ops;
                self.notes.push(format!("pass panicked: {panic}"));
                return;
            }
        };
        let reports = self.reports.get_or_insert_with(|| pass.reports.clone());
        let mut differs = *reports != pass.reports;
        if let Some(digest) = pass.digest {
            differs |= *self.digest.get_or_insert(digest) != digest;
        }
        if differs {
            self.failed += ops;
            self.notes
                .push("outputs differ from the first pass's".to_owned());
            return;
        }
        self.failed += pass.violations.len().min(ops);
        self.notes.extend(pass.violations.iter().cloned());
        // Every pass shows the same; print it once.
        for line in &pass.info {
            if !self.info.contains(line) {
                self.info.push(line.clone());
            }
        }
    }

    pub fn digest(&self) -> Option<Hash32> {
        self.digest
    }
}

/// Runs `work`, turning a panic into its message instead of unwinding
/// through the benchmark.
pub fn attempt<R>(work: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(work)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    })
}

/// Everything one run of one workload measured.
pub struct Outcome {
    pub kind: Kind,
    pub seed: u64,
    pub trace: bool,
    pub tally: Tally,
    /// The declared metrics of this mode, by name.
    pub values: Values,
    pub host_start: HostSample,
    pub host_end: HostSample,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    fn units(&self) -> Vec<(String, &'static str)> {
        if self.trace {
            per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name.to_owned(), m.unit))
                .collect()
        }
    }

    /// Every metric by name with its unit and sample count, the digest
    /// and the host readings, one per line.
    pub fn print(&self) {
        println!(
            "workload {} seed {} trace {}",
            self.kind.name(),
            self.seed,
            u8::from(self.trace)
        );
        println!("host.start {}", self.host_start);
        for (name, unit) in self.units() {
            let m = self.values[&name];
            println!("metric {name} {} {unit} n={}", m.value, m.samples);
        }
        match self.tally.digest() {
            Some(digest) => println!("sim_digest {digest}"),
            None => println!("sim_digest none"),
        }
        for line in &self.tally.info {
            println!("{line}");
        }
        let mut notes: Vec<(&String, usize)> = Vec::new();
        for note in &self.tally.notes {
            match notes.iter_mut().find(|(seen, _)| *seen == note) {
                Some((_, count)) => *count += 1,
                None => notes.push((note, 1)),
            }
        }
        for (note, count) in notes {
            println!("failure x{count} {note}");
        }
        println!("host.end {}", self.host_end);
    }

    /// `{name: {value, unit}}` for every declared metric of this mode.
    fn metrics_json(&self) -> Value {
        Value::Map(
            self.units()
                .into_iter()
                .map(|(name, unit)| {
                    let value = json!({"value": self.values[&name].value, "unit": unit});
                    (name, value)
                })
                .collect(),
        )
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        serialise(&json!({
            "correct": self.correct(),
            "attempted": self.tally.attempted as u64,
            "failed": self.tally.failed as u64,
            "metrics": self.metrics_json(),
        }))
    }

    /// The richer record `--out FILE` appends, which `compare` reads.
    pub fn record(&self) -> String {
        serialise(&json!({
            "workload": self.kind.name(),
            "seed": self.seed,
            "trace": self.trace,
            "correct": self.correct(),
            "attempted": self.tally.attempted as u64,
            "failed": self.tally.failed as u64,
            "sim_digest": self.tally.digest().map(|d| d.to_string()),
            "host_start": self.host_start.to_json(),
            "host_end": self.host_end.to_json(),
            "metrics": self.metrics_json(),
        }))
    }
}

/// One timed pass, counted in `tally`; `None` if it panicked.
fn timed_pass(
    prepared: &Prepared,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    with_digest: bool,
    tally: &mut Tally,
) -> Option<Pass> {
    let pass = attempt(|| prepared.pass(tracer, parent, with_digest));
    tally.record(prepared.ops_per_pass(), pass.as_ref().map_err(Clone::clone));
    pass.ok()
}

/// Repeats the set-up and returns the last one with the median seconds.
fn repeated_set_up(args: &RunArgs, tracer: &mut Tracer) -> (Prepared, Measured) {
    let mut samples = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up goes first: its cache directory with it.
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(set_up(args.kind, args.seed, args.out_dir, tracer));
        samples.push(started.elapsed().as_secs_f64());
    }
    let setup_s = Measured {
        value: median(&samples),
        samples: samples.len(),
    };
    (prepared.expect("SETUP_REPEATS is at least one"), setup_s)
}

pub fn run(args: &RunArgs) -> Outcome {
    std::fs::create_dir_all(args.out_dir).expect("create the benchmark's output directory");
    let host_start = HostSample::take();
    let mut tally = Tally::default();
    let values = if args.trace {
        traced(args, &mut tally)
    } else {
        untraced(args, &mut tally)
    };
    Outcome {
        kind: args.kind,
        seed: args.seed,
        trace: args.trace,
        tally,
        values,
        host_start,
        host_end: HostSample::take(),
    }
}

fn untraced(args: &RunArgs, tally: &mut Tally) -> Values {
    let mut tracer = Tracer::new(false);
    let (prepared, setup_s) = repeated_set_up(args, &mut tracer);
    let mut walls = Vec::new();
    let mut measured = 0.0;
    // Another pass starts only while at least half of it fits, so a run
    // measures for `--seconds` give or take half a pass.
    while measured + 0.5 * median(&walls) < args.seconds {
        // fig3_warm pays for the digest on its first replay only, and
        // on one more after the clock has stopped.
        let with_digest = args.kind != Kind::Fig3Warm || walls.is_empty();
        match timed_pass(&prepared, &mut tracer, None, with_digest, tally) {
            Some(pass) => {
                measured += pass.wall_s;
                walls.push(pass.wall_s);
            }
            // A panicking pass would never fill the clock.
            None => break,
        }
    }
    if args.kind == Kind::Fig3Warm {
        timed_pass(&prepared, &mut tracer, None, true, tally);
    }
    let wall_s = median(&walls);
    let passes = walls.len();
    let per_wall = |amount: f64| if wall_s > 0.0 { amount / wall_s } else { 0.0 };
    let mut values = Values::new();
    let mut put = |name: &str, value: f64, samples: usize| {
        values.insert(name.to_owned(), Measured { value, samples });
    };
    put("wall_s", wall_s, passes);
    put(
        "sim_s_per_wall_s",
        per_wall(prepared.sim_seconds_per_pass()),
        passes,
    );
    put(
        "runs_per_wall_s",
        per_wall(prepared.runs_per_pass() as f64),
        passes,
    );
    put("setup_s", setup_s.value, setup_s.samples);
    values
}

fn traced(args: &RunArgs, tally: &mut Tally) -> Values {
    let mut tracer = Tracer::new(true);
    let (prepared, _) = repeated_set_up(args, &mut tracer);
    // Half the untraced passes run before the traced ones and half after,
    // so a drift of the host over the run cancels out of the overhead.
    let passes = args.kind.traced_passes();
    let mut off = Tracer::new(false);
    let mut untraced_walls = Vec::new();
    let mut traced_passes = Vec::new();
    let mut untraced = |count: usize, walls: &mut Vec<f64>, tally: &mut Tally| {
        for _ in 0..count {
            let with_digest = walls.is_empty();
            walls.extend(
                timed_pass(&prepared, &mut off, None, with_digest, tally).map(|p| p.wall_s),
            );
        }
    };
    untraced(passes / 2, &mut untraced_walls, tally);
    let root = tracer.begin(&format!("workload {}", args.kind.name()), None);
    for i in 0..passes {
        traced_passes.extend(timed_pass(&prepared, &mut tracer, root, i == 0, tally));
    }
    tracer.end(root);
    untraced(passes - passes / 2, &mut untraced_walls, tally);
    drop(prepared);
    // Read before the micro-drivers allocate anything of their own.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    let micro = micro::run_all(args.seed, args.out_dir, &mut tracer);

    let trace_path = args
        .out_dir
        .join(format!("trace_{}.json", args.kind.name()));
    if let Err(error) = std::fs::write(&trace_path, serialise(&tracer.to_json())) {
        tally
            .notes
            .push(format!("cannot write {}: {error}", trace_path.display()));
    }

    let mut values: Values = per_layer()
        .into_iter()
        .map(|m| {
            (
                m.name,
                Measured {
                    value: 0.0,
                    samples: 0,
                },
            )
        })
        .collect();
    values.extend(micro);
    let Some(pass) = traced_passes.last() else {
        return values;
    };
    put_pass_layers(&mut values, args.kind, pass);
    let mut put =
        |name: &str, value: f64, samples: usize| put_finite(&mut values, name, value, samples);

    let traced_walls: Vec<f64> = traced_passes.iter().map(|p| p.wall_s).collect();
    let base = median(&untraced_walls);
    if base > 0.0 {
        put(
            "trace_overhead_share",
            (median(&traced_walls) - base) / base,
            traced_walls.len(),
        );
    }
    let all_walls: Vec<f64> = untraced_walls
        .iter()
        .chain(&traced_walls)
        .copied()
        .collect();
    let (percentile, hi) = highest_supported_percentile(&all_walls)
        .unwrap_or_else(|| (100.0, all_walls.iter().copied().fold(0.0, f64::max)));
    tally.info.push(format!(
        "wall_hi_s is p{percentile} of {} passes",
        all_walls.len()
    ));
    put("wall_hi_s", hi, all_walls.len());
    put("wall_samples", all_walls.len() as f64, all_walls.len());
    put("host.peak_rss_mb", peak_rss_mb, 1);

    let report_s = self_seconds(tracer.spans(), "report") / passes as f64;
    let cell_s = pass.cell_seconds();
    tally.info.push(format!(
        "budget cells {cell_s:.4} s + report {report_s:.4} s + residual {:.4} s = wall {:.4} s",
        pass.wall_s - cell_s - report_s,
        pass.wall_s
    ));
    values
}

/// Stores a metric, reading a value that is not a number as 0 so the
/// result line stays valid JSON.
fn put_finite(values: &mut Values, name: &str, value: f64, samples: usize) {
    let value = if value.is_finite() { value } else { 0.0 };
    values.insert(name.to_owned(), Measured { value, samples });
}

/// The layer counts and times one traced pass gives; `values` already
/// holds the micro-drivers' results.
fn put_pass_layers(values: &mut Values, kind: Kind, pass: &Pass) {
    let kernel_ns = values["sim.kernel_ns_per_event"].value;
    let mut put = |name: &str, value: f64, samples: usize| put_finite(values, name, value, samples);
    let cell_s = pass.cell_seconds();
    let events = pass.counters.events_processed as f64;
    let c = &pass.counters;
    put("sim.events_processed", events, 1);
    put("sim.messages_sent", c.messages_sent as f64, 1);
    put("sim.messages_delivered", c.messages_delivered as f64, 1);
    put("sim.messages_dropped", c.messages_dropped as f64, 1);
    put("sim.timers_fired", c.timers_fired as f64, 1);
    put("sim.timers_stale", c.timers_stale as f64, 1);
    put(
        "sim.timer_live_share",
        c.timers_fired as f64 / (c.timers_fired + c.timers_stale).max(1) as f64,
        1,
    );
    if cell_s > 0.0 {
        put("sim.events_per_wall_s", events / cell_s, pass.cells.len());
        put(
            "sim.kernel_floor_share",
            events * kernel_ns / 1e9 / cell_s,
            pass.cells.len(),
        );
    }
    put("bench.overhead_share", 1.0 - cell_s / pass.wall_s, 1);
    put("bench.cache_hits", pass.cache_hits as f64, 1);
    put("bench.executed", pass.executed as f64, 1);
    put("bench.pool_busy_share", pass.pool.busy_share, 1);
    put("bench.jobs_speedup", pass.pool.speedup, 1);
    for cell in &pass.cells {
        let Some(scenario) = cell.scenario else {
            continue;
        };
        put(
            &cell_metric(cell.chain, "cell_wall_s", scenario),
            cell.wall_s,
            1,
        );
        put(
            &cell_metric(cell.chain, "ns_per_event", scenario),
            cell.wall_s * 1e9 / cell.events.max(1) as f64,
            1,
        );
    }
    if kind == Kind::AdversarySearch {
        put("adversary.evals", pass.executed as f64, 1);
        put("adversary.baseline_wall_s", pass.baseline_wall_s, 2);
        for (chain, name) in [
            (Chain::Redbelly, "adversary.eval_wall_s.redbelly"),
            (Chain::Avalanche, "adversary.eval_wall_s.avalanche"),
        ] {
            let evals: Vec<f64> = pass
                .cells
                .iter()
                .filter(|c| c.chain == chain && c.scenario.is_none())
                .map(|c| c.wall_s)
                .collect();
            let mean = evals.iter().sum::<f64>() / evals.len().max(1) as f64;
            put(name, mean, evals.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Counters, PoolUse};

    fn pass(reports: &str, violations: &[&str]) -> Pass {
        Pass {
            wall_s: 1.0,
            digest: Some(Hash32::digest(reports.as_bytes())),
            reports: reports.to_owned(),
            violations: violations.iter().map(|v| (*v).to_owned()).collect(),
            info: Vec::new(),
            counters: Counters::default(),
            cache_hits: 0,
            executed: 0,
            pool: PoolUse::default(),
            cells: Vec::new(),
            baseline_wall_s: 0.0,
        }
    }

    #[test]
    fn a_panicking_job_fails_its_pass_and_the_run_goes_on() {
        let mut tally = Tally::default();
        let good = pass("reports", &[]);
        tally.record(30, Ok(&good));
        // The engine re-raises a worker's panic on the submitting thread.
        let panicked: Result<Pass, String> = attempt(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| panic!("cell exploded"));
            });
            pass("unreachable", &[])
        });
        tally.record(30, panicked.as_ref().map_err(Clone::clone));
        tally.record(30, Ok(&good));
        assert_eq!((tally.attempted, tally.failed), (90, 30));
        assert!(tally.notes[0].contains("panicked"));
    }

    #[test]
    fn a_pass_that_differs_from_the_first_fails_whole() {
        let mut tally = Tally::default();
        tally.record(8, Ok(&pass("first", &[])));
        tally.record(8, Ok(&pass("perturbed", &[])));
        assert_eq!((tally.attempted, tally.failed), (16, 8));
    }

    #[test]
    fn each_broken_invariant_fails_one_operation() {
        let mut tally = Tally::default();
        tally.record(30, Ok(&pass("same", &["Aptos: crash score is not finite"])));
        assert_eq!((tally.attempted, tally.failed), (30, 1));
        assert_eq!(tally.notes.len(), 1);
    }
}
