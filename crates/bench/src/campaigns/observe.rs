//! Campaigns that record a run's structured event stream and export it:
//! Perfetto traces (`ext_trace`) and per-run diagnoses (`ext_diagnose`).
//!
//! Every cell is also re-run untraced and byte-compared — observation
//! must never steer. All artifacts are pure functions of the
//! deterministic run artifacts, so two invocations produce identical
//! bytes (CI asserts this).

use std::fs;

use stabl::diagnose::{diagnose_run, diagnosis_json, timeline_jsonl, DEFAULT_CADENCE};
use stabl::metrics::LatencyHistogram;
use stabl::{CaptureLevel, Chain, PaperSetup, RunConfig, ScenarioKind, TracedRun};
use stabl_adversary::CorpusEntry;

use super::contention::contention_json;
use crate::engine::scenario_cores;
use crate::BenchOpts;

/// Runs `config` at [`CaptureLevel::Full`] and asserts the result is
/// byte-identical to the untraced run's.
fn traced(chain: Chain, label: &str, config: &RunConfig, cores: f64) -> TracedRun {
    let traced = chain.run_traced_with_cpu(config, cores, CaptureLevel::Full);
    let untraced = chain.run_with_cpu(config, cores);
    assert_eq!(
        serde_json::to_string(&traced.result).expect("serialise traced result"),
        serde_json::to_string(&untraced).expect("serialise untraced result"),
        "{label}: Full-capture run diverged from the untraced run"
    );
    traced
}

/// Exports the structured event stream of one crash-scenario run per
/// chain as Perfetto-loadable Chrome-trace JSON and a greppable
/// JSON-Lines event dump, plus the per-transaction latency
/// decomposition (queueing / consensus / delivery).
///
/// Artefacts per chain:
///
/// * `trace_<chain>.json` — Chrome trace-event JSON; drop it onto
///   <https://ui.perfetto.dev> for a per-validator timeline of
///   consensus-phase spans, fault windows, crashes and commits;
/// * `events_<chain>.jsonl` — every recorded event, one JSON object per
///   line;
/// * `stats_<chain>.json` — the run's aggregate kernel counters
///   (traffic plus the contention-model counts);
/// * `trace_summary.json` — event counters and stage-latency
///   decompositions for all chains (deterministic: no wall-clock data).
pub fn trace(opts: &BenchOpts) {
    let kind = ScenarioKind::Crash;
    let mut summary = Vec::new();
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>8}  stage decomposition (mean)",
        "chain", "events", "dropped", "commits", "spans"
    );
    for chain in Chain::ALL {
        let config = opts.setup.run_config(chain, kind);
        let traced = traced(chain, chain.name(), &config, scenario_cores(kind));

        let lower = chain.name().to_lowercase();
        opts.write_text(
            &format!("trace_{lower}.json"),
            &stabl::observe::chrome_trace_json(&traced.trace, chain.name()),
        );
        opts.write_text(
            &format!("events_{lower}.jsonl"),
            &stabl::observe::events_jsonl(&traced.trace),
        );
        opts.write_text(
            &format!("stats_{lower}.json"),
            &stabl::observe::stats_json(&traced.result.stats),
        );

        let counters = &traced.trace.counters;
        let stages = &traced.result.stages;
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>8}  {}",
            chain.name(),
            traced.trace.events.len(),
            traced.trace.dropped_events,
            counters.commits,
            counters.phase_marks,
            stages.summary(),
        );
        let stage = |h: &LatencyHistogram| {
            serde_json::json!({
                "samples": h.count(),
                "mean_s": h.mean_secs(),
                "p50_upper_s": h.quantile_upper_micros(0.5) as f64 / 1e6,
                "p99_upper_s": h.quantile_upper_micros(0.99) as f64 / 1e6,
                "max_s": h.max_micros as f64 / 1e6,
            })
        };
        summary.push(serde_json::json!({
            "chain": chain.name(),
            "scenario": kind.name(),
            "capture": traced.trace.capture.name(),
            "events_recorded": traced.trace.events.len() as u64,
            "events_dropped": traced.trace.dropped_events,
            "trace_lines_dropped": traced.result.stats.dropped_trace_lines,
            "counters": serde_json::to_value(counters),
            "contention": contention_json(&traced.result.stats),
            "queueing": stage(&stages.queueing),
            "consensus": stage(&stages.consensus),
            "delivery": stage(&stages.delivery),
        }));
    }
    opts.write_json("trace_summary.json", &summary);
    println!("\ntraces verified byte-neutral: Full capture and Off produced identical results");
}

/// One diagnosable cell: a label, its config and the CPU-cores factor.
struct Cell {
    label: String,
    file_stem: String,
    config: RunConfig,
    cores: f64,
}

fn paper_cells(opts: &BenchOpts, chain: Chain) -> Vec<Cell> {
    ScenarioKind::ALTERED
        .iter()
        .map(|&kind| Cell {
            label: format!("{}/{}", chain.name(), kind.name()),
            file_stem: format!("{}_{}", chain.name().to_lowercase(), kind.name()),
            config: opts.setup.run_config(chain, kind),
            cores: scenario_cores(kind),
        })
        .collect()
}

/// The worst-case reproducer for `chain` under `<out>/adversary/corpus/`,
/// replayed exactly as the adversary search evaluated it (baseline
/// config of the corpus entry's quick setup, plus the shrunk genome's
/// schedule and spec).
fn corpus_cell(opts: &BenchOpts, chain: Chain) -> Option<Cell> {
    let path = opts
        .out_dir
        .join("adversary/corpus")
        .join(format!("{}.json", chain.name().to_lowercase()));
    let text = fs::read_to_string(&path).ok()?;
    let entry: CorpusEntry = match serde_json::from_str(&text) {
        Ok(entry) => entry,
        Err(err) => {
            eprintln!("skipping {}: {err}", path.display());
            return None;
        }
    };
    let setup = PaperSetup::quick(entry.horizon_secs, entry.seed);
    let mut config = setup.run_config(chain, ScenarioKind::Baseline);
    config.faults = entry.genome.schedule();
    config.byzantine = entry.genome.byzantine_spec();
    Some(Cell {
        label: format!("{}/adversary", chain.name()),
        file_stem: format!("{}_adversary", chain.name().to_lowercase()),
        config,
        cores: 1.0,
    })
}

/// Explains *why* each chain slows down or loses liveness, per run, from
/// the structured event stream.
///
/// For every chain this diagnoses the paper's four altered scenarios
/// plus (when present) the adversary-search reproducer from
/// `<out>/adversary/corpus/<chain>.json`, producing under
/// `<out>/diagnose/`:
///
/// * `<chain>_<scenario>.json` — the full [`Diagnosis`]: metrics
///   timeline, latency blame table and (for stalled runs) the liveness
///   post-mortem with its verdict;
/// * `<chain>_<scenario>_timeline.jsonl` — the metric frames, one JSON
///   object per line;
/// * `diagnose_summary.json` — one row per run: commit counts, the
///   dominant latency cause and the stall verdict.
///
/// [`Diagnosis`]: stabl::diagnose::Diagnosis
pub fn diagnose(opts: &BenchOpts) {
    let mut summary = Vec::new();
    println!(
        "{:<22} {:>8} {:>8} {:>9}  diagnosis",
        "run", "commits", "events", "liveness"
    );
    for chain in Chain::ALL {
        let mut cells = paper_cells(opts, chain);
        cells.extend(corpus_cell(opts, chain));
        for cell in cells {
            let traced = traced(chain, &cell.label, &cell.config, cell.cores);
            let run = diagnose_run(
                &cell.label,
                &cell.config,
                &traced.result,
                &traced.trace,
                DEFAULT_CADENCE,
            );
            let diagnosis = &run.diagnosis;
            opts.write_text(
                &format!("diagnose/{}.json", cell.file_stem),
                &diagnosis_json(diagnosis),
            );
            opts.write_text(
                &format!("diagnose/{}_timeline.jsonl", cell.file_stem),
                &timeline_jsonl(&run.timeline),
            );

            // The dominant latency cause: most commits attributed, ties
            // broken by the (already sorted) cause label.
            let top_cause = diagnosis.blame.as_ref().and_then(|blame| {
                blame
                    .causes
                    .iter()
                    .max_by(|a, b| a.commits.cmp(&b.commits).then(b.cause.cmp(&a.cause)))
                    .map(|c| c.cause.clone())
            });
            let verdict = diagnosis
                .post_mortem
                .as_ref()
                .map(|post_mortem| post_mortem.verdict.clone());
            println!(
                "{:<22} {:>8} {:>8} {:>9}  {}",
                cell.label,
                diagnosis.committed,
                traced.trace.events.len(),
                if diagnosis.lost_liveness {
                    "LOST"
                } else {
                    "ok"
                },
                verdict.as_deref().or(top_cause.as_deref()).unwrap_or("-"),
            );
            summary.push(serde_json::json!({
                "label": diagnosis.label.clone(),
                "chain": chain.name(),
                "committed": diagnosis.committed,
                "submitted": diagnosis.submitted,
                "lost_liveness": diagnosis.lost_liveness,
                "events_recorded": traced.trace.events.len() as u64,
                "events_dropped": diagnosis.dropped_events,
                "dropped_trace_lines": diagnosis.dropped_trace_lines,
                "top_cause": top_cause,
                "verdict": verdict,
            }));
        }
    }
    opts.write_json("diagnose/diagnose_summary.json", &summary);
    println!("\ndiagnoses verified byte-neutral: Full capture and Off produced identical results");
}
