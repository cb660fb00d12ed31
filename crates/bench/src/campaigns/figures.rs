//! The paper's own figures and tables.

use serde::Serialize;
use stabl::metrics::{downtime_seconds, throughput_drop, Ecdf, RecoveryReport, Sensitivity};
use stabl::report::{RunSummary, ScenarioReport, SensitivityRecord};
use stabl::{Chain, ClientMode, PaperSetup, ScenarioKind};
use stabl_sim::SimTime;

use crate::{
    radar_rows, replication_table, run_campaign, run_replicated_campaign, sensitivity_table,
    throughput_csv, BenchOpts, Group, DEFAULT_REPLICATES,
};

#[derive(Serialize)]
struct EcdfSeries {
    label: String,
    points: Vec<(f64, f64)>,
    area: f64,
}

fn decimate(points: Vec<(f64, f64)>, max_points: usize) -> Vec<(f64, f64)> {
    if points.len() <= max_points {
        return points;
    }
    let stride = points.len().div_ceil(max_points);
    let mut out: Vec<(f64, f64)> = points.iter().step_by(stride).copied().collect();
    if let Some(last) = points.last() {
        if out.last() != Some(last) {
            out.push(*last);
        }
    }
    out
}

/// Fig. 1 — the sensitivity of Aptos to failures, shown as the two
/// latency eCDFs (baseline vs transient failures) whose area difference
/// is the score.
pub fn fig1_aptos_ecdf(opts: &BenchOpts) {
    eprintln!(
        "Fig. 1: Aptos baseline vs transient failures ({})",
        opts.setup.horizon
    );
    let group = Group::scenario(&opts.setup, Chain::Aptos, ScenarioKind::Transient);
    let groups = opts.engine().run_groups(vec![group]);
    let (baseline, altered) = groups[0].as_pair();

    let b = baseline.ecdf().expect("baseline committed transactions");
    let series = |label: &str, e: &Ecdf| EcdfSeries {
        label: label.to_owned(),
        points: decimate(e.steps().collect(), 500),
        area: e.area(),
    };
    let mut out = vec![series("baseline", &b)];
    match altered.ecdf() {
        Ok(a) => {
            let sensitivity = Sensitivity::from_ecdfs(&b, &a);
            println!("Aptos sensitivity to transient failures: {sensitivity}");
            out.push(series("altered (transient failures)", &a));
        }
        Err(_) => println!("Aptos sensitivity to transient failures: ∞ (nothing committed)"),
    }
    for s in &out {
        println!(
            "{:<30} area={:.3}  p50={:.3}s  max={:.3}s  n={}",
            s.label,
            s.area,
            s.points[s.points.len() / 2].0,
            s.points.last().map(|p| p.0).unwrap_or(0.0),
            s.points.len(),
        );
    }
    opts.write_json("fig1_aptos_ecdf.json", &out);
}

#[derive(Serialize)]
struct Fig3Row {
    chain: String,
    scenario: String,
    sensitivity: SensitivityRecord,
    baseline: RunSummary,
    altered: RunSummary,
}

/// Fig. 3 — sensitivity of the five blockchains to (a) `f = t` crashes,
/// (b) `f = t + 1` transient failures, (c) a partition of `f = t + 1`
/// nodes and (d) the secure client. Bars marked "improved" correspond to
/// the paper's striped bars (the altered environment outperformed the
/// baseline); `∞` marks liveness violations.
pub fn fig3_sensitivity(opts: &BenchOpts) {
    eprintln!("Fig. 3: full sensitivity campaign ({})", opts.setup.horizon);
    let (reports, telemetry) = run_campaign(&opts.engine(), &opts.setup);

    let secure = ClientMode::paper_secure(opts.setup.n).replication();
    let secure_title = format!("Fig. 3d — secure client (t+1 = {secure} nodes)");
    for (kind, title) in [
        (ScenarioKind::Crash, "Fig. 3a — f = t crashes"),
        (
            ScenarioKind::Transient,
            "Fig. 3b — f = t+1 transient failures",
        ),
        (
            ScenarioKind::Partition,
            "Fig. 3c — partition of f = t+1 nodes",
        ),
        (ScenarioKind::SecureClient, secure_title.as_str()),
    ] {
        let part_reports: Vec<ScenarioReport> =
            reports.iter().filter(|r| r.kind == kind).cloned().collect();
        println!("\n{}", sensitivity_table(title, &part_reports));
    }

    let rows: Vec<Fig3Row> = reports
        .iter()
        .map(|r| Fig3Row {
            chain: r.chain.name().to_owned(),
            scenario: r.kind.name().to_owned(),
            sensitivity: r.sensitivity.into(),
            baseline: r.baseline,
            altered: r.altered,
        })
        .collect();
    opts.write_json("fig3_sensitivity.json", &rows);
    // Wall-clock data goes to its own artefact: fig3_sensitivity.json
    // stays byte-identical across machines, jobs counts and cache state.
    opts.write_json("fig3_telemetry.json", &telemetry);
}

/// Fig. 3 under replication — the sensitivity campaign fanned out over
/// N seeds with 95 % percentile-bootstrap confidence intervals per
/// (chain, scenario) cell.
///
/// The paper reports each score from a single run; this campaign reports
/// `score ± CI` plus commit-ratio and mean-latency intervals, and
/// counts the replicates whose sensitivity was infinite (liveness
/// loss) instead of averaging them away. Replicate 0 runs under the base
/// seed: its scores are `fig3_sensitivity.json`'s, and in a shared
/// cache its cells are that campaign's hits.
pub fn fig3_sensitivity_ci(opts: &BenchOpts) {
    let replicates = opts.replicates.unwrap_or(DEFAULT_REPLICATES);
    eprintln!(
        "Fig. 3 with CIs: {} replicates x full campaign ({})",
        replicates, opts.setup.horizon
    );
    let (campaign, telemetry) = run_replicated_campaign(&opts.engine(), &opts.setup, replicates);

    println!(
        "\n{}",
        replication_table("Fig. 3 — sensitivity with 95% bootstrap CIs", &campaign)
    );

    opts.write_json("fig3_sensitivity_ci.json", &campaign);
    // Wall-clock data goes to its own (git-ignored) artefact:
    // fig3_sensitivity_ci.json stays byte-identical across machines,
    // jobs counts and cache state.
    opts.write_json("fig3_sensitivity_ci_telemetry.json", &telemetry);
}

/// Seconds [`throughput`]'s printed report trims from both ends of a
/// run (warm-up and drain).
const REPORT_MARGIN_S: usize = 5;

/// Rejects a setup whose fault comes before [`throughput`]'s pre-fault
/// report window (margin → fault) opens, naming the shortest `--quick`
/// that fits (`PaperSetup::quick` faults at a third of the horizon).
pub fn throughput_fits(setup: &PaperSetup) -> Result<(), String> {
    if setup.fault_at > SimTime::from_secs(REPORT_MARGIN_S as u64) {
        return Ok(());
    }
    Err(format!(
        "the throughput report skips the first and last {REPORT_MARGIN_S} s, but this \
         {} run injects its fault at {}: use --quick {} or more",
        setup.horizon,
        setup.fault_at,
        3 * (REPORT_MARGIN_S + 1)
    ))
}

/// Figs. 4–6 — throughput of the five blockchains over time in the
/// baseline and under the `kind` alteration (1-second bins), written as
/// `fig<N>_throughput_<kind>.<chain>.csv`. Dispatch has checked that
/// [`throughput_fits`] the setup.
pub fn throughput(opts: &BenchOpts, figure: u8, kind: ScenarioKind) {
    let setup = &opts.setup;
    eprintln!(
        "Fig. {figure}: throughput over time, scenario = {} ({})",
        kind.name(),
        setup.horizon
    );
    let stem = format!("fig{figure}_throughput_{}", kind.name());
    let fault_s = (setup.fault_at.as_micros() / 1_000_000) as usize;
    let recover_s = (setup.recover_at.as_micros() / 1_000_000) as usize;
    let end_s = (setup.horizon.as_micros() / 1_000_000) as usize;
    let groups = opts
        .engine()
        .run_groups(Group::scenario_per_chain(setup, kind));
    for (chain, group) in Chain::ALL.iter().zip(&groups) {
        let (baseline, altered) = group.as_pair();
        opts.write_text(
            &format!("{stem}.{}.csv", chain.name().to_lowercase()),
            &throughput_csv(baseline, altered),
        );
        let base_tp = baseline.throughput();
        let alt_tp = altered.throughput();
        println!(
            "{:<10} baseline {:>6.1} tps | altered: pre {:>6.1}  during {:>6.1}  after {:>6.1} tps | peak after {:>5}",
            chain.name(),
            base_tp.mean_over(REPORT_MARGIN_S, end_s - REPORT_MARGIN_S),
            alt_tp.mean_over(REPORT_MARGIN_S, fault_s),
            alt_tp.mean_over(fault_s, recover_s.min(end_s - 1)),
            alt_tp.mean_over(recover_s.min(end_s - 1), end_s),
            alt_tp.peak_over(recover_s.min(end_s - 1), end_s),
        );
    }
}

/// Fig. 7 — the radar synthesis: every chain's sensitivity to crashes,
/// transient failures, partitions and the secure client, on one chart.
pub fn fig7_radar(opts: &BenchOpts) {
    eprintln!("Fig. 7: radar synthesis ({})", opts.setup.horizon);
    let (reports, _) = run_campaign(&opts.engine(), &opts.setup);
    let rows = radar_rows(&reports);

    println!(
        "\n{:<10} {:>14} {:>14} {:>14} {:>16}",
        "chain", "crash", "transient", "partition", "secure-client"
    );
    let fmt = |r: &SensitivityRecord| match r.score {
        None => "∞".to_owned(),
        Some(s) if r.improved => format!("{s:.3}↓"),
        Some(s) => format!("{s:.3}"),
    };
    for row in &rows {
        println!(
            "{:<10} {:>14} {:>14} {:>14} {:>16}",
            row.chain,
            fmt(&row.crash),
            fmt(&row.transient),
            fmt(&row.partition),
            fmt(&row.secure_client),
        );
    }
    println!(
        "\n(↓ marks scenarios where the alteration improved responsiveness; ∞ = liveness lost)"
    );
    opts.write_json("fig7_radar.json", &rows);
}

/// §3's argument, made runnable: how the sensitivity score relates to
/// the classic dependability metrics (latency deltas, throughput drop,
/// downtime) across the crash and transient scenarios.
///
/// The claim: latency/throughput deltas capture the *amplitude* of an
/// impact but miss its *duration*; downtime captures duration but not
/// amplitude; the sensitivity score captures both and needs no sliding
/// window or threshold parameter.
pub fn metrics_comparison(opts: &BenchOpts) {
    const KINDS: [ScenarioKind; 2] = [ScenarioKind::Crash, ScenarioKind::Transient];
    let setup = &opts.setup;
    let fault_s = (setup.fault_at.as_micros() / 1_000_000) as usize;
    let end_s = (setup.horizon.as_micros() / 1_000_000) as usize;
    let groups = opts.engine().run_groups(
        KINDS
            .iter()
            .flat_map(|&kind| Group::scenario_per_chain(setup, kind))
            .collect(),
    );
    let mut artefact = Vec::new();
    for (kind, groups) in KINDS.into_iter().zip(groups.chunks(Chain::ALL.len())) {
        println!(
            "\n{} scenario\n{:<10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
            kind.name(),
            "chain",
            "sensitivity",
            "Δp50 (s)",
            "Δp95 (s)",
            "tput drop",
            "downtime",
            "recovery"
        );
        for (&chain, group) in Chain::ALL.iter().zip(groups) {
            let (baseline, altered) = group.as_pair();
            let report = group.report(chain, kind);
            let (dp50, dp95) = match (baseline.ecdf(), altered.ecdf()) {
                (Ok(b), Ok(a)) => (
                    a.quantile(0.5) - b.quantile(0.5),
                    a.quantile(0.95) - b.quantile(0.95),
                ),
                _ => (f64::NAN, f64::NAN),
            };
            let drop = throughput_drop(
                &baseline.throughput(),
                &altered.throughput(),
                fault_s,
                end_s,
            )
            .expect("fault window fits the run horizon");
            let downtime = downtime_seconds(&altered.throughput(), 10, fault_s, end_s)
                .expect("fault window fits the run horizon");
            let recovery = if kind == ScenarioKind::Transient {
                RecoveryReport::measure(
                    &altered.throughput(),
                    setup.fault_at,
                    setup.recover_at,
                    200,
                )
                .expect("fault/recovery marks fit the run horizon")
                .recovery_seconds
            } else {
                None
            };
            println!(
                "{:<10} {:>12} {:>10.3} {:>10.3} {:>9.1}% {:>9}s {:>10}",
                chain.name(),
                report.sensitivity.to_string(),
                dp50,
                dp95,
                drop * 100.0,
                downtime,
                recovery
                    .map(|r| format!("{r}s"))
                    .unwrap_or_else(|| "—".into()),
            );
            artefact.push(serde_json::json!({
                "chain": chain.name(),
                "scenario": kind.name(),
                "sensitivity": report.sensitivity.score(),
                "delta_p50": dp50,
                "delta_p95": dp95,
                "throughput_drop": drop,
                "downtime_s": downtime,
                "recovery_s": recovery,
            }));
        }
    }
    println!(
        "\nNote how downtime alone ranks the transient failures of Algorand and\n\
         Aptos identically (both ≈ the outage length) while their sensitivities\n\
         differ 2x — the backlog Aptos drags behind is amplitude, not duration.\n\
         Conversely the crash scenario shows latency deltas without downtime."
    );
    opts.write_json("metrics_comparison.json", &artefact);
}

/// `dbg_scenario <chain> <scenario>` — run one (chain, scenario) pair
/// and print its sensitivity report, latency statistics and the
/// throughput timeline; the calibration workhorse behind the figures.
pub fn dbg_scenario(opts: &BenchOpts) {
    let (chain, kind) = opts.scenario.expect("dispatch requires the two operands");
    let groups = opts
        .engine()
        .run_groups(vec![Group::scenario(&opts.setup, chain, kind)]);
    println!("{}", groups[0].report(chain, kind));
    let (base, result) = groups[0].as_pair();
    if let (Ok(b), Ok(a)) = (base.ecdf(), result.ecdf()) {
        println!(
            "baseline mean={:.3} p95={:.3} | altered mean={:.3} p95={:.3}",
            b.mean(),
            b.quantile(0.95),
            a.mean(),
            a.quantile(0.95)
        );
    }
    println!(
        "submitted={} committed={} unresolved={} lost_liveness={} panics={}",
        result.submitted,
        result.latencies.len(),
        result.unresolved,
        result.lost_liveness,
        result.panics.len()
    );
    let tp = result.throughput();
    for (i, chunk) in tp.bins().chunks(10).enumerate() {
        let sum: u32 = chunk.iter().sum();
        print!("{:4}s {:5} |", i * 10, sum);
        if i % 4 == 3 {
            println!();
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_report_fits_from_quick_18_up() {
        assert!(throughput_fits(&PaperSetup::default()).is_ok());
        assert!(throughput_fits(&PaperSetup::quick(18, 1)).is_ok());
        let err = throughput_fits(&PaperSetup::quick(17, 1)).expect_err("fault at 5 s");
        assert!(err.contains("--quick 18"), "{err}");
    }
}
