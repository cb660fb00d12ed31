//! The campaign registry against the repository: every committed
//! artifact has exactly one row that says how it was made, every row's
//! committed artifacts exist, and the README shows the same table
//! `stabl-bench list` prints.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use common::files_under;
use stabl::report::{RadarRow, SensitivityRecord};
use stabl_bench::campaigns::{self, is_uncommitted_artifact, REGISTRY};
use stabl_stats::ReplicatedCampaign;

/// The 21 programs `crates/bench/src/bin/` held before the registry
/// (`ext_speed`, the 22nd, was retired with the speed path).
const LEGACY_NAMES: [&str; 21] = [
    "ablations",
    "dbg_scenario",
    "ext_adversary",
    "ext_chaos",
    "ext_contention",
    "ext_credence",
    "ext_diagnose",
    "ext_scale_sweep",
    "ext_slow_node",
    "ext_stake",
    "ext_trace",
    "ext_wan",
    "ext_workload_stress",
    "fig1_aptos_ecdf",
    "fig3_sensitivity",
    "fig3_sensitivity_ci",
    "fig4_throughput_crash",
    "fig5_throughput_transient",
    "fig6_throughput_partition",
    "fig7_radar",
    "metrics_comparison",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn names_are_the_legacy_binary_names() {
    let mut names: Vec<&str> = REGISTRY.iter().map(|c| c.name).collect();
    names.sort_unstable();
    assert_eq!(
        names, LEGACY_NAMES,
        "one row per legacy binary, no duplicates"
    );
    for name in LEGACY_NAMES {
        assert_eq!(campaigns::find(name).expect("registered").name, name);
    }
    let err = campaigns::find("fig2").err().expect("not a campaign");
    assert!(
        err.contains("fig2") && err.contains("fig3_sensitivity"),
        "{err}"
    );
}

#[test]
fn throughput_figures_reject_a_horizon_their_report_cannot_fit() {
    // Before any cell runs: dispatch returns the usage error `main`
    // turns into exit 2.
    for name in [
        "fig4_throughput_crash",
        "fig5_throughput_transient",
        "fig6_throughput_partition",
    ] {
        let args = [name, "--quick", "8"].map(str::to_owned).to_vec();
        let err = campaigns::dispatch(args).expect_err("8 s cannot fit 5 s margins");
        assert!(err.contains(name) && err.contains("--quick 18"), "{err}");
    }
}

#[test]
fn missing_or_misplaced_operands_are_usage_errors() {
    for (args, needle) in [
        (
            &[][..],
            "usage: stabl-bench list | all [flags] | <campaign> [flags]",
        ),
        (
            &["dbg_scenario", "--quick", "20"][..],
            "usage: stabl-bench dbg_scenario <chain> <scenario>",
        ),
        (
            &["fig3_sensitivity", "redbelly", "crash"][..],
            "fig3_sensitivity takes flags only",
        ),
    ] {
        let args = args.iter().map(|&arg| arg.to_owned()).collect();
        let err = campaigns::dispatch(args).expect_err("nothing to run");
        assert!(err.contains(needle), "{err}");
    }
}

#[test]
fn every_committed_artifact_is_claimed_by_exactly_one_campaign() {
    let mut claims: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    for campaign in REGISTRY {
        for path in campaign.artifact_paths() {
            claims.entry(path).or_default().push(campaign.name);
        }
    }
    for (path, owners) in &claims {
        assert_eq!(owners.len(), 1, "{path} is written by {owners:?}");
    }

    // The run cache is git-ignored.
    let mut committed = files_under(&repo_root().join("results"), &[".cache"]);
    committed.retain(|path| !is_uncommitted_artifact(path));
    for path in &committed {
        let owner = claims
            .get(path)
            .and_then(|owners| campaigns::find(owners[0]).ok())
            .unwrap_or_else(|| panic!("results/{path} has no campaign row claiming it"));
        assert!(
            owner.committed_with.is_some(),
            "results/{path} is committed but {} says nothing it writes is",
            owner.name
        );
    }
    for campaign in REGISTRY.iter().filter(|c| c.committed_with.is_some()) {
        for path in campaign.artifact_paths() {
            assert!(
                is_uncommitted_artifact(&path) || committed.contains(&path),
                "{} claims results/{path}, which is not there",
                campaign.name
            );
        }
    }
}

#[test]
fn readme_embeds_the_list_table() {
    let readme = fs::read_to_string(repo_root().join("README.md")).expect("README.md");
    assert!(
        readme.contains(&campaigns::list()),
        "README.md's campaign table is stale; paste `stabl-bench list`:\n{}",
        campaigns::list()
    );
}

/// The part of a `fig3_sensitivity.json` row Fig. 7 repeats.
#[derive(serde::Deserialize)]
struct Fig3Score {
    chain: String,
    scenario: String,
    sensitivity: SensitivityRecord,
}

fn read_committed(name: &str) -> String {
    fs::read_to_string(repo_root().join("results").join(name)).expect(name)
}

fn committed_fig3() -> Vec<Fig3Score> {
    serde_json::from_str(&read_committed("fig3_sensitivity.json")).expect("fig. 3 rows")
}

/// Fig. 7 is Fig. 3's scores on one chart: the two committed artifacts
/// come from the same 30 cells and must agree cell for cell.
#[test]
fn committed_radar_equals_committed_fig3() {
    let fig3 = committed_fig3();
    let radar: Vec<RadarRow> =
        serde_json::from_str(&read_committed("fig7_radar.json")).expect("radar rows");
    assert_eq!(fig3.len(), 4 * radar.len());
    for row in &fig3 {
        let on_radar = radar
            .iter()
            .find(|r| r.chain == row.chain)
            .unwrap_or_else(|| panic!("no radar row for {}", row.chain));
        let score = match row.scenario.as_str() {
            "crash" => on_radar.crash,
            "transient" => on_radar.transient,
            "partition" => on_radar.partition,
            "secure-client" => on_radar.secure_client,
            other => panic!("unexpected scenario {other}"),
        };
        assert_eq!(score, row.sensitivity, "{}/{}", row.chain, row.scenario);
    }
}

/// The replicated Fig. 3 is committed at the paper's horizon, and its
/// replicate 0 runs under the base seed: that replicate is Fig. 3.
#[test]
fn committed_replication_starts_with_committed_fig3() {
    let campaign: ReplicatedCampaign =
        serde_json::from_str(&read_committed("fig3_sensitivity_ci.json")).expect("replication");
    assert_eq!(campaign.horizon_secs, 400);
    assert_eq!(campaign.replicates, 8);
    let fig3 = committed_fig3();
    assert_eq!(campaign.cells.len(), fig3.len());
    for row in &fig3 {
        let cell = campaign
            .cell(&row.chain, &row.scenario)
            .unwrap_or_else(|| panic!("no replicated cell for {}/{}", row.chain, row.scenario));
        let first = cell.scores[0];
        assert_eq!(first.seed, campaign.base_seed);
        assert_eq!(
            first.score, row.sensitivity.score,
            "{}/{}",
            row.chain, row.scenario
        );
    }
}
