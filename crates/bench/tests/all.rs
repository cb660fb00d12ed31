//! `stabl-bench`, end to end through the binary: `all` runs every
//! campaign with a committed artifact, scaled down, twice — serial and
//! parallel — into two directories that must hold the same bytes; and
//! `dbg_scenario` scores one pair deterministically.

mod common;

use std::fs;
use std::path::Path;
use std::process::Command;

use common::files_under;
use stabl_bench::campaigns::REGISTRY;

/// Runs `all --quick 20` into `out` and lists what it wrote (the run
/// cache and wall-clock telemetry aside).
fn run_all(jobs: &str, out: &Path) -> Vec<String> {
    let _ = fs::remove_dir_all(out);
    // Figs. 4–6 report fixed 5-second margins, so 20 s is the shortest
    // horizon every campaign accepts.
    let output = Command::new(env!("CARGO_BIN_EXE_stabl-bench"))
        .args(["all", "--quick", "20", "--jobs", jobs, "--out"])
        .arg(out)
        .output()
        .expect("stabl-bench runs");
    assert!(
        output.status.success(),
        "all --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut written = files_under(out, &[".cache"]);
    written.retain(|path| !path.contains("telemetry"));
    written
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "simulates ~6 000 cells: minutes unoptimised; CI runs it with --release"
)]
fn all_writes_every_claimed_artifact_identically_for_any_jobs() {
    let scratch = std::env::temp_dir().join(format!("stabl-bench-all-{}", std::process::id()));
    let (serial_dir, parallel_dir) = (scratch.join("serial"), scratch.join("parallel"));
    let (serial, parallel) = std::thread::scope(|scope| {
        let serial = scope.spawn(|| run_all("1", &serial_dir));
        let parallel = run_all("2", &parallel_dir);
        (serial.join().expect("serial run"), parallel)
    });
    assert_eq!(serial, parallel);
    for path in &serial {
        let read = |dir: &Path| fs::read(dir.join(path)).expect("readable artifact");
        assert!(
            read(&serial_dir) == read(&parallel_dir),
            "{path} differs between --jobs 1 and --jobs 2"
        );
    }
    let _ = fs::remove_dir_all(&scratch);

    // The registry's `artifacts` column against what actually got
    // written — including the 25 diagnoses, whose five corpus cells
    // exist only because the adversary search ran first.
    let mut claimed: Vec<String> = REGISTRY
        .iter()
        .filter(|campaign| campaign.committed_with.is_some())
        .flat_map(|campaign| campaign.artifact_paths())
        .filter(|path| !path.contains("telemetry"))
        .collect();
    claimed.sort();
    assert_eq!(claimed, serial);
}

/// `dbg_scenario <args> --quick 40 --no-cache`'s stdout.
fn dbg_scenario(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_stabl-bench"))
        .arg("dbg_scenario")
        .args(args)
        .args(["--quick", "40", "--no-cache"])
        .output()
        .expect("stabl-bench runs");
    assert!(
        output.status.success(),
        "dbg_scenario {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

#[test]
fn dbg_scenario_prints_a_deterministic_sensitivity_report() {
    let stdout = dbg_scenario(&["redbelly", "crash", "--seed", "7"]);
    assert!(stdout.contains("Redbelly"), "{stdout}");
    assert!(stdout.contains("sensitivity"), "{stdout}");

    let solana = ["solana", "crash", "--seed", "3"];
    assert_eq!(dbg_scenario(&solana), dbg_scenario(&solana));
}

#[test]
fn fig3_titles_the_secure_client_by_the_network_size() {
    // At n = 16 the BFT chains tolerate t = 5, so the secure client
    // replicates to six nodes, one more than there are clients.
    let out = std::env::temp_dir().join(format!("stabl-bench-n16-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_stabl-bench"))
        .args(["fig3_sensitivity", "--quick", "20", "--nodes", "16"])
        .args(["--no-cache", "--out"])
        .arg(&out)
        .output()
        .expect("stabl-bench runs");
    let _ = fs::remove_dir_all(&out);
    assert!(
        output.status.success(),
        "fig3_sensitivity --nodes 16 failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        stdout.contains("Fig. 3d — secure client (t+1 = 6 nodes)"),
        "{stdout}"
    );
}
