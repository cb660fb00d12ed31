//! Outage drill: how does a chain behave when more nodes fail than it
//! tolerates, and how fast does it recover once they return?
//!
//! This is the paper's recoverability experiment (§5) as an operator
//! would run it before adopting a chain: halt `f = t + 1` validators
//! mid-run, restart them later, and watch the throughput timeline — the
//! downtime window, the catch-up burst, and whether the backlog ever
//! clears.
//!
//! ```sh
//! cargo run --release --example outage_drill [algorand|aptos|avalanche|redbelly|solana]
//! ```

use stabl_suite::stabl::{Chain, PaperSetup, ScenarioKind};

fn main() {
    let chain = match std::env::args().nth(1).map(|name| name.parse::<Chain>()) {
        None => Chain::Redbelly,
        Some(Ok(chain)) => chain,
        Some(Err(message)) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    // 180 s keeps the outage overlapping Solana's Epoch-Accounts-Hash
    // windows like the paper's 400 s timeline does (the EAH panic needs
    // rooting to stall across an epoch's start; a 150 s drill would let
    // Solana slip through between two warmup epochs).
    let setup = PaperSetup::quick(180, 7);
    let f = chain.tolerated_faults(setup.n) + 1;
    println!(
        "Outage drill on {chain}: halting {f} of {} validators at {}s, restarting at {}s\n",
        setup.n,
        setup.fault_at.as_secs_f64(),
        setup.recover_at.as_secs_f64(),
    );

    let result = setup.run(chain, ScenarioKind::Transient);
    let series = result.throughput();
    let fault_s = (setup.fault_at.as_micros() / 1_000_000) as usize;
    let recover_s = (setup.recover_at.as_micros() / 1_000_000) as usize;
    let end_s = series.bins().len();

    println!("throughput timeline (10 s buckets, * = 100 TPS):");
    for (i, chunk) in series.bins().chunks(10).enumerate() {
        let sum: u32 = chunk.iter().sum();
        let bars = (sum / 1000) as usize;
        println!("{:>4}s {:>6} tx {}", i * 10, sum, "*".repeat(bars));
    }

    println!();
    if result.lost_liveness {
        println!(
            "VERDICT: {chain} never recovered — {} of {} transactions lost, {} node panics.",
            result.unresolved,
            result.submitted,
            result.panics.len()
        );
        if !result.panics.is_empty() {
            println!("first panic: {}", result.panics[0].reason);
        }
    } else {
        let recovery = series.first_at_least(recover_s, 100).map(|s| s - recover_s);
        println!(
            "VERDICT: recovered{}; catch-up peak {} TPS; {} of {} transactions committed.",
            recovery
                .map(|r| format!(" {r} s after the restart"))
                .unwrap_or_default(),
            series.peak_over(recover_s, end_s),
            result.submitted - result.unresolved,
            result.submitted,
        );
        let during = series.zero_seconds(fault_s + 2, recover_s);
        println!("(throughput was zero for {during} s of the outage window)");
    }
}
