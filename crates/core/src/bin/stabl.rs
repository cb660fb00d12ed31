//! The `stabl` command-line tool: run sensitivity experiments without
//! writing Rust.
//!
//! ```text
//! stabl list
//! stabl run <chain> <scenario> [--secs N] [--seed S] [--nodes N]
//! stabl campaign [--secs N] [--seed S]
//! stabl compare <chain> [--secs N] [--seed S]
//! ```

use std::process::ExitCode;

use stabl::{Chain, PaperSetup, ScenarioKind};

const USAGE: &str = "\
stabl — sensitivity testing and analysis for blockchains

USAGE:
    stabl list
        Show the supported chains, scenarios and fault thresholds.
    stabl run <chain> <scenario> [--secs N] [--seed S] [--nodes N]
        Run one scenario and print its sensitivity report.
    stabl compare <chain> [--secs N] [--seed S] [--nodes N]
        Run all four adversarial scenarios for one chain.
    stabl campaign [--secs N] [--seed S] [--nodes N]
        Run every chain through every scenario (the paper's Fig. 3).

CHAINS:    algorand aptos avalanche redbelly solana
SCENARIOS: crash transient partition secure
OPTIONS:
    --secs N    scaled-down run length in simulated seconds
                (default: the paper's 400 s timeline)
    --seed S    master seed (u64)
    --nodes N   validators (default 10)
";

struct Options {
    setup: PaperSetup,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut secs: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut nodes: Option<usize> = None;
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--secs" => {
                secs = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--secs takes a number of seconds")?,
                );
            }
            "--seed" => {
                seed = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed takes a u64")?,
                );
            }
            "--nodes" => {
                nodes = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--nodes takes a count")?,
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}"));
            }
            other => positional.push(other.to_owned()),
        }
    }
    let mut setup = match secs {
        Some(secs) => PaperSetup::quick(secs, seed.unwrap_or(PaperSetup::default().seed)),
        None => PaperSetup::default(),
    };
    if let Some(seed) = seed {
        setup.seed = seed;
    }
    if let Some(n) = nodes {
        if n < 10 {
            return Err("--nodes must be at least 10 (5 client-facing + 5 faultable)".into());
        }
        setup.n = n;
    }
    Ok(Options { setup, positional })
}

fn cmd_list() {
    println!("{:<10} {:>8} {:>8}", "chain", "t (n=10)", "f=t+1");
    for chain in Chain::ALL {
        let t = chain.tolerated_faults(10);
        println!("{:<10} {:>8} {:>8}", chain.name(), t, t + 1);
    }
    println!("\nscenarios: baseline crash transient partition secure");
}

fn cmd_run(options: &Options) -> Result<(), String> {
    let [chain, scenario] = &options.positional[..] else {
        return Err("run takes <chain> <scenario>".into());
    };
    let chain: Chain = chain.parse()?;
    let kind: ScenarioKind = scenario.parse()?;
    if kind == ScenarioKind::Baseline {
        let result = options.setup.run(chain, kind);
        println!("{}", stabl::report::RunSummary::of(&result));
        return Ok(());
    }
    eprintln!("running {} baseline + {} …", chain.name(), kind.name());
    let report = options.setup.sensitivity(chain, kind);
    println!("{report}");
    Ok(())
}

fn cmd_compare(options: &Options) -> Result<(), String> {
    let [chain] = &options.positional[..] else {
        return Err("compare takes <chain>".into());
    };
    let chain: Chain = chain.parse()?;
    for kind in ScenarioKind::ALTERED {
        eprintln!("running {} {} …", chain.name(), kind.name());
        println!("{}", options.setup.sensitivity(chain, kind));
    }
    Ok(())
}

fn cmd_campaign(options: &Options) -> Result<(), String> {
    if !options.positional.is_empty() {
        return Err("campaign takes no positional arguments".into());
    }
    for chain in Chain::ALL {
        for kind in ScenarioKind::ALTERED {
            eprintln!("running {} {} …", chain.name(), kind.name());
            println!("{}", options.setup.sensitivity(chain, kind));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let options = match parse_options(&args[1..]) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command.as_str() {
        "list" => {
            cmd_list();
            Ok(())
        }
        "run" => cmd_run(&options),
        "compare" => cmd_compare(&options),
        "campaign" => cmd_campaign(&options),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
