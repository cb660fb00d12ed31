//! `stabl-benchmark`: the host-time benchmark of the Stabl campaign stack.
//!
//! ```text
//! stabl-benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
//! stabl-benchmark compare A.json B.json
//! stabl-benchmark schema          # prints BENCHMARK.json
//! ```
//!
//! Run through `benchmark/run.sh`, which builds it and keeps the engine's
//! per-cell progress lines off the terminal. See `benchmark/README.md`.

mod compare;
mod host;
mod metrics;
mod micro;
mod run;
mod schema;
mod trace;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use run::RunArgs;
use workloads::Kind;

const USAGE: &str = "usage: stabl-benchmark [--workload fig3_cold|fig3_warm|adversary_search|scale_n40] \
[--seed N] [--seconds N] [--trace 0|1] [--out FILE]\n       stabl-benchmark compare A.json B.json\n       stabl-benchmark schema";

struct Cli {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Kind::ALL.to_vec(),
        seed: stabl::PaperSetup::default().seed,
        seconds: schema::RUN_SECONDS as f64,
        trace: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} takes a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => cli.workloads = vec![Kind::parse(value).ok_or_else(bad)?],
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(error) => {
                eprintln!("{error}");
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("schema") {
        print!("{}", schema::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("{error}");
            return ExitCode::from(2);
        }
    };
    // Scratch files stay next to the benchmark, inside the checkout.
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut all_correct = true;
    for kind in cli.workloads {
        let outcome = run::run(&RunArgs {
            kind,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            out_dir: &out_dir,
        });
        outcome.print();
        if let Some(path) = &cli.out {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut file| writeln!(file, "{}", outcome.record()));
            if let Err(error) = appended {
                eprintln!("cannot append to {}: {error}", path.display());
                return ExitCode::from(2);
            }
        }
        println!("{}", outcome.result_line());
        all_correct &= outcome.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
