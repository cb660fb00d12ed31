//! `BENCHMARK.json`, generated from the tables the benchmark runs on, so
//! the declaration and the program cannot drift apart:
//! `benchmark/run.sh schema > BENCHMARK.json`.

use serde_json::{json, Value};

use crate::metrics::{per_layer, END_TO_END};
use crate::workloads::Kind;

/// Seconds of timed passes in one run.
pub const RUN_SECONDS: u64 = 20;

pub fn benchmark_json() -> String {
    let workloads: Vec<Value> = Kind::ALL
        .iter()
        .map(|k| json!({"name": k.name(), "why": k.why()}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.name(),
                "bound": m.bound,
            })
        })
        .collect();
    let per_layer: Vec<Value> = per_layer()
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.name()}))
        .collect();
    let declaration = json!({
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    });
    let mut text = serde_json::to_string_pretty(&declaration)
        .expect("the vendored serde_json cannot fail to serialise");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh schema > BENCHMARK.json`"
        );
    }

    #[test]
    fn whys_fit_on_one_line_of_the_contract() {
        for kind in Kind::ALL {
            assert!(kind.why().len() <= 200, "{}", kind.name());
            assert!(!kind.why().contains('\n'));
        }
    }
}
