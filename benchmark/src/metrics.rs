//! The metric tables — the names, units and directions `BENCHMARK.json`
//! declares — and the order statistics the reports are made of.

use std::collections::BTreeMap;

use stabl::Chain;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the campaign stack waits on or
/// pays for, with the share of the parent's median by which it may get
/// worse before a change counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload by an untraced
/// run. `wall_s`, `sim_s_per_wall_s` and `runs_per_wall_s` are the same
/// measurement in the three units users ask for; the bounds are three
/// times the widest spread measured across seeds (see the README).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "sim_s_per_wall_s",
        unit: "sim-s/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "runs_per_wall_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric, reported by a traced run. No bound: these say
/// where time went, they do not gate a change.
#[derive(Clone, Debug)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Scenario suffixes of the per-chain cell metrics, in campaign order.
pub const SCENARIOS: [&str; 6] = [
    "baseline",
    "baseline2x",
    "crash",
    "transient",
    "partition",
    "secure-client",
];

/// Metric-name prefix of a chain: its crate directory.
pub fn chain_prefix(chain: Chain) -> &'static str {
    match chain {
        Chain::Algorand => "algorand",
        Chain::Aptos => "aptos",
        Chain::Avalanche => "avalanche",
        Chain::Redbelly => "redbelly",
        Chain::Solana => "solana",
    }
}

/// The per-layer metrics, prefix = crate directory. Every traced run
/// reports every one of them; a layer a workload never enters reads 0.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let fixed: [(&str, &'static str, Better); _] = [
        // sim — micro-drivers over the kernel's public types.
        ("sim.agenda_ns_per_event.near", "ns", Lower),
        ("sim.agenda_ns_per_event.far", "ns", Lower),
        ("sim.agenda_ns_per_event.burst", "ns", Lower),
        ("sim.kernel_ns_per_event", "ns", Lower),
        ("sim.timer_ns_per_timer", "ns", Lower),
        ("sim.net_ns_per_msg.n10", "ns", Lower),
        ("sim.net_ns_per_msg.n40", "ns", Lower),
        ("sim.net_ns_per_msg.n100", "ns", Lower),
        ("sim.recorder_overhead_share.counters", "ratio", Lower),
        ("sim.recorder_overhead_share.events", "ratio", Lower),
        ("sim.recorder_overhead_share.full", "ratio", Lower),
        // sim — counters of the workload's traced pass.
        ("sim.events_processed", "count", Lower),
        ("sim.messages_sent", "count", Lower),
        ("sim.messages_delivered", "count", Lower),
        ("sim.messages_dropped", "count", Lower),
        ("sim.timers_fired", "count", Lower),
        ("sim.timers_stale", "count", Lower),
        ("sim.timer_live_share", "ratio", Higher),
        ("sim.events_per_wall_s", "1/s", Higher),
        ("sim.kernel_floor_share", "ratio", Higher),
        ("types.sha256_mb_per_s", "MB/s", Higher),
        ("types.mempool_ns_per_tx", "ns", Lower),
        ("types.ledger_apply_ns_per_tx", "ns", Lower),
        ("types.account_pool_ns_per_tx", "ns", Lower),
        ("workload.generate_ms", "ms", Lower),
        ("workload.submissions", "count", Lower),
        ("core.harness_floor_s", "s", Lower),
        ("core.ecdf_build_ms", "ms", Lower),
        ("core.sensitivity_ms", "ms", Lower),
        ("core.report_ms", "ms", Lower),
        ("stats.sketch_ns_per_insert", "ns", Lower),
        ("stats.bootstrap_ci_ms", "ms", Lower),
        ("bench.engine_new_ms", "ms", Lower),
        ("bench.cache_key_us", "us", Lower),
        ("bench.cache_store_ms_per_cell", "ms", Lower),
        ("bench.cache_load_ms_per_cell", "ms", Lower),
        ("bench.cache_bytes_per_cell", "B", Lower),
        ("bench.serde_encode_mb_per_s", "MB/s", Higher),
        ("bench.serde_decode_mb_per_s", "MB/s", Higher),
        ("bench.pool_busy_share", "ratio", Higher),
        ("bench.jobs_speedup", "ratio", Higher),
        ("bench.overhead_share", "ratio", Lower),
        ("bench.cache_hits", "count", Higher),
        ("bench.executed", "count", Lower),
        ("adversary.evals", "count", Higher),
        ("adversary.baseline_wall_s", "s", Lower),
        ("adversary.eval_wall_s.redbelly", "s", Lower),
        ("adversary.eval_wall_s.avalanche", "s", Lower),
        ("adversary.search_overhead_us_per_eval", "us", Lower),
        // The benchmark itself.
        ("wall_hi_s", "s", Lower),
        ("wall_samples", "count", Higher),
        ("trace_overhead_share", "ratio", Lower),
        ("host.calibration_ms", "ms", Lower),
        ("host.peak_rss_mb", "MB", Lower),
    ];
    let mut table: Vec<PerLayer> = fixed
        .into_iter()
        .map(|(name, unit, better)| PerLayer {
            name: name.to_owned(),
            unit,
            better,
        })
        .collect();
    for chain in Chain::ALL {
        for scenario in SCENARIOS {
            table.push(PerLayer {
                name: cell_metric(chain, "cell_wall_s", scenario),
                unit: "s",
                better: Lower,
            });
            table.push(PerLayer {
                name: cell_metric(chain, "ns_per_event", scenario),
                unit: "ns",
                better: Lower,
            });
        }
    }
    table
}

/// `<chain>.<what>.<scenario>`, the name of a per-cell layer metric.
pub fn cell_metric(chain: Chain, what: &str, scenario: &str) -> String {
    format!("{}.{what}.{scenario}", chain_prefix(chain))
}

/// A measured value with the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// Metric values by name.
pub type Values = BTreeMap<String, Measured>;

/// Median of the samples; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Percentiles a tail is reported at, ascending.
const PERCENTILE_GRID: [f64; 9] = [50.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9];

/// The highest percentile of the grid that still has at least ten
/// samples beyond it, with its nearest-rank value: `(percentile, value)`.
/// Fewer than twenty samples support none.
pub fn highest_supported_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    PERCENTILE_GRID.iter().rev().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank.min(n) >= 10).then(|| (p, sorted[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn sixty_samples_support_p80() {
        let samples: Vec<f64> = (1..=60).map(f64::from).collect();
        let (p, value) = highest_supported_percentile(&samples).expect("60 samples");
        assert_eq!(p, 80.0);
        // Nearest rank 48 leaves 12 samples beyond it.
        assert_eq!(value, 48.0);
    }

    #[test]
    fn fewer_than_twenty_samples_support_no_percentile() {
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&samples), None);
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&samples), Some((50.0, 10.0)));
    }

    #[test]
    fn large_samples_reach_the_top_of_the_grid() {
        let samples: Vec<f64> = (1..=20_000).map(f64::from).collect();
        let (p, _) = highest_supported_percentile(&samples).expect("20k samples");
        assert_eq!(p, 99.9);
    }

    #[test]
    fn metric_names_fit_the_contract_and_are_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_owned()));
        assert!(per_layer().len() <= 128);
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
