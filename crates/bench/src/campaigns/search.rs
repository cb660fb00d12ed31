//! The adversary search.
//!
//! The paper measures each chain under four *fixed* failure scenarios.
//! This extension asks the harder question: what is the worst schedule
//! the fault model can express? Per chain it
//!
//! 1. scores the paper's four scenarios (the bar to clear),
//! 2. runs a seeded search (simulated annealing or (μ+λ)) over fault
//!    schedules, maximising the chosen objective through the cached
//!    campaign engine,
//! 3. ddmin-shrinks the winner to a minimal reproducer (≤ 3 actions),
//! 4. replicates the reproducer across perturbed seeds for a bootstrap
//!    CI, and
//! 5. commits the reproducer as `<out>/adversary/corpus/<chain>.json`
//!    — the corpus the `adversary_corpus` regression test replays.
//!
//! Everything is deterministic: same seed ⇒ byte-identical search
//! trace, corpus and summary artefacts, whatever `--jobs` or the cache
//! say.
//!
//! Flags read beyond the common ones: `--budget <evals>` (default 200),
//! `--strategy annealing|mu-lambda`, `--objective
//! sensitivity|liveness-loss`, `--chain <name>` (repeatable; default
//! all five), `--replicates <n>` (CI seeds, default 5).

use stabl::Chain;
use stabl_adversary::{shrink, CorpusEntry, SearchConfig, SearchSpace, LIVENESS_LOSS_KEY};
use stabl_stats::SeedSequence;

use crate::{paper_worst, replicate_ci, BenchOpts, EngineEval};

/// CI seeds per shrunk reproducer unless `--replicates` says otherwise.
const DEFAULT_REPLICATES: usize = 5;

fn fmt_key(key: f64) -> String {
    if key >= LIVENESS_LOSS_KEY {
        format!("INF+{:.3}", key - LIVENESS_LOSS_KEY)
    } else {
        format!("{key:.3}")
    }
}

/// Searches, shrinks and replicates every requested chain's worst case.
pub fn adversary(opts: &BenchOpts) {
    let setup = &opts.setup;
    let chains = if opts.chains.is_empty() {
        &Chain::ALL[..]
    } else {
        &opts.chains[..]
    };
    let replicates = opts.replicates.unwrap_or(DEFAULT_REPLICATES);
    eprintln!(
        "adversary search ({}, budget {}, {} / {})",
        setup.horizon,
        opts.budget,
        opts.strategy.name(),
        opts.objective.name()
    );
    let engine = opts.engine();

    struct Row {
        chain: &'static str,
        paper_worst_key: f64,
        discovered_key: f64,
        shrunk_key: f64,
        shrunk_actions: usize,
        beat: bool,
    }

    let search_seeds = SeedSequence::new(setup.seed);
    let mut rows: Vec<Row> = Vec::new();
    let mut summary = Vec::new();
    let mut traces = Vec::new();
    for &chain in chains {
        // The chain's index in Chain::ALL keys its search stream, so a
        // --chain subset searches identically to the full sweep.
        let chain_index = Chain::ALL
            .iter()
            .position(|&c| c == chain)
            .expect("known chain");
        let search_seed = search_seeds.seed(chain_index + 1);

        let (paper_worst_key, scenarios) = paper_worst(&engine, setup, chain, opts.objective);
        let space = SearchSpace::paper(setup, chain);
        let mut eval = EngineEval::new(&engine, setup, chain);
        let config = SearchConfig {
            seed: search_seed,
            budget: opts.budget,
            objective: opts.objective,
        };
        let outcome = opts.strategy.search(&space, &mut eval, &config);
        let discovered_key = outcome.best_fitness.key(opts.objective);
        let beat = discovered_key > paper_worst_key;

        // Shrink down to the tightest threshold that still proves the
        // point: strictly above the paper's worst when the search beat
        // it, else within 10 % of the discovery.
        let min_key = if beat {
            paper_worst_key + (discovered_key - paper_worst_key) * 1e-6
        } else {
            discovered_key - discovered_key.abs() * 0.1
        };
        let shrunk = shrink(
            &outcome.best,
            outcome.best_fitness,
            &mut eval,
            opts.objective,
            min_key,
            opts.budget.min(100),
        );
        let ci = replicate_ci(&engine, setup, chain, &shrunk.genome, replicates);

        let entry = CorpusEntry {
            chain: chain.name().to_owned(),
            horizon_secs: setup.horizon.as_micros() / 1_000_000,
            seed: setup.seed,
            search_seed,
            strategy: opts.strategy,
            objective: opts.objective,
            budget: opts.budget,
            paper_worst_key,
            discovered: outcome.best_fitness,
            genome: shrunk.genome.clone(),
            fitness: shrunk.fitness,
            ci,
            evals: eval.evals(),
        };
        opts.write_json(&format!("adversary/corpus/{}", entry.file_name()), &entry);

        rows.push(Row {
            chain: chain.name(),
            paper_worst_key,
            discovered_key,
            shrunk_key: shrunk.fitness.key(opts.objective),
            shrunk_actions: shrunk.genome.actions.len(),
            beat,
        });
        summary.push(serde_json::json!({
            "chain": chain.name(),
            "paper_scenarios": scenarios
                .iter()
                .map(|(kind, fit)| serde_json::json!({
                    "scenario": kind.name(),
                    "key": fit.key(opts.objective),
                    "lost_liveness": fit.lost_liveness,
                }))
                .collect::<Vec<_>>(),
            "paper_worst_key": paper_worst_key,
            "discovered_key": discovered_key,
            "beat_paper": beat,
            "shrunk_key": shrunk.fitness.key(opts.objective),
            "shrunk_actions": shrunk.genome.actions.len(),
            "evals": eval.evals(),
        }));
        traces.push(serde_json::json!({
            "chain": chain.name(),
            "search_seed": search_seed,
            "trace": outcome.trace,
        }));
    }

    opts.write_json("ext_adversary.json", &summary);
    opts.write_json("adversary_traces.json", &traces);

    let title = format!(
        "Extension — adversary search vs the paper's scenarios ({})",
        opts.objective.name()
    );
    println!("\n{title}\n{}", "─".repeat(title.chars().count()));
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "chain", "paper-worst", "discovered", "shrunk", "actions", "beat?"
    );
    for row in &rows {
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>8} {:>8}",
            row.chain,
            fmt_key(row.paper_worst_key),
            fmt_key(row.discovered_key),
            fmt_key(row.shrunk_key),
            row.shrunk_actions,
            if row.beat { "yes" } else { "no" },
        );
    }
    let beaten = rows.iter().filter(|r| r.beat).count();
    println!(
        "\n{beaten}/{} chains: discovered schedule strictly worse than every paper scenario",
        chains.len()
    );
}
