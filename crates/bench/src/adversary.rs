//! Bridges the adversary search (`stabl-adversary`) onto the campaign
//! engine: every genome evaluation becomes one cached [`Job`], so a
//! replayed search is answered almost entirely from the on-disk cache
//! and two runs with the same seed produce byte-identical traces.
//!
//! The module also carries the comparison and replication helpers the
//! `ext_adversary` campaign and the `adversary_corpus` regression test
//! share: the paper's worst fixed-scenario key (the bar a discovery
//! must clear), and multi-seed replication of a shrunk schedule into a
//! bootstrap confidence interval.

use stabl::{Chain, PaperSetup, RunConfig, RunResult, ScenarioKind};
use stabl_adversary::{fitness_of, Evaluate, Fitness, Genome, Objective, ScoreCi};
use stabl_sim::DetRng;
use stabl_stats::{percentile_ci, SeedSequence};

use crate::engine::{Engine, Group, Job};

/// Evaluates genomes by running them through the campaign engine
/// against a fixed baseline run.
///
/// Each genome becomes a [`Job::config`] whose cache-key material is
/// the full `RunConfig` Debug form — distinct schedules get distinct
/// cache cells, identical ones replay from disk.
pub struct EngineEval<'a> {
    engine: &'a Engine,
    chain: Chain,
    base: RunConfig,
    baseline: RunResult,
    evals: usize,
}

impl<'a> EngineEval<'a> {
    /// Builds the evaluator: runs (or replays) the chain's baseline
    /// cell, then evaluates every genome against it.
    pub fn new(engine: &'a Engine, setup: &PaperSetup, chain: Chain) -> EngineEval<'a> {
        let base = setup.run_config(chain, ScenarioKind::Baseline);
        let baseline = engine
            .run(vec![Job::scenario(setup, chain, ScenarioKind::Baseline)])
            .remove(0);
        EngineEval {
            engine,
            chain,
            base,
            baseline,
            evals: 0,
        }
    }

    /// The baseline run the fitness deltas are measured against.
    pub fn baseline(&self) -> &RunResult {
        &self.baseline
    }

    /// Evaluations performed so far (search + shrink combined).
    pub fn evals(&self) -> usize {
        self.evals
    }

    /// The engine job that runs `genome` against this chain.
    fn job_for(&self, genome: &Genome, ordinal: usize) -> Job {
        let mut config = self.base.clone();
        config.faults = genome.schedule();
        config.byzantine = genome.byzantine_spec();
        Job::config(
            format!("{}/adv#{ordinal:04}", self.chain.name()),
            self.chain,
            config,
        )
    }
}

impl Evaluate for EngineEval<'_> {
    fn eval_batch(&mut self, genomes: &[Genome]) -> Vec<Fitness> {
        let jobs = genomes
            .iter()
            .enumerate()
            .map(|(i, g)| self.job_for(g, self.evals + i))
            .collect();
        self.evals += genomes.len();
        let results = self.engine.run(jobs);
        results
            .iter()
            .map(|altered| fitness_of(&self.baseline, altered))
            .collect()
    }
}

/// The paper's four fixed scenarios evaluated as fitnesses, plus the
/// worst key among them under `objective` — the bar the adversary
/// search has to clear to claim a new worst case.
///
/// Each altered scenario is paired with the baseline it would be
/// reported against (the secure-client cell compares to the
/// doubled-vCPU baseline, exactly as the campaign does).
pub fn paper_worst(
    engine: &Engine,
    setup: &PaperSetup,
    chain: Chain,
    objective: Objective,
) -> (f64, Vec<(ScenarioKind, Fitness)>) {
    let groups = ScenarioKind::ALTERED
        .into_iter()
        .map(|kind| Group::scenario(setup, chain, kind))
        .collect();
    let scenarios: Vec<(ScenarioKind, Fitness)> = ScenarioKind::ALTERED
        .into_iter()
        .zip(engine.run_groups(groups))
        .map(|(kind, group)| {
            let (baseline, altered) = group.as_pair();
            (kind, fitness_of(baseline, altered))
        })
        .collect();
    let worst = scenarios
        .iter()
        .map(|(_, fit)| fit.key(objective))
        .fold(f64::NEG_INFINITY, f64::max);
    (worst, scenarios)
}

/// Stream label for the bootstrap rng (independent of every run seed).
const CI_STREAM: u64 = 0xC1;

/// Replays `genome` under `replicates` perturbed master seeds and
/// summarises the finite sensitivity scores as a bootstrap CI.
///
/// Liveness-losing replicates are counted, not averaged (an interval
/// over ∞ is meaningless); when every replicate loses liveness the CI
/// is `None` and `lost_replicates` tells the whole story.
pub fn replicate_ci(
    engine: &Engine,
    setup: &PaperSetup,
    chain: Chain,
    genome: &Genome,
    replicates: usize,
) -> Option<ScoreCi> {
    let horizon_secs = setup.horizon.as_micros() / 1_000_000;
    let seeds = SeedSequence::new(setup.seed).seeds(replicates);
    let fitnesses: Vec<Fitness> = seeds
        .iter()
        .map(|&seed| {
            let replica = PaperSetup::quick(horizon_secs, seed);
            let mut eval = EngineEval::new(engine, &replica, chain);
            eval.eval(genome)
        })
        .collect();
    let finite: Vec<f64> = fitnesses.iter().filter_map(|f| f.score).collect();
    let lost = fitnesses.iter().filter(|f| f.lost_liveness).count();
    let ci = percentile_ci(&finite, &mut DetRng::new(setup.seed).derive(CI_STREAM));
    ci.map(|ci| ScoreCi {
        lo: ci.lo,
        hi: ci.hi,
        finite_replicates: finite.len(),
        lost_replicates: lost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabl_adversary::SearchSpace;

    fn tiny_setup() -> PaperSetup {
        PaperSetup::quick(20, 1)
    }

    #[test]
    fn engine_eval_matches_direct_run() {
        let setup = tiny_setup();
        let engine = Engine::new(1, None);
        let chain = Chain::Redbelly;
        let space = SearchSpace::paper(&setup, chain);
        let genome = space.random_genome(&mut DetRng::new(5));

        let mut eval = EngineEval::new(&engine, &setup, chain);
        let through_engine = eval.eval(&genome);

        let mut config = setup.run_config(chain, ScenarioKind::Baseline);
        config.faults = genome.schedule();
        config.byzantine = genome.byzantine_spec();
        let direct = chain.run_with_cpu(&config, 1.0);
        let expected = fitness_of(eval.baseline(), &direct);
        assert_eq!(through_engine, expected);
        assert_eq!(eval.evals(), 1);
    }

    #[test]
    fn paper_worst_covers_all_four_scenarios() {
        let setup = tiny_setup();
        let engine = Engine::new(1, None);
        let (worst, scenarios) = paper_worst(&engine, &setup, Chain::Aptos, Objective::Sensitivity);
        assert_eq!(scenarios.len(), 4);
        let max = scenarios
            .iter()
            .map(|(_, f)| f.key(Objective::Sensitivity))
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(worst, max);
    }
}
