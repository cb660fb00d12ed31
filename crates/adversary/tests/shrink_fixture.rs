//! The known-bad fixture shrink: a hand-written, deliberately noisy
//! schedule must reduce to its one load-bearing action in its minimal
//! form. CI runs this as part of the `campaigns` job.

use stabl::{FaultAction, PaperSetup};
use stabl_sim::{ByzantineBehavior, LinkFault, NodeId, SimDuration, SimTime};

use stabl_adversary::{shrink, ByzGene, Fitness, FnEvaluator, Genome, Objective};

fn secs(s: f64) -> SimTime {
    SimTime::from_micros((s * 1e6) as u64)
}

/// The fitness landscape: the run "loses liveness" exactly when some
/// partition isolates node 8 across t = 30 s. Everything else in the
/// schedule is noise the shrinker must strip.
fn landscape(genome: &Genome) -> Fitness {
    let bad = genome.actions.iter().any(|action| match action {
        FaultAction::Partition { nodes, at, heal_at } => {
            nodes.contains(&NodeId::new(8)) && *at <= secs(30.0) && secs(30.0) < *heal_at
        }
        _ => false,
    });
    Fitness {
        lost_liveness: bad,
        score: if bad { None } else { Some(0.2) },
        improved: false,
        unresolved_frac: if bad { 0.5 } else { 0.0 },
    }
}

#[test]
fn known_bad_fixture_shrinks_to_minimal_form() {
    // Three actions plus a Byzantine gene; only the partition matters.
    let fixture = Genome {
        actions: vec![
            FaultAction::LinkDegrade {
                fault: LinkFault::all().with_drop(0.05),
                at: SimTime::ZERO,
                until: secs(60.0),
            },
            FaultAction::Partition {
                nodes: vec![NodeId::new(8), NodeId::new(9)],
                at: secs(20.0),
                heal_at: secs(40.0),
            },
            FaultAction::Slowdown {
                nodes: vec![NodeId::new(7)],
                extra: SimDuration::from_millis(250),
                at: secs(10.0),
                until: secs(50.0),
            },
        ],
        byz: Some(ByzGene {
            nodes: vec![NodeId::new(6)],
            behavior: ByzantineBehavior::Withhold,
        }),
    };
    // Sanity: the fixture really is "bad", and fits the quick-60 paper
    // setup it claims to run under.
    let start = landscape(&fixture);
    assert!(start.lost_liveness);
    let setup = PaperSetup::quick(60, 1);
    fixture
        .schedule()
        .validate_within(setup.n, setup.horizon)
        .expect("fixture schedule is valid");

    let min_key = 1.0e9; // liveness-loss floor under Objective::Sensitivity
    let mut eval = FnEvaluator::new(landscape);
    let outcome = shrink(
        &fixture,
        start,
        &mut eval,
        Objective::Sensitivity,
        min_key,
        100,
    );

    // The minimal form: one partition, one victim, window bisected down
    // to the smallest grid-free interval still covering t = 30 s.
    assert_eq!(
        outcome.genome,
        Genome {
            actions: vec![FaultAction::Partition {
                nodes: vec![NodeId::new(8)],
                at: secs(30.0),
                heal_at: secs(30.625),
            }],
            byz: None,
        },
        "shrunk form drifted: {:?}",
        outcome.genome
    );
    assert!(outcome.fitness.lost_liveness);
    assert!(outcome.evals <= 30, "shrink spent {} evals", outcome.evals);
    assert_eq!(eval.evals, outcome.evals);
}
