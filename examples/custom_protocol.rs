//! Plugging your own blockchain into Stabl.
//!
//! The paper closes by inviting the community to measure the sensitivity
//! of other blockchains. This example shows the full path: implement the
//! kernel's `Protocol` trait for a toy chain (a primary-backup "chain"
//! with no fault tolerance at all), then drive it through the same
//! harness, fault plans and sensitivity metric as the five studied
//! systems — and watch it fail the crash test the BFT chains pass.
//!
//! ```sh
//! cargo run --release --example custom_protocol
//! ```

use stabl_suite::stabl::metrics::Sensitivity;
use stabl_suite::stabl::{run_protocol, FaultSchedule, RunConfig};
use stabl_suite::stabl_sim::{Ctx, NodeId, Protocol, SimTime};
use stabl_suite::stabl_types::{Ledger, Transaction, TxId};

/// A primary-backup toy chain: node 0 orders everything and replicas
/// apply blindly. Fast — and exactly as fragile as it sounds.
struct PrimaryBackup {
    id: NodeId,
    ledger: Ledger,
}

#[derive(Clone, Debug)]
enum Msg {
    /// Primary → replicas: apply this transaction.
    Apply(Transaction),
    /// Anyone → primary: please order this transaction.
    Order(Transaction),
}

impl Protocol for PrimaryBackup {
    type Msg = Msg;
    type Request = Transaction;
    type Commit = TxId;
    type Timer = ();
    type Config = ();

    fn new(id: NodeId, _n: usize, _config: &(), _ctx: &mut Ctx<'_, Self>) -> Self {
        PrimaryBackup {
            id,
            ledger: Ledger::genesis(),
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: Msg, ctx: &mut Ctx<'_, Self>) {
        match msg {
            Msg::Order(tx) => {
                // Only meaningful at the primary: order and disseminate.
                if self.id == NodeId::new(0) {
                    ctx.broadcast(Msg::Apply(tx));
                    if let Ok(id) = self.ledger.apply(&tx) {
                        ctx.commit(id);
                    }
                }
            }
            Msg::Apply(tx) => {
                if let Ok(id) = self.ledger.apply(&tx) {
                    ctx.commit(id);
                }
            }
        }
    }

    fn on_timer(&mut self, _: (), _: &mut Ctx<'_, Self>) {}

    fn on_request(&mut self, tx: Transaction, ctx: &mut Ctx<'_, Self>) {
        if self.id == NodeId::new(0) {
            ctx.broadcast(Msg::Apply(tx));
            if let Ok(id) = self.ledger.apply(&tx) {
                ctx.commit(id);
            }
        } else {
            ctx.send(NodeId::new(0), Msg::Order(tx));
        }
    }

    fn on_restart(&mut self, _: &mut Ctx<'_, Self>) {}
}

fn main() {
    // Baseline: impressive numbers, as one-node ordering always has.
    let config = RunConfig::quick(13);
    let baseline = run_protocol::<PrimaryBackup>(&config, ());
    let baseline_ecdf = baseline.ecdf().expect("baseline commits");
    println!(
        "primary-backup baseline: {} txs, mean latency {:.1} ms — looks great!",
        baseline.latencies.len(),
        baseline_ecdf.mean() * 1000.0
    );

    // Now the same test every chain in the paper takes: crash one node.
    // We crash the primary, of course.
    let mut altered_config = RunConfig::quick(13);
    altered_config.faults = FaultSchedule::crash(vec![NodeId::new(0)], SimTime::from_secs(10));
    let altered = run_protocol::<PrimaryBackup>(&altered_config, ());
    let sensitivity = match altered.ecdf() {
        Ok(ecdf) if !altered.lost_liveness => Sensitivity::from_ecdfs(&baseline_ecdf, &ecdf),
        _ => Sensitivity::Infinite,
    };
    println!(
        "crash of 1 node (the primary): sensitivity = {sensitivity}, {} of {} txs lost",
        altered.unresolved, altered.submitted
    );
    println!(
        "\nOne crashed node, infinite sensitivity: the metric separates actual\n\
         fault tolerance from fair-weather performance. Implement `Protocol`\n\
         for your chain and put it through the same scenarios."
    );
    assert!(
        sensitivity.is_infinite(),
        "a primary-backup chain cannot pass the crash test"
    );
}
