//! Long member chains certify on default thread stacks.
//!
//! A hinted path builds one `T`-node whose merge tree is a single chain as
//! long as the path. The prover evaluates the hierarchy bottom-up in node
//! id order, so neither the test thread nor a default-stack engine worker
//! needs more stack as the chain grows.

use lanecert_suite::algebra::{props, Algebra};
use lanecert_suite::{BatchJob, Certifier, Configuration, CorpusFamily, Engine, ProverHint};

fn certifier() -> Certifier {
    Certifier::builder()
        .property(Algebra::shared(props::Connected))
        .pathwidth(2)
        .build()
        .expect("theorem1 connected certifier")
}

#[test]
fn long_paths_certify_on_default_stacks() {
    let n = if cfg!(debug_assertions) {
        1 << 15
    } else {
        1 << 17
    };
    let (graph, rep) = CorpusFamily::Path.instance(n, 7);
    let cfg = Configuration::with_random_ids(graph, 11);
    let hint = ProverHint::with_representation(rep.expect("hinted family"));

    // On the test's own thread.
    let certifier = certifier();
    let labels = certifier.certify_with(&cfg, &hint).expect("path certifies");
    let report = certifier.verify(&cfg, &labels).expect("labels fit");
    assert!(report.accepted(), "{:?}", report.first_rejection());
    drop(labels);

    // Through a one-worker engine, whose worker keeps the default stack.
    let engine = Engine::builder()
        .certifier(certifier)
        .workers(1)
        .build()
        .expect("spec is complete");
    let mut batch = engine.run([BatchJob::new(cfg).with_hint(hint)]).batch;
    let report = batch.outcomes.remove(0).result.expect("path certifies");
    assert!(report.accepted(), "{:?}", report.first_rejection());
}
