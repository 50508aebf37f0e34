//! Quickstart: certify `bipartite ∧ (pathwidth ≤ 2)` on a ring network
//! through the builder API, then tamper with one certificate bit and
//! watch a vertex reject.
//!
//! Run with `cargo run --example quickstart`.

use lanecert_suite::algebra::{props::Bipartite, Algebra};
use lanecert_suite::graph::generators;
use lanecert_suite::{BatchJob, BatchRunner, Certifier, Configuration, Engine};

fn main() {
    // A ring of 12 processors with distinct identifiers.
    let network = generators::cycle_graph(12);
    let cfg = Configuration::with_random_ids(network, 42);

    // The scheme certifies ϕ ∧ (pathwidth ≤ k) with ϕ = bipartiteness.
    // "theorem1" is the default registry scheme; spell it out anyway.
    let certifier = Certifier::builder()
        .property(Algebra::shared(Bipartite))
        .pathwidth(2)
        .scheme("theorem1")
        .build()
        .expect("complete spec");

    // Prover: computes an optimal path decomposition, the lane layout, the
    // hierarchical decomposition, and per-edge O(log n)-bit certificates —
    // already wire-encoded.
    let labels = certifier.certify(&cfg).expect("C12 is bipartite, pw 2");
    let report = certifier.verify(&cfg, &labels).unwrap();
    assert!(report.accepted());
    println!(
        "honest run: all {} vertices accept; max label = {} bits",
        cfg.n(),
        report.max_label_bits
    );

    // Adversary: flip a single bit of one certificate on the wire.
    let mut corrupted = labels.clone();
    corrupted.flip_bit(0, 3);
    let report = certifier.verify(&cfg, &corrupted).unwrap();
    assert!(!report.accepted());
    println!(
        "tampered run: {} vertices reject (first reason: {})",
        report.reject_count(),
        report.first_rejection().unwrap_or("-")
    );

    // Scale out: the engine proves AND verifies on its worker pool by
    // default — since canonical algebra interning, class ids (and so
    // every label byte) are a pure function of the job, so the parallel
    // report is bit-identical to the sequential BatchRunner.
    let rings = |count: u64| {
        (0..count).map(|i| {
            BatchJob::new(Configuration::with_random_ids(
                generators::cycle_graph(10 + 2 * i as usize),
                i,
            ))
        })
    };
    let build = || {
        Certifier::builder()
            .property(Algebra::shared(Bipartite))
            .pathwidth(2)
            .build()
            .unwrap()
    };
    let sequential = BatchRunner::new(build()).run(rings(8));
    let engine = Engine::builder()
        .certifier(build())
        .workers(4)
        .build()
        .unwrap();
    let parallel = engine.run(rings(8));
    assert_eq!(parallel.batch, sequential);
    println!(
        "engine ({} workers, parallel prove): {}",
        engine.workers(),
        parallel.batch.summary()
    );
}
