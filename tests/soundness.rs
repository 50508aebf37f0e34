//! Integration-level soundness: adversarial labelings across properties and
//! graphs must always be caught by some vertex — including malformed
//! labelings (wrong label counts), which surface as typed errors, never
//! panics.

use lanecert_suite::algebra::{props, Algebra};
use rand::rngs::StdRng;
use rand::SeedableRng;

use lanecert_suite::graph::{generators, Graph, VertexId};
use lanecert_suite::pathwidth::{solver, Interval, IntervalRep};
use lanecert_suite::pls::attacks::{self, Corruption};
use lanecert_suite::pls::theorem1::{PathwidthScheme, SchemeOptions};
use lanecert_suite::{CertError, Configuration, ProverHint, Scheme, Verdict};

#[test]
fn fuzzing_many_properties() {
    let g = generators::ladder(5);
    let (_, pd) = solver::pathwidth_exact(&g).unwrap();
    let rep = IntervalRep::from_decomposition(&pd, g.vertex_count());
    let hint = ProverHint::with_representation(rep);
    let cfg = Configuration::with_random_ids(g, 3);
    let algebras = [
        Algebra::shared(props::Connected),
        Algebra::shared(props::Bipartite),
        Algebra::shared(props::HamiltonianCycle),
        Algebra::shared(props::EvenDegrees),
    ];
    for alg in algebras {
        let scheme = PathwidthScheme::new(alg, SchemeOptions::exact_pathwidth(2));
        let Ok(labels) = scheme.prove(&cfg, &hint) else {
            continue; // property does not hold on the ladder; fine
        };
        assert!(scheme.run(&cfg, &labels).unwrap().accepted());
        let (attempted, rejected) = attacks::fuzz_scheme(&scheme, &cfg, &labels, 11, 50);
        assert!(attempted > 0);
        assert_eq!(attempted, rejected, "{}", scheme.algebra().name());
    }
}

#[test]
fn labels_from_satisfying_twin_rejected() {
    // Certify 2-colourability on C8, then present those labels on C8 with
    // one chord added (making it non-bipartite): some vertex must reject
    // because the chord edge carries no valid certificate.
    let g8 = generators::cycle_graph(8);
    let (_, pd) = solver::pathwidth_exact(&g8).unwrap();
    let rep = IntervalRep::from_decomposition(&pd, 8);
    let cfg8 = Configuration::with_sequential_ids(g8.clone());
    let scheme = PathwidthScheme::new(
        Algebra::shared(props::Bipartite),
        SchemeOptions::exact_pathwidth(2),
    );
    let labels = scheme
        .prove(&cfg8, &ProverHint::with_representation(rep))
        .unwrap();

    let mut chord = g8;
    chord
        .add_edge(
            lanecert_suite::graph::VertexId(0),
            lanecert_suite::graph::VertexId(3),
        )
        .unwrap();
    let cfg_chord = Configuration::with_sequential_ids(chord);

    // Presenting the unmodified 8-label assignment on the 9-edge graph is
    // a malformed labeling: a typed error, not a panic.
    assert_eq!(
        scheme.run(&cfg_chord, &labels).unwrap_err(),
        CertError::LabelCountMismatch {
            expected: 9,
            got: 8
        }
    );

    // The chord edge needs *some* label; replicate an existing one.
    let mut transplanted = labels;
    transplanted.push(transplanted[0].clone());
    let report = scheme.run(&cfg_chord, &transplanted).unwrap();
    assert!(!report.accepted());
}

#[test]
fn every_single_label_is_load_bearing() {
    // Dropping any one edge's frames (replacing the label with another
    // edge's) must always be detected somewhere.
    let g = generators::cycle_graph(6);
    let (_, pd) = solver::pathwidth_exact(&g).unwrap();
    let rep = IntervalRep::from_decomposition(&pd, 6);
    let cfg = Configuration::with_random_ids(g, 1);
    let scheme = PathwidthScheme::new(
        Algebra::shared(props::Connected),
        SchemeOptions::exact_pathwidth(2),
    );
    let labels = scheme
        .prove(&cfg, &ProverHint::with_representation(rep))
        .unwrap();
    for i in 0..labels.len() {
        for j in 0..labels.len() {
            if i == j {
                continue;
            }
            let mut mutated = labels.clone();
            mutated[i] = labels[j].clone();
            let report = scheme.run(&cfg, &mutated).unwrap();
            assert!(!report.accepted(), "copying label {j} over {i} accepted");
        }
    }
}

#[test]
fn splice_attack_threshold_tracks_log_n() {
    // The toy path-vs-cycle scheme needs ≥ log2(n) bits: threshold moves up
    // with n.
    let t40 = (2..=9u8).find(|&b| attacks::splice_attack(40, b).is_none());
    let t200 = (2..=9u8).find(|&b| attacks::splice_attack(200, b).is_none());
    assert!(t40.unwrap() < t200.unwrap());
}

/// A double star with `m` leaves per hub under a width-3 hint that
/// alternates the two hubs' leaves: every virtual completion edge of the
/// default lane strategy then crosses the hub-hub edge, whose endpoints
/// each see about `2m` incident certificates in as many members.
fn double_star(m: usize) -> (Graph, IntervalRep) {
    let mut g = Graph::new(2 + 2 * m);
    let v = VertexId::new;
    g.add_edge(v(0), v(1)).unwrap();
    let mut intervals = vec![Interval::new(0, 2 * m as u32); 2];
    for i in 0..m {
        g.add_edge(v(0), v(2 + 2 * i)).unwrap();
        g.add_edge(v(1), v(3 + 2 * i)).unwrap();
        intervals.push(Interval::new(2 * i as u32, 2 * i as u32));
        intervals.push(Interval::new(2 * i as u32 + 1, 2 * i as u32 + 1));
    }
    (g, IntervalRep::new(intervals))
}

#[test]
fn congested_double_star_verifies_and_rejects_every_corruption() {
    let (g, rep) = double_star(1024);
    let cfg = Configuration::with_random_ids(g, 11);
    let scheme = PathwidthScheme::new(
        Algebra::shared(props::Connected),
        SchemeOptions::exact_pathwidth(2),
    );
    let labels = scheme
        .prove(&cfg, &ProverHint::with_representation(rep))
        .unwrap();
    assert!(scheme.run(&cfg, &labels).unwrap().accepted());
    let kinds = [
        Corruption::SwapLabels,
        Corruption::CloneLabel,
        Corruption::FlipMark,
        Corruption::BumpClass,
        Corruption::HugeClass,
        Corruption::DropTransits,
        Corruption::InflateTransits,
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(i as u64);
        let bad = attacks::corrupt(&labels, kind, &mut rng).unwrap();
        let report = scheme.run(&cfg, &bad).unwrap();
        assert!(!report.accepted(), "{kind:?} accepted");
    }
    // A duplicated record is caught on its edge: a virtual endpoint sees
    // a second path edge, an inner vertex a third record.
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(seed);
        let bad = attacks::corrupt(&labels, Corruption::InflateTransits, &mut rng).unwrap();
        let report = scheme.run(&cfg, &bad).unwrap();
        let reasons: Vec<&str> = report
            .verdicts
            .iter()
            .filter_map(|v| match v {
                Verdict::Reject(reason) => Some(reason.as_str()),
                Verdict::Accept => None,
            })
            .collect();
        assert!(
            !reasons.is_empty(),
            "seed {seed}: inflated transits accepted"
        );
        assert!(
            reasons.iter().all(|r| [
                "virtual endpoint sees multiple path edges",
                "path transit without two consecutive edges"
            ]
            .contains(r)),
            "seed {seed}: {reasons:?}"
        );
    }
}
