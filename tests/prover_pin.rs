//! Label-bytes pin for the Theorem 1 prover.
//!
//! Certifies `connected`, `bipartite` and the sealed `hamiltonian-cycle`
//! at pathwidth 2 from each family's known representation, with fixed
//! graph and identifier seeds, and compares an FNV-1a digest of every
//! labeling's `(bytes, bits)` against a hard-coded value. The compiled
//! catalog formulas `connected` and `independent-set-2` are pinned the
//! same way, hintless on their witness graphs, so a change to the
//! compiler or to the freeze pass that moves a class id shows here too.
//! The parity suites compare two paths through the same prover; this
//! suite is what catches a prover rewrite that changes a single label
//! bit. FNV-1a rather than `DefaultHasher`, whose output may change
//! between Rust releases.

use lanecert_suite::algebra::{props, Algebra, SharedAlgebra};
use lanecert_suite::engine::FormulaCorpus;
use lanecert_suite::pls::compiled;
use lanecert_suite::{Certifier, Configuration, CorpusFamily, EncodedLabeling, ProverHint};

/// FNV-1a over each label's bit length (8 bytes, little endian) and then
/// its bytes, in label order.
fn digest(labels: &EncodedLabeling) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h = OFFSET;
    for label in labels.iter() {
        for &b in (label.bits as u64).to_le_bytes().iter().chain(label.bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// The pinned `connected` instances with their digests:
/// `(family, n, digest)`. Graph seed 7, identifier seed `n`.
fn connected_pins() -> Vec<(CorpusFamily, usize, u64)> {
    let pw2 = || CorpusFamily::RandomPathwidth { k: 2, density: 0.4 };
    vec![
        (CorpusFamily::Path, 512, 0x4670_aa87_9930_77dd),
        (CorpusFamily::Path, 2048, 0x9de3_2660_e9d5_b571),
        (CorpusFamily::Ladder, 512, 0xed92_cd27_5efe_80b2),
        (CorpusFamily::Ladder, 2048, 0xab41_7f07_6f09_48e4),
        (pw2(), 512, 0xf4b9_1c17_d3cc_d005),
        (pw2(), 2048, 0xdf8d_8332_83af_5295),
        (CorpusFamily::Caterpillar, 512, 0xc29c_c98e_cfb7_a34e),
        (CorpusFamily::Caterpillar, 2048, 0x80fe_82f3_5680_a8fa),
        (CorpusFamily::Cycle, 512, 0x5e7a_801c_cfd0_beed),
        (CorpusFamily::Cycle, 2048, 0xec60_371f_09ca_8374),
    ]
}

/// The pinned `bipartite` instances (bipartite families only; the
/// cycle has even length at both sizes).
fn bipartite_pins() -> Vec<(CorpusFamily, usize, u64)> {
    vec![
        (CorpusFamily::Ladder, 512, 0x1ceb_a4ff_a414_8040),
        (CorpusFamily::Ladder, 2048, 0x6256_cf31_8a22_f214),
        (CorpusFamily::Caterpillar, 512, 0xfc96_63d6_c8f2_1f63),
        (CorpusFamily::Caterpillar, 2048, 0xb1fe_bb65_58a0_6a79),
        (CorpusFamily::Cycle, 512, 0x28fc_846d_9ee8_4ddd),
        (CorpusFamily::Cycle, 2048, 0x76b2_d0b1_65ad_5aab),
    ]
}

/// The pinned `hamiltonian-cycle` instances (Hamiltonian families). The
/// table is sealed: ids past the enumerated prefix are interned in the
/// order the prover asks for them, so these digests also pin that order.
fn sealed_pins() -> Vec<(CorpusFamily, usize, u64)> {
    vec![
        (CorpusFamily::Ladder, 512, 0x403b_3816_6efa_83b5),
        (CorpusFamily::Ladder, 2048, 0x55b3_0281_80dd_ed14),
        (CorpusFamily::Cycle, 512, 0xe8a2_73f7_37f1_3641),
        (CorpusFamily::Cycle, 2048, 0xf85b_d3eb_b88b_fae4),
    ]
}

fn certifier(algebra: SharedAlgebra) -> Certifier {
    Certifier::builder()
        .property(algebra)
        .pathwidth(2)
        .build()
        .expect("theorem1 certifier")
}

/// Certifies every pinned instance and lists the ones whose digest moved.
fn mismatches(certifier: &Certifier, pins: Vec<(CorpusFamily, usize, u64)>) -> Vec<String> {
    pins.into_iter()
        .filter_map(|(family, n, want)| {
            let (graph, rep) = family.instance(n, 7);
            let cfg = Configuration::with_random_ids(graph, n as u64);
            let hint = ProverHint::with_representation(rep.expect("hinted family"));
            let labels = certifier
                .certify_with(&cfg, &hint)
                .unwrap_or_else(|e| panic!("{}/n{n}: {e}", family.name()));
            let got = digest(&labels);
            (got != want).then(|| format!("{}/n{n}: got {got:#018x}", family.name()))
        })
        .collect()
}

#[test]
fn theorem1_label_bytes_are_pinned() {
    let moved = mismatches(
        &certifier(Algebra::shared(props::Connected)),
        connected_pins(),
    );
    assert!(
        moved.is_empty(),
        "label digests moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn theorem1_bipartite_label_bytes_are_pinned() {
    let certifier = certifier(Algebra::shared(props::Bipartite));
    // A total freeze makes the wire ids, and so the digests, canonical.
    assert!(certifier.scheme().canonical_labels());
    assert_eq!(certifier.scheme().algebra_state_count(), Some(3_720));
    let moved = mismatches(&certifier, bipartite_pins());
    assert!(
        moved.is_empty(),
        "label digests moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn theorem1_sealed_label_bytes_are_pinned() {
    // A fresh sealed table per certifier, proven in a fixed instance order.
    let certifier = certifier(Algebra::shared(props::HamiltonianCycle));
    assert!(!certifier.scheme().canonical_labels());
    let moved = mismatches(&certifier, sealed_pins());
    assert!(
        moved.is_empty(),
        "label digests moved:\n{}",
        moved.join("\n")
    );
}

/// The pinned compiled instances: `(catalog formula, n, digest)` on the
/// formula's [`FormulaCorpus::witness`] graph, proven hintless with
/// identifier seed `n`.
fn compiled_pins() -> Vec<(&'static str, usize, u64)> {
    vec![
        ("connected", 64, 0xbd2b_a1b1_4c0c_4f17),
        ("connected", 256, 0x6a31_adb8_dc8f_ba8e),
        ("independent-set-2", 64, 0x60ab_5753_0b6f_91e3),
        ("independent-set-2", 256, 0xbe8c_9f8a_b61a_042b),
    ]
}

#[test]
fn compiled_label_bytes_are_pinned() {
    let mut moved = Vec::new();
    for (name, states) in [("connected", 2_809), ("independent-set-2", 12_520)] {
        let entry = compiled::standard_formula(name).expect("catalog formula");
        let certifier = Certifier::builder()
            .compiled(entry.formula())
            .build()
            .expect("compiled certifier");
        assert!(certifier.scheme().canonical_labels());
        assert_eq!(certifier.scheme().algebra_state_count(), Some(states));
        for (pin, n, want) in compiled_pins() {
            if pin != name {
                continue;
            }
            let cfg = Configuration::with_random_ids(FormulaCorpus::witness(name, n), n as u64);
            let labels = certifier
                .certify_with(&cfg, &ProverHint::auto())
                .unwrap_or_else(|e| panic!("{name}/n{n}: {e}"));
            let got = digest(&labels);
            if got != want {
                moved.push(format!("{name}/n{n}: got {got:#018x}"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "label digests moved:\n{}",
        moved.join("\n")
    );
}
