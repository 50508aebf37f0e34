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
//!
//! Every pin also keeps the digest of the same labels in wire format 1,
//! the format before interface lanes were implied and repeated ids
//! became back-references. `format1_reencoding_reproduces_the_format1_digests`
//! decodes each labeling and re-encodes it in format 1: matching those
//! digests shows that the format change left the labels' content alone.

use lanecert_suite::algebra::{props, Algebra, SharedAlgebra};
use lanecert_suite::engine::FormulaCorpus;
use lanecert_suite::pls::compiled;
use lanecert_suite::pls::theorem1::EdgeLabel;
use lanecert_suite::{Certifier, Configuration, CorpusFamily, EncodedLabeling, ProverHint};

/// FNV-1a over each label's bit length (8 bytes, little endian) and then
/// its bytes, in label order.
fn fnv<'a>(labels: impl IntoIterator<Item = (usize, &'a [u8])>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h = OFFSET;
    for (bits, bytes) in labels {
        for &b in (bits as u64).to_le_bytes().iter().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// The digest of a labeling's wire bytes.
fn digest(labels: &EncodedLabeling) -> u64 {
    fnv(labels.iter().map(|l| (l.bits, l.bytes)))
}

/// The digest of a labeling decoded and re-encoded in format 1.
fn format1_digest(labels: &EncodedLabeling) -> u64 {
    let wire: Vec<(Vec<u8>, usize)> = labels
        .iter()
        .map(|l| format1::label(&l.decode::<EdgeLabel>().expect("honest labels decode")))
        .collect();
    fnv(wire.iter().map(|(bytes, bits)| (*bits, bytes.as_slice())))
}

/// Wire format 1 of Theorem 1 labels: every number a nibble-varint,
/// every flag one bit, every list length-prefixed, frame tags two bits,
/// and interface sides as `(lane, id)` pairs.
mod format1 {
    use lanecert_suite::pls::bits::BitWriter;
    use lanecert_suite::pls::theorem1::labels::{
        BasicInfoLbl, EdgeCertLbl, EdgeLabel, FrameLbl, IfaceLbl,
    };

    fn iface(w: &mut BitWriter, iface: &IfaceLbl) {
        w.put_varint(iface.lanes.0);
        for side in [&iface.tin, &iface.tout] {
            w.put_varint(side.len() as u64);
            for &(lane, id) in side.iter() {
                w.put_varint(u64::from(lane));
                w.put_varint(id);
            }
        }
    }

    fn info(w: &mut BitWriter, info: &BasicInfoLbl) {
        w.put_varint(u64::from(info.node));
        w.put_varint(u64::from(info.class));
        iface(w, &info.iface);
    }

    fn frame(w: &mut BitWriter, frame: &FrameLbl) {
        match frame {
            FrameLbl::T(f) => {
                w.put_bits(0, 2);
                w.put_varint(u64::from(f.t_node));
                w.put_varint(u64::from(f.member));
                info(w, &f.subtree);
                w.put_varint(f.children.len() as u64);
                for child in &f.children {
                    info(w, child);
                }
                w.put_bit(f.is_root_member);
                w.put_varint(f.root_vertex);
                w.put_varint(u64::from(f.d_a));
                w.put_varint(u64::from(f.d_b));
            }
            FrameLbl::B(f) => {
                w.put_bits(1, 2);
                w.put_varint(u64::from(f.node));
                w.put_varint(u64::from(f.i));
                w.put_varint(u64::from(f.j));
                w.put_bit(f.left_is_v);
                w.put_bit(f.right_is_v);
                info(w, &f.left);
                info(w, &f.right);
                w.put_bit(f.bridge_marked);
                w.put_varint(u64::from(f.side));
            }
            FrameLbl::E(f) => {
                w.put_bits(2, 2);
                w.put_varint(u64::from(f.node));
                w.put_varint(u64::from(f.lane));
                w.put_varint(f.tin);
                w.put_varint(f.tout);
            }
            FrameLbl::P(f) => {
                w.put_bits(3, 2);
                w.put_varint(u64::from(f.node));
                w.put_varint(f.ids.len() as u64);
                for &id in f.ids.iter() {
                    w.put_varint(id);
                }
                w.put_varint(f.marks.len() as u64);
                for &mark in f.marks.iter() {
                    w.put_bit(mark);
                }
                w.put_varint(u64::from(f.pos));
            }
        }
    }

    fn cert(w: &mut BitWriter, cert: &EdgeCertLbl) {
        w.put_varint(cert.a);
        w.put_varint(cert.b);
        w.put_bit(cert.marked);
        w.put_varint(cert.frames.len() as u64);
        for f in &cert.frames {
            frame(w, f);
        }
    }

    /// A label's format-1 bytes and bit length.
    pub fn label(label: &EdgeLabel) -> (Vec<u8>, usize) {
        let mut w = BitWriter::new();
        cert(&mut w, &label.own);
        w.put_varint(label.transits.len() as u64);
        for t in &label.transits {
            w.put_varint(u64::from(t.rank_fwd));
            w.put_varint(u64::from(t.rank_bwd));
            cert(&mut w, &t.cert);
        }
        let bits = w.bit_len();
        (w.into_bytes(), bits)
    }
}

/// A pinned instance: `(family, n, digest, format-1 digest)`.
type Pin = (CorpusFamily, usize, u64, u64);

/// The pinned `connected` instances. Graph seed 7, identifier seed `n`.
fn connected_pins() -> Vec<Pin> {
    use CorpusFamily::*;
    let pw2 = || RandomPathwidth { k: 2, density: 0.4 };
    vec![
        (Path, 512, 0x7598_2ad7_c7a6_3b79, 0x4670_aa87_9930_77dd),
        (Path, 2048, 0x90ba_30b0_cb01_f38a, 0x9de3_2660_e9d5_b571),
        (Ladder, 512, 0x47c1_35c0_dbff_3205, 0xed92_cd27_5efe_80b2),
        (Ladder, 2048, 0x88e5_357f_9ef9_2b62, 0xab41_7f07_6f09_48e4),
        (pw2(), 512, 0xec73_f0e5_7918_859b, 0xf4b9_1c17_d3cc_d005),
        (pw2(), 2048, 0x4629_81c8_9145_b6e3, 0xdf8d_8332_83af_5295),
        (
            Caterpillar,
            512,
            0x0ca0_fa1f_481b_80c3,
            0xc29c_c98e_cfb7_a34e,
        ),
        (
            Caterpillar,
            2048,
            0xa0fa_c9eb_68d0_1367,
            0x80fe_82f3_5680_a8fa,
        ),
        (Cycle, 512, 0x08b5_b2b3_25b7_7194, 0x5e7a_801c_cfd0_beed),
        (Cycle, 2048, 0x7a25_a08c_e73d_5620, 0xec60_371f_09ca_8374),
    ]
}

/// The pinned `bipartite` instances (bipartite families only; the
/// cycle has even length at both sizes).
fn bipartite_pins() -> Vec<Pin> {
    use CorpusFamily::*;
    vec![
        (Ladder, 512, 0xcd49_fe55_088c_b709, 0x1ceb_a4ff_a414_8040),
        (Ladder, 2048, 0xef27_46d5_e6ae_c8d1, 0x6256_cf31_8a22_f214),
        (
            Caterpillar,
            512,
            0x129a_1d1a_bb0b_1763,
            0xfc96_63d6_c8f2_1f63,
        ),
        (
            Caterpillar,
            2048,
            0x6b3c_4648_1cb8_8b0f,
            0xb1fe_bb65_58a0_6a79,
        ),
        (Cycle, 512, 0x6704_0cc9_2f2c_7ecf, 0x28fc_846d_9ee8_4ddd),
        (Cycle, 2048, 0x5d06_bcbd_81af_8053, 0x76b2_d0b1_65ad_5aab),
    ]
}

/// The pinned `hamiltonian-cycle` instances (Hamiltonian families). The
/// table is sealed: ids past the enumerated prefix are interned in the
/// order the prover asks for them, so these digests also pin that order.
fn sealed_pins() -> Vec<Pin> {
    use CorpusFamily::*;
    vec![
        (Ladder, 512, 0x3255_ac34_c3e2_f278, 0x403b_3816_6efa_83b5),
        (Ladder, 2048, 0x16ad_2949_df17_85b5, 0x55b3_0281_80dd_ed14),
        (Cycle, 512, 0x80c1_00e9_2321_cc9f, 0xe8a2_73f7_37f1_3641),
        (Cycle, 2048, 0xbe16_0f33_9293_ff78, 0xf85b_d3eb_b88b_fae4),
    ]
}

fn certifier(algebra: SharedAlgebra) -> Certifier {
    Certifier::builder()
        .property(algebra)
        .pathwidth(2)
        .build()
        .expect("theorem1 certifier")
}

/// Certifies every pinned instance and lists the ones whose digest moved:
/// the wire digest, or with `format1` the format-1 digest.
fn mismatches(certifier: &Certifier, pins: Vec<Pin>, format1: bool) -> Vec<String> {
    pins.into_iter()
        .filter_map(|(family, n, want, want1)| {
            let (graph, rep) = family.instance(n, 7);
            let cfg = Configuration::with_random_ids(graph, n as u64);
            let hint = ProverHint::with_representation(rep.expect("hinted family"));
            let labels = certifier
                .certify_with(&cfg, &hint)
                .unwrap_or_else(|e| panic!("{}/n{n}: {e}", family.name()));
            let (got, want) = if format1 {
                (format1_digest(&labels), want1)
            } else {
                (digest(&labels), want)
            };
            (got != want).then(|| format!("{}/n{n}: got {got:#018x}", family.name()))
        })
        .collect()
}

#[test]
fn theorem1_label_bytes_are_pinned() {
    let moved = mismatches(
        &certifier(Algebra::shared(props::Connected)),
        connected_pins(),
        false,
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
    let moved = mismatches(&certifier, bipartite_pins(), false);
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
    let moved = mismatches(&certifier, sealed_pins(), false);
    assert!(
        moved.is_empty(),
        "label digests moved:\n{}",
        moved.join("\n")
    );
}

/// The pinned compiled instances: `(catalog formula, n, digest, format-1
/// digest)` on the
/// formula's [`FormulaCorpus::witness`] graph, proven hintless with
/// identifier seed `n`.
fn compiled_pins() -> Vec<(&'static str, usize, u64, u64)> {
    vec![
        (
            "connected",
            64,
            0xfd66_b328_1e5e_d772,
            0xbd2b_a1b1_4c0c_4f17,
        ),
        (
            "connected",
            256,
            0x95b7_5e68_cb4a_a838,
            0x6a31_adb8_dc8f_ba8e,
        ),
        (
            "independent-set-2",
            64,
            0x56d3_0fa6_6730_00b3,
            0x60ab_5753_0b6f_91e3,
        ),
        (
            "independent-set-2",
            256,
            0x4872_374e_bf33_aba0,
            0xbe8c_9f8a_b61a_042b,
        ),
    ]
}

/// Certifies every pinned compiled instance and lists the ones whose
/// digest moved (see [`mismatches`]).
fn compiled_mismatches(format1: bool) -> Vec<String> {
    let mut moved = Vec::new();
    for (name, states) in [("connected", 2_809), ("independent-set-2", 12_520)] {
        let entry = compiled::standard_formula(name).expect("catalog formula");
        let certifier = Certifier::builder()
            .compiled(entry.formula())
            .build()
            .expect("compiled certifier");
        assert!(certifier.scheme().canonical_labels());
        assert_eq!(certifier.scheme().algebra_state_count(), Some(states));
        for (pin, n, want, want1) in compiled_pins() {
            if pin != name {
                continue;
            }
            let cfg = Configuration::with_random_ids(FormulaCorpus::witness(name, n), n as u64);
            let labels = certifier
                .certify_with(&cfg, &ProverHint::auto())
                .unwrap_or_else(|e| panic!("{name}/n{n}: {e}"));
            let (got, want) = if format1 {
                (format1_digest(&labels), want1)
            } else {
                (digest(&labels), want)
            };
            if got != want {
                moved.push(format!("{name}/n{n}: got {got:#018x}"));
            }
        }
    }
    moved
}

#[test]
fn compiled_label_bytes_are_pinned() {
    let moved = compiled_mismatches(false);
    assert!(
        moved.is_empty(),
        "label digests moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn format1_reencoding_reproduces_the_format1_digests() {
    let mut moved = mismatches(
        &certifier(Algebra::shared(props::Connected)),
        connected_pins(),
        true,
    );
    moved.extend(mismatches(
        &certifier(Algebra::shared(props::Bipartite)),
        bipartite_pins(),
        true,
    ));
    // A fresh sealed table, proven in the pinned order as above.
    moved.extend(mismatches(
        &certifier(Algebra::shared(props::HamiltonianCycle)),
        sealed_pins(),
        true,
    ));
    moved.extend(compiled_mismatches(true));
    assert!(
        moved.is_empty(),
        "format-1 digests moved:\n{}",
        moved.join("\n")
    );
}
