//! The object-safe erased layer over [`Scheme`]: schemes operating on
//! encoded byte labels.
//!
//! A typed [`Scheme`] fixes its label format at compile time, which is
//! what the per-scheme provers and verifiers want — but the builder,
//! engine, and batch runners need to hold *many* schemes behind one
//! type. [`DynScheme`] erases the label type by moving the wire encoding
//! to the boundary: provers emit [`EncodedLabeling`]s (raw bytes + exact
//! bit counts), verifiers decode per edge and reject undecodable labels,
//! exactly as the typed harness does. A blanket impl makes every
//! `Scheme` a `DynScheme`, and [`BoxedScheme`] is the unit of currency of
//! the [`Certifier`](crate::Certifier).
//!
//! # Memory layout
//!
//! An [`EncodedLabeling`] is **one contiguous byte buffer** plus an
//! offsets table — not a `Vec` of per-label allocations:
//!
//! ```text
//! buf:     [ label 0 bytes | label 1 bytes | ... | label m-1 bytes ]
//! offsets: [ 0, end0, end1, ..., end(m-1) ]      (m + 1 entries)
//! bits:    [ exact bit length per label ]        (m entries)
//! ```
//!
//! Label `e` is the borrowed slice `buf[offsets[e]..offsets[e+1]]`,
//! handed out as an [`EncodedLabelRef`] — verification never copies label
//! bytes, and the erased prover writes all labels through one reused
//! [`BitWriter`] straight into the buffer. A scheme that can emit wire
//! labels without building typed ones overrides
//! [`Scheme::prove_encoded`]; the Theorem 1 scheme does, and its typed
//! prover decodes those bytes.
//!
//! The erased path is bit-identical to the typed path: encoding happens
//! with the same [`Enc`] impls, so verdicts and label-size statistics
//! agree between `scheme.run(...)` and
//! `(&scheme as &dyn DynScheme).verify_encoded(...)` (property-tested in
//! `tests/erased_parity.rs` and `tests/csr_parity.rs`).

use lanecert_graph::{CsrGraph, VertexId};

use crate::bits::{self, BitWriter, Enc};
use crate::scheme::{ProverHint, RunReport, Scheme, Verdict, VertexView};
use crate::{CertError, Configuration};

/// One label on the wire: its byte image and exact bit length, **owned**.
///
/// This is the construction/tampering currency: hand-built corpora and
/// adversarial tests build `EncodedLabel`s and splice them into an
/// [`EncodedLabeling`] with [`EncodedLabeling::set`]. The verification
/// hot path never materialises these — it reads borrowed
/// [`EncodedLabelRef`]s out of the shared buffer instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedLabel {
    /// The encoded bytes (last byte zero-padded past `bits`).
    pub bytes: Vec<u8>,
    /// Exact encoded size in bits.
    pub bits: usize,
}

impl EncodedLabel {
    /// Encodes a typed label.
    pub fn of<L: Enc>(label: &L) -> Self {
        let (bytes, bits) = bits::encode(label);
        Self { bytes, bits }
    }

    /// Decodes back to a typed label; `None` on malformed bytes.
    pub fn decode<L: Enc>(&self) -> Option<L> {
        bits::decode::<L>(&self.bytes)
    }

    /// `true` when the claimed bit length matches the byte image the way
    /// the encoder produces it (`bytes.len() == ceil(bits / 8)`). Both
    /// fields are adversary-controlled, so the erased verifier treats
    /// non-canonical labels as undecodable and measures their size from
    /// the byte image rather than the claim.
    pub fn is_canonical(&self) -> bool {
        self.bytes.len() == self.bits.div_ceil(8)
    }

    /// The label's wire size in bits: the claimed `bits` when canonical,
    /// otherwise the full byte image (so a label cannot under-report its
    /// size by lying about `bits`).
    pub fn measured_bits(&self) -> usize {
        if self.is_canonical() {
            self.bits
        } else {
            self.bytes.len() * 8
        }
    }

    /// Flips one payload bit (adversary helper). Positions outside the
    /// byte image (including ones a lying `bits` field would claim) are
    /// ignored so fuzzers can pick blindly without panicking.
    pub fn flip_bit(&mut self, pos: usize) {
        if pos < self.bits && pos / 8 < self.bytes.len() {
            self.bytes[pos / 8] ^= 1 << (pos % 8);
        }
    }
}

/// A borrowed view of one label inside an [`EncodedLabeling`]'s shared
/// buffer: the zero-copy counterpart of [`EncodedLabel`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EncodedLabelRef<'a> {
    /// The label's byte image — a slice of the labeling's buffer.
    pub bytes: &'a [u8],
    /// The claimed exact bit length.
    pub bits: usize,
}

impl EncodedLabelRef<'_> {
    /// Decodes to a typed label; `None` on malformed bytes.
    pub fn decode<L: Enc>(&self) -> Option<L> {
        bits::decode::<L>(self.bytes)
    }

    /// Decodes only canonical labels (see [`EncodedLabel::is_canonical`])
    /// whose decode ends exactly at the claimed bit length
    /// ([`bits::decode_exact`]); other labels are treated as
    /// undecodable, exactly as the erased verifier does.
    pub fn decode_canonical<L: Enc>(&self) -> Option<L> {
        if self.is_canonical() {
            bits::decode_exact(self.bytes, self.bits)
        } else {
            None
        }
    }

    /// See [`EncodedLabel::is_canonical`].
    pub fn is_canonical(&self) -> bool {
        self.bytes.len() == self.bits.div_ceil(8)
    }

    /// See [`EncodedLabel::measured_bits`].
    pub fn measured_bits(&self) -> usize {
        if self.is_canonical() {
            self.bits
        } else {
            self.bytes.len() * 8
        }
    }

    /// Copies out an owned [`EncodedLabel`].
    pub fn to_label(&self) -> EncodedLabel {
        EncodedLabel {
            bytes: self.bytes.to_vec(),
            bits: self.bits,
        }
    }
}

/// The offsets-table entry of a label ending at byte `end` of the
/// buffer. Offsets are `u32`, so a buffer past 4 GiB is refused.
fn label_end(end: usize) -> Result<u32, CertError> {
    u32::try_from(end).map_err(|_| {
        CertError::Internal(format!(
            "label buffer of {end} bytes exceeds the 4 GiB limit of its u32 offsets"
        ))
    })
}

/// An erased labeling: one encoded label per edge in **one contiguous
/// buffer** (see the [module docs](self) for the layout), optionally
/// stamped with the [`Scheme::fingerprint`] of the scheme that produced
/// it (the erased prover always stamps; hand-built labelings may leave it
/// off, in which case verification skips the check).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedLabeling {
    /// All label bytes, concatenated in edge order.
    buf: Vec<u8>,
    /// `m + 1` prefix sums: label `e` is `buf[offsets[e]..offsets[e+1]]`.
    offsets: Vec<u32>,
    /// Claimed exact bit length per label.
    bits: Vec<usize>,
    fingerprint: Option<u64>,
}

impl Default for EncodedLabeling {
    fn default() -> Self {
        Self {
            buf: Vec::new(),
            offsets: vec![0],
            bits: Vec::new(),
            fingerprint: None,
        }
    }
}

impl EncodedLabeling {
    /// Packs per-edge encoded labels into the contiguous layout (no
    /// fingerprint recorded).
    pub fn new(labels: Vec<EncodedLabel>) -> Self {
        let mut out = Self::default();
        out.buf.reserve(labels.iter().map(|l| l.bytes.len()).sum());
        out.offsets.reserve(labels.len());
        out.bits.reserve(labels.len());
        for label in &labels {
            out.push_raw(&label.bytes, label.bits);
        }
        out
    }

    /// Encodes a typed label slice straight into the shared buffer: one
    /// reused [`BitWriter`], zero per-label allocations (no fingerprint
    /// recorded).
    ///
    /// # Panics
    ///
    /// Panics if the buffer outgrows its `u32` offsets (4 GiB);
    /// [`Scheme::prove_encoded`] reports that as an error instead.
    pub fn encode<L: Enc>(labels: &[L]) -> Self {
        // lint: allow(no-panic) reason="infallible signature kept for callers; provers use try_encode"
        Self::try_encode(labels).expect("label buffer overflow")
    }

    /// [`EncodedLabeling::encode`], refusing a buffer past its 4 GiB
    /// offset limit with [`CertError::Internal`].
    pub(crate) fn try_encode<L: Enc>(labels: &[L]) -> Result<Self, CertError> {
        let mut out = Self::default();
        out.offsets.reserve(labels.len());
        out.bits.reserve(labels.len());
        let mut w = BitWriter::new();
        for label in labels {
            label.enc(&mut w);
            out.push_flushed(&mut w)?;
        }
        Ok(out)
    }

    /// Appends the label written into `w` (and resets `w`): the prover's
    /// way into the buffer, one label at a time.
    pub(crate) fn push_flushed(&mut self, w: &mut BitWriter) -> Result<(), CertError> {
        let bits = w.flush_into(&mut self.buf);
        self.offsets.push(label_end(self.buf.len())?);
        self.bits.push(bits);
        Ok(())
    }

    fn push_raw(&mut self, bytes: &[u8], bits: usize) {
        self.buf.extend_from_slice(bytes);
        // lint: allow(no-panic) reason="packs already-built labels; their total size was addressable when they were built"
        self.offsets
            .push(label_end(self.buf.len()).expect("label buffer overflow"));
        self.bits.push(bits);
    }

    /// Records the producing scheme's fingerprint (see
    /// [`Scheme::fingerprint`]).
    pub fn with_fingerprint(mut self, fingerprint: u64) -> Self {
        self.fingerprint = Some(fingerprint);
        self
    }

    /// The recorded scheme fingerprint, if any.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` when there are no labels.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Borrows label `i` out of the shared buffer (zero-copy).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> EncodedLabelRef<'_> {
        EncodedLabelRef {
            bytes: &self.buf[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            bits: self.bits[i],
        }
    }

    /// Iterates over borrowed labels in edge order.
    pub fn iter(&self) -> impl Iterator<Item = EncodedLabelRef<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Copies the labels back out as owned values (tests and corpora that
    /// want to rebuild or tamper wholesale).
    pub fn to_vec(&self) -> Vec<EncodedLabel> {
        self.iter().map(|l| l.to_label()).collect()
    }

    /// Replaces label `i` (adversary helper): splices the new byte image
    /// into the buffer and shifts the offsets table.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, label: &EncodedLabel) {
        let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        let old_len = end - start;
        self.buf.splice(start..end, label.bytes.iter().copied());
        if label.bytes.len() != old_len {
            let delta = label.bytes.len() as i64 - old_len as i64;
            for off in &mut self.offsets[i + 1..] {
                // lint: allow(no-panic) reason="test/adversary splice helper, never on the verify path"
                *off = u32::try_from(i64::from(*off) + delta).expect("label buffer overflow");
            }
        }
        self.bits[i] = label.bits;
    }

    /// Flips one payload bit of label `i` in place (adversary helper);
    /// positions outside the label's byte image are ignored, as in
    /// [`EncodedLabel::flip_bit`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn flip_bit(&mut self, i: usize, pos: usize) {
        let start = self.offsets[i] as usize;
        let len = self.offsets[i + 1] as usize - start;
        if pos < self.bits[i] && pos / 8 < len {
            self.buf[start + pos / 8] ^= 1 << (pos % 8);
        }
    }

    /// Maximum label size in bits ([`EncodedLabel::measured_bits`], so
    /// adversarial labelings cannot under-report their sizes).
    pub fn max_bits(&self) -> usize {
        self.iter().map(|l| l.measured_bits()).max().unwrap_or(0)
    }

    /// Total label bits ([`EncodedLabel::measured_bits`] per label).
    pub fn total_bits(&self) -> usize {
        self.iter().map(|l| l.measured_bits()).sum()
    }
}

/// An object-safe proof labeling scheme over encoded byte labels.
///
/// Obtained from any typed [`Scheme`] via the blanket impl; boxed as
/// [`BoxedScheme`] for registries and batch runners. `Send + Sync` are
/// supertraits: every vertex verifies from its local view alone, so
/// erased schemes are shareable across threads by construction — the
/// `lanecert-engine` pipeline relies on it.
pub trait DynScheme: Send + Sync {
    /// Registry/display name of the scheme instance.
    fn name(&self) -> String;

    /// The scheme's label-format digest (see [`Scheme::fingerprint`]).
    fn fingerprint(&self) -> u64;

    /// Canonically interned algebra states backing the labels, when the
    /// scheme has such a table (see [`Scheme::algebra_state_count`]).
    fn algebra_state_count(&self) -> Option<usize>;

    /// Whether labels are a pure function of `(graph, hint)` (see
    /// [`Scheme::canonical_labels`]).
    fn canonical_labels(&self) -> bool;

    /// Honest certificate assignment, already wire-encoded
    /// ([`Scheme::prove_encoded`]).
    ///
    /// # Errors
    ///
    /// Prover refusals and hint failures; see [`CertError`].
    fn prove_encoded(
        &self,
        cfg: &Configuration,
        hint: &ProverHint,
    ) -> Result<EncodedLabeling, CertError>;

    /// Runs the verifier at every vertex against encoded (possibly
    /// adversarial) labels.
    ///
    /// Equivalent to [`DynScheme::verify_encoded_range`] over the full
    /// vertex range plus the labeling's size statistics, and subject to
    /// the same hot-path invariants.
    ///
    /// # Errors
    ///
    /// [`CertError::LabelCountMismatch`] when `labels` has the wrong
    /// length for `cfg`.
    fn verify_encoded(
        &self,
        cfg: &Configuration,
        labels: &EncodedLabeling,
    ) -> Result<RunReport, CertError>;

    /// Runs the verifier at the contiguous vertex slice
    /// `range.start..range.end` only, returning one verdict per vertex in
    /// index order — the sharding primitive behind the engine's
    /// per-vertex fan-out. A vertex's view (and therefore its verdict) is
    /// bit-identical to the full [`DynScheme::verify_encoded`] pass.
    ///
    /// # Hot-path invariants
    ///
    /// The blanket implementation streams the configuration's CSR arena
    /// ([`Configuration::csr`]) and upholds two invariants the throughput
    /// benchmarks (`mem_stats`) measure:
    ///
    /// * **Decode once per shard.** Each edge label incident to the range
    ///   is decoded at most once — *not* once per endpoint. Both
    ///   endpoints of an in-range edge borrow the same arena slot, and
    ///   label bytes are read in place from the labeling's shared buffer
    ///   ([`EncodedLabelRef`]), never copied.
    /// * **No allocations in the per-vertex loop.** The verify loop reuses
    ///   one scratch slice of label references, sized once from the CSR
    ///   arena's max degree; all decode work (the only part that may
    ///   allocate, for labels with heap payloads) happens in the decode
    ///   pass before the loop.
    ///
    /// `range` is clamped to the vertex count.
    ///
    /// # Errors
    ///
    /// [`CertError::LabelCountMismatch`] when `labels` has the wrong
    /// length for `cfg`.
    fn verify_encoded_range(
        &self,
        cfg: &Configuration,
        labels: &EncodedLabeling,
        range: std::ops::Range<usize>,
    ) -> Result<Vec<Verdict>, CertError>;
}

/// Rejects labelings recorded under a different scheme fingerprint (see
/// [`CertError::FingerprintMismatch`]); unstamped labelings pass.
fn check_fingerprint<S: Scheme + Send + Sync>(
    scheme: &S,
    labels: &EncodedLabeling,
) -> Result<(), CertError> {
    if let Some(got) = labels.fingerprint() {
        let expected = Scheme::fingerprint(scheme);
        if got != expected {
            return Err(CertError::FingerprintMismatch { expected, got });
        }
    }
    Ok(())
}

/// The shared shard body: decode pass (each incident edge label decoded
/// at most once, straight from the shared buffer) followed by the
/// allocation-free verify loop. See the invariants documented on
/// [`DynScheme::verify_encoded_range`].
fn verify_span<S: Scheme + Send + Sync>(
    scheme: &S,
    cfg: &Configuration,
    g: &CsrGraph,
    labels: &EncodedLabeling,
    lo: usize,
    hi: usize,
) -> Vec<Verdict> {
    // Decode pass. `arena[e]` is `None` until edge `e` is first touched,
    // then `Some(decode result)` — endpoints inside the span share it.
    // The per-span decode tallies feed the obs counters after the loop;
    // `COMPILED` is a const, so uninstrumented builds fold all of this
    // away (and the zero-alloc region below is untouched either way).
    let (mut decoded, mut bytes_read) = (0u64, 0u64);
    let mut arena: Vec<Option<Option<S::Label>>> = (0..g.edge_count()).map(|_| None).collect();
    for v in lo..hi {
        for h in g.incident(VertexId::new(v)) {
            let e = h.edge.index();
            if arena[e].is_none() {
                let raw = labels.get(e);
                if lanecert_obs::COMPILED {
                    decoded += 1;
                    bytes_read += raw.bytes.len() as u64;
                }
                arena[e] = Some(raw.decode_canonical::<S::Label>());
            }
        }
    }
    if lanecert_obs::COMPILED && decoded > 0 {
        lanecert_obs::counter_add(lanecert_obs::names::LABELS_DECODED, decoded);
        lanecert_obs::counter_add(lanecert_obs::names::LABEL_BYTES_READ, bytes_read);
    }
    // Verify loop: reuses one scratch slice; views borrow from the arena.
    // An arena slot the decode pass somehow missed reads as an undecodable
    // label — a rejection, never a panic (adversarial bytes flow here).
    let mut scratch: Vec<Option<&S::Label>> = Vec::with_capacity(g.max_degree());
    // lint: zero-alloc {
    let verdicts = (lo..hi)
        .map(|v| {
            let v = VertexId::new(v);
            scratch.clear();
            scratch.extend(
                g.incident(v)
                    .iter()
                    .map(|h| arena[h.edge.index()].as_ref().and_then(|d| d.as_ref())),
            );
            scheme.verify_at(&VertexView {
                id: cfg.id_of(v),
                incident: &scratch,
            })
        })
        .collect();
    // lint: }
    // The Theorem 1 transition memo's tallies for this call (none for
    // other schemes).
    crate::theorem1::summary::flush_memo_counters();
    verdicts
}

impl<S: Scheme + Send + Sync> DynScheme for S {
    fn name(&self) -> String {
        Scheme::name(self)
    }

    fn fingerprint(&self) -> u64 {
        Scheme::fingerprint(self)
    }

    fn algebra_state_count(&self) -> Option<usize> {
        Scheme::algebra_state_count(self)
    }

    fn canonical_labels(&self) -> bool {
        Scheme::canonical_labels(self)
    }

    fn prove_encoded(
        &self,
        cfg: &Configuration,
        hint: &ProverHint,
    ) -> Result<EncodedLabeling, CertError> {
        Scheme::prove_encoded(self, cfg, hint)
    }

    fn verify_encoded(
        &self,
        cfg: &Configuration,
        labels: &EncodedLabeling,
    ) -> Result<RunReport, CertError> {
        check_fingerprint(self, labels)?;
        let g = cfg.csr();
        if labels.len() != g.edge_count() {
            return Err(CertError::LabelCountMismatch {
                expected: g.edge_count(),
                got: labels.len(),
            });
        }
        Ok(RunReport {
            verdicts: verify_span(self, cfg, g, labels, 0, g.vertex_count()),
            max_label_bits: labels.max_bits(),
            total_label_bits: labels.total_bits(),
            edges: g.edge_count(),
        })
    }

    fn verify_encoded_range(
        &self,
        cfg: &Configuration,
        labels: &EncodedLabeling,
        range: std::ops::Range<usize>,
    ) -> Result<Vec<Verdict>, CertError> {
        check_fingerprint(self, labels)?;
        let g = cfg.csr();
        if labels.len() != g.edge_count() {
            return Err(CertError::LabelCountMismatch {
                expected: g.edge_count(),
                got: labels.len(),
            });
        }
        let lo = range.start.min(g.vertex_count());
        let hi = range.end.min(g.vertex_count());
        Ok(verify_span(self, cfg, g, labels, lo, hi))
    }
}

/// A heap-allocated erased scheme — the builder's unit of
/// currency. `Send + Sync` come from the [`DynScheme`] supertraits.
pub type BoxedScheme = Box<dyn DynScheme>;

#[cfg(test)]
mod tests {
    use super::*;
    use lanecert_graph::generators;

    /// A toy scheme for harness tests: each edge carries `7u64`, every
    /// vertex checks all incident labels decode to 7.
    struct Sevens;

    impl Scheme for Sevens {
        type Label = u64;
        fn name(&self) -> String {
            "sevens".into()
        }
        fn prove(&self, cfg: &Configuration, _hint: &ProverHint) -> Result<Vec<u64>, CertError> {
            Ok(vec![7u64; cfg.graph().edge_count()])
        }
        fn verify_at(&self, view: &VertexView<'_, u64>) -> Verdict {
            if view.incident.iter().all(|l| *l == Some(&7)) {
                Verdict::Accept
            } else {
                Verdict::reject("not seven")
            }
        }
    }

    #[test]
    fn erased_roundtrip_matches_typed() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(5));
        let labels = Sevens.prove(&cfg, &ProverHint::auto()).unwrap();
        let typed = Sevens.run(&cfg, &labels).unwrap();
        let boxed: BoxedScheme = Box::new(Sevens);
        let enc = boxed.prove_encoded(&cfg, &ProverHint::auto()).unwrap();
        let erased = boxed.verify_encoded(&cfg, &enc).unwrap();
        assert_eq!(typed.verdicts, erased.verdicts);
        assert_eq!(typed.max_label_bits, erased.max_label_bits);
        assert_eq!(typed.total_label_bits, erased.total_label_bits);
        assert_eq!(typed.edges, erased.edges);
    }

    #[test]
    fn contiguous_layout_roundtrips() {
        // `new` (owned labels) and `encode` (typed labels) agree on the
        // packed representation, and `get`/`to_vec` read back exactly
        // what went in.
        let labels: Vec<u64> = vec![7, 0, u64::MAX, 300];
        let owned: Vec<EncodedLabel> = labels.iter().map(EncodedLabel::of).collect();
        let a = EncodedLabeling::new(owned.clone());
        let b = EncodedLabeling::encode(&labels);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.to_vec(), owned);
        for (i, l) in owned.iter().enumerate() {
            assert_eq!(a.get(i).bytes, &l.bytes[..]);
            assert_eq!(a.get(i).bits, l.bits);
            assert_eq!(a.get(i).decode::<u64>(), Some(labels[i]));
        }
    }

    #[test]
    fn label_offsets_stop_at_4_gib() {
        assert_eq!(label_end(0), Ok(0));
        assert_eq!(label_end((1 << 32) - 1), Ok(u32::MAX));
        let err = label_end(1 << 32).unwrap_err();
        assert!(
            matches!(&err, CertError::Internal(m) if m.contains("4 GiB")),
            "{err:?}"
        );
    }

    #[test]
    fn set_splices_shorter_and_longer_labels() {
        let mut enc = EncodedLabeling::encode(&[1u64, 2, 3]);
        // Replace the middle label with a longer one, then a shorter one;
        // the neighbours must be untouched both times.
        for replacement in [EncodedLabel::of(&u64::MAX), EncodedLabel::of(&0u64)] {
            enc.set(1, &replacement);
            assert_eq!(enc.get(0).decode::<u64>(), Some(1));
            assert_eq!(enc.get(1).to_label(), replacement);
            assert_eq!(enc.get(2).decode::<u64>(), Some(3));
        }
    }

    #[test]
    fn bit_flip_is_detected() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(5));
        let boxed: BoxedScheme = Box::new(Sevens);
        let mut enc = boxed.prove_encoded(&cfg, &ProverHint::auto()).unwrap();
        enc.flip_bit(0, 1);
        let report = boxed.verify_encoded(&cfg, &enc).unwrap();
        assert!(!report.accepted());
    }

    #[test]
    fn non_canonical_labels_are_rejected_and_sized_from_bytes() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(5));
        let boxed: BoxedScheme = Box::new(Sevens);
        let mut enc = boxed.prove_encoded(&cfg, &ProverHint::auto()).unwrap();
        // Lie about the size: kilobyte payload claiming one bit.
        enc.set(
            0,
            &EncodedLabel {
                bytes: vec![0xFF; 128],
                bits: 1,
            },
        );
        assert!(!enc.get(0).is_canonical());
        assert_eq!(enc.get(0).measured_bits(), 128 * 8);
        assert!(enc.max_bits() >= 128 * 8);
        let report = boxed.verify_encoded(&cfg, &enc).unwrap();
        assert!(!report.accepted());
        assert!(report.max_label_bits >= 128 * 8);
        // Flipping a bit the lying `bits` field claims but the byte image
        // lacks must not panic (owned and packed forms alike).
        let mut tiny = EncodedLabel {
            bytes: Vec::new(),
            bits: 5,
        };
        tiny.flip_bit(3);
        assert!(tiny.bytes.is_empty());
        let mut packed = EncodedLabeling::new(vec![tiny.clone()]);
        packed.flip_bit(0, 3);
        assert_eq!(packed.get(0).to_label(), tiny);
    }

    #[test]
    fn range_verify_matches_full_pass() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(9));
        let boxed: BoxedScheme = Box::new(Sevens);
        let mut enc = boxed.prove_encoded(&cfg, &ProverHint::auto()).unwrap();
        enc.flip_bit(4, 0); // make verdicts non-uniform
        let full = boxed.verify_encoded(&cfg, &enc).unwrap();
        for split in [0, 1, 4, 9] {
            let mut verdicts = boxed.verify_encoded_range(&cfg, &enc, 0..split).unwrap();
            verdicts.extend(
                boxed
                    .verify_encoded_range(&cfg, &enc, split..usize::MAX)
                    .unwrap(),
            );
            assert_eq!(verdicts, full.verdicts, "split at {split}");
        }
    }

    #[test]
    fn fingerprint_mismatch_fails_loudly() {
        // A labeling recorded under a different scheme/table version must
        // surface as a typed error, not misdecode into rejections.
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(5));
        let boxed: BoxedScheme = Box::new(Sevens);
        let enc = boxed.prove_encoded(&cfg, &ProverHint::auto()).unwrap();
        assert_eq!(enc.fingerprint(), Some(boxed.fingerprint()));
        let foreign = enc.clone().with_fingerprint(boxed.fingerprint() ^ 1);
        let err = boxed.verify_encoded(&cfg, &foreign).unwrap_err();
        assert!(
            matches!(err, CertError::FingerprintMismatch { .. }),
            "{err:?}"
        );
        let err = boxed
            .verify_encoded_range(&cfg, &foreign, 0..2)
            .unwrap_err();
        assert!(matches!(err, CertError::FingerprintMismatch { .. }));
        // Unstamped labelings (hand-built corpora) skip the check.
        let unstamped = EncodedLabeling::new(enc.to_vec());
        assert!(boxed.verify_encoded(&cfg, &unstamped).unwrap().accepted());
    }

    #[test]
    fn erased_count_mismatch_is_an_error() {
        let cfg = Configuration::with_sequential_ids(generators::cycle_graph(5));
        let boxed: BoxedScheme = Box::new(Sevens);
        let err = boxed
            .verify_encoded(&cfg, &EncodedLabeling::default())
            .unwrap_err();
        assert_eq!(
            err,
            CertError::LabelCountMismatch {
                expected: 5,
                got: 0
            }
        );
    }
}
