//! Measurement plumbing shared by the workloads: timing on the obs
//! clock, trace sessions and their span totals, medians and growth
//! exponents, peak resident memory, and the big-stack threads the
//! prover and the cold verifier run on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use lanecert_obs::{Clock, EventKind, RunTrace, TraceConfig, TraceSession};

/// One pass's named measurements (end-to-end or per-layer).
pub type Sample = BTreeMap<&'static str, f64>;

/// Stack of the thread each workload runs on. The prover recurses as
/// deep as the lane chain is long; reserving address space is free, so
/// the benchmark never depends on how deep that is.
pub const PROVER_STACK: usize = 256 << 20;

/// Seconds `f` took on the monotonic obs clock, with its result.
pub fn wall_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = Clock::monotonic();
    let t0 = clock.now_ns();
    let out = f();
    (out, clock.seconds_since(t0))
}

/// What one reference unit takes on this benchmark's reference machine
/// (a 2-vCPU KVM guest on an Intel Xeon host) when nothing else shares
/// its cores.
pub const REFERENCE_UNIT_S: f64 = 0.001;

/// Keys a reference unit sorts, trees and hashes. A larger, cache-busting
/// unit tracked the prover no better and slowed the cache-resident
/// verifier on the other core.
const REFERENCE_KEYS: u64 = 4096;

/// One reference unit: a fixed mix of sorting, tree and hash work, like
/// the prover's, written here so that it never changes with the code
/// under test. Returns its wall seconds.
fn reference_unit() -> f64 {
    wall_timed(|| {
        let mut rng = SplitMix(0x5EED);
        let mut keys: Vec<u64> = (0..REFERENCE_KEYS).map(|_| rng.next_u64()).collect();
        keys.sort_unstable();
        let mut tree = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            tree.insert(k >> 20, i as u64);
        }
        let mut hashed = std::collections::HashMap::new();
        for (k, v) in &tree {
            hashed.insert(*v, *k);
        }
        let sum = keys
            .iter()
            .filter_map(|k| hashed.get(&(k % REFERENCE_KEYS)))
            .fold(0u64, |a, b| a.wrapping_add(*b));
        std::hint::black_box(sum)
    })
    .1
}

/// Current speed of the calling thread's core: the median seconds of
/// five reference units, after one untimed unit that warms the thread's
/// caches and allocator. Cores shared with other tenants run slower by
/// up to 2× for seconds at a time, and this tracks that.
pub fn reference_seconds() -> f64 {
    reference_unit();
    median(&[(); 5].map(|()| reference_unit()))
}

/// Like [`reference_seconds`], measured on both cores at once (for
/// work that runs on two worker threads).
pub fn reference_seconds_2() -> f64 {
    std::thread::scope(|s| {
        let other = s.spawn(reference_seconds);
        let mine = reference_seconds();
        (mine + other.join().expect("reference thread")) / 2.0
    })
}

/// Gap between two samples of the background speed sampler; with a unit
/// of about a millisecond the sampler keeps a tenth of one core busy.
const SAMPLE_GAP: std::time::Duration = std::time::Duration::from_millis(9);

/// Fewest samples a normalization rests on.
const MIN_SAMPLES: usize = 5;

/// The background speed sampler: reference units timed on the core the
/// measured thread leaves idle, as `(end timestamp in ns, seconds)`.
struct Sampler {
    running: AtomicBool,
    samples: Mutex<Vec<(u64, f64)>>,
}

static SAMPLER: Sampler = Sampler {
    running: AtomicBool::new(false),
    samples: Mutex::new(Vec::new()),
};

/// Runs `f` while a sampler thread times a reference unit every
/// [`SAMPLE_GAP`]; [`timed`] then normalizes by the speed sampled while
/// the timed work ran. For single-threaded workloads only: the sampler
/// needs the second core.
pub fn with_sampler<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    SAMPLER.running.store(true, Ordering::SeqCst);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let clock = Clock::monotonic();
            while SAMPLER.running.load(Ordering::SeqCst) {
                let unit = reference_unit();
                SAMPLER
                    .samples
                    .lock()
                    .expect("sampler lock")
                    .push((clock.now_ns(), unit));
                std::thread::sleep(SAMPLE_GAP);
            }
        });
        let out = f();
        SAMPLER.running.store(false, Ordering::SeqCst);
        sampler.join().expect("sampler thread panicked");
        out
    })
}

/// Median sampled unit seconds over `[t0, t1]` (or over the latest
/// [`MIN_SAMPLES`] samples when fewer fall inside).
fn sampled_speed(t0: u64, t1: u64) -> Option<f64> {
    let samples = SAMPLER.samples.lock().expect("sampler lock");
    let upto = samples.partition_point(|(t, _)| *t <= t1);
    let inside = samples[..upto].iter().filter(|(t, _)| *t >= t0).count();
    let from = upto - inside.max(MIN_SAMPLES).min(upto);
    let units: Vec<f64> = samples[from..upto].iter().map(|(_, u)| *u).collect();
    (!units.is_empty()).then(|| median(&units))
}

/// Seconds `f` took, normalized to the reference machine's speed: the
/// wall time scaled by [`REFERENCE_UNIT_S`] over the reference unit's
/// time while `f` ran. Other tenants slow every core by up to 2× for
/// seconds at a time; the normalized time cancels that, so runs compare
/// across time. The unit's time comes from the background sampler when
/// it runs ([`with_sampler`]), otherwise from units timed on this
/// thread just before and after `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = Clock::monotonic();
    if SAMPLER.running.load(Ordering::SeqCst) {
        let t0 = clock.now_ns();
        let out = f();
        let t1 = clock.now_ns();
        if let Some(unit) = sampled_speed(t0, t1) {
            return (out, (t1 - t0) as f64 / 1e9 * REFERENCE_UNIT_S / unit);
        }
        return (out, (t1 - t0) as f64 / 1e9);
    }
    let before = reference_seconds();
    let (out, seconds) = wall_timed(f);
    let after = reference_seconds();
    (out, seconds * REFERENCE_UNIT_S * 2.0 / (before + after))
}

/// Runs `f` on a freshly spawned thread with a [`PROVER_STACK`] stack
/// and waits for it. Each workload runs on one; so does each cold
/// verification, because the Theorem 1 verifier keeps a per-thread memo.
pub fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("lanebench".into())
            .stack_size(PROVER_STACK)
            .spawn_scoped(s, f)
            .expect("spawn a benchmark thread")
            .join()
            .expect("benchmark thread panicked")
    })
}

/// Runs `f` inside a trace session and returns the drained trace.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, RunTrace) {
    let session = TraceSession::begin(TraceConfig::new());
    let out = f();
    (out, session.end())
}

/// Inclusive seconds per `(span name, field value)`, summed over every
/// closed span on every thread (spans without a field key on 0).
pub fn span_seconds(trace: &RunTrace) -> BTreeMap<(&'static str, u64), f64> {
    let mut out = BTreeMap::new();
    for thread in &trace.log.threads {
        let mut open: Vec<(&'static str, u64, u64)> = Vec::new();
        for e in &thread.events {
            match e.kind {
                EventKind::Enter => open.push((e.span, e.field.map_or(0, |f| f.1), e.ts_ns)),
                EventKind::Exit => {
                    if let Some((name, key, t0)) = open.pop() {
                        *out.entry((name, key)).or_insert(0.0) +=
                            e.ts_ns.saturating_sub(t0) as f64 / 1e9;
                    }
                }
            }
        }
    }
    out
}

/// Value of a counter recorded in `trace` (0 when absent).
pub fn counter(trace: &RunTrace, name: &str) -> f64 {
    trace
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Key-wise medians over passes; a key missing from a pass is skipped.
pub fn medians(samples: &[Sample]) -> Sample {
    let mut keys: Vec<&'static str> = samples.iter().flat_map(|s| s.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let values: Vec<f64> = samples.iter().filter_map(|s| s.get(k).copied()).collect();
            (k, median(&values))
        })
        .collect()
}

/// The exponent `e` in `t ∝ nᵉ` through two points.
pub fn growth(n_lo: f64, t_lo: f64, n_hi: f64, t_hi: f64) -> f64 {
    (t_hi / t_lo).ln() / (n_hi / n_lo).ln()
}

/// Total inclusive seconds of the named span over all field values.
pub fn span_total(spans: &BTreeMap<(&'static str, u64), f64>, name: &str) -> f64 {
    spans
        .iter()
        .filter(|((s, _), _)| *s == name)
        .map(|(_, v)| *v)
        .fold(0.0, |a, b| a + b)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// A small deterministic generator (SplitMix64) for the benchmark's own
/// choices, such as which labels to tamper with.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Correctness tally: operations attempted and wrong outcomes.
#[derive(Default, Debug)]
pub struct Tally {
    /// Operations attempted (certify, verify, engine jobs, checks).
    pub attempted: u64,
    /// Wrong outcomes among them.
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Runs passes until `seconds` have elapsed (at least `min_passes`).
/// With `trace`, untraced and traced passes alternate, so one process
/// measures both sides of the tracing overhead. Returns the untraced
/// and the traced samples.
pub fn run_passes(
    seconds: f64,
    trace: bool,
    min_passes: usize,
    mut pass: impl FnMut(bool) -> Sample,
) -> (Vec<Sample>, Vec<Sample>) {
    let clock = Clock::monotonic();
    let start = clock.now_ns();
    let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
    let mut k = 0usize;
    loop {
        let traced_pass = trace && k % 2 == 1;
        let sample = pass(traced_pass);
        if traced_pass {
            with_trace.push(sample);
        } else {
            plain.push(sample);
        }
        k += 1;
        let enough = plain.len() >= min_passes && (!trace || !with_trace.is_empty());
        if enough && clock.seconds_since(start) >= seconds {
            return (plain, with_trace);
        }
    }
}
