//! `lanecert_obs`: dependency-free observability for the workspace.
//!
//! Three pieces, threaded through core, engine, and bench:
//!
//! * **Spans** — [`span!`] opens a named, optionally-fielded span whose
//!   enter/exit events land in a per-thread buffer on the active
//!   [`TraceSession`]; the drained [`TraceLog`] exports as JSONL and as
//!   collapsed stacks for flamegraph tooling ([`trace`]).
//! * **Metrics** — named monotonic counters and fixed power-of-two
//!   bucket histograms ([`metrics`]), plus the engine pool's
//!   [`PoolStats`] snapshot, summarized per run in an [`ObsReport`]
//!   ([`report`]).
//! * **Clock** — the single blessed timing site ([`clock`]): every
//!   other crate is barred from raw `Instant::now` / `SystemTime::now`
//!   (clippy `disallowed_methods` + the `check` linter's `obs-clock`
//!   rule), and [`ManualClock`] makes timing-dependent tests
//!   deterministic.
//!
//! **Cost model.** With the `enabled` feature off (the default), spans
//! and metric recordings are inlined empty functions — instrumented
//! call sites compile to nothing, so zero-alloc verify loops and bench
//! numbers are untouched. With it on but no session active, a span is
//! one relaxed atomic load. Only between [`TraceSession::begin`] and
//! [`TraceSession::end`] is anything recorded — and recording never
//! influences certified outputs, a claim the workspace pins with
//! bit-parity proptests.
//!
//! ```
//! use lanecert_obs::{span, ManualClock, TraceConfig, TraceSession};
//!
//! let clock = ManualClock::new();
//! let session = TraceSession::begin(TraceConfig::with_clock(clock.clock()));
//! {
//!     let _outer = lanecert_obs::span!("run");
//!     clock.advance_ns(10);
//!     let _inner = lanecert_obs::span!("prove", job = 3);
//!     clock.advance_ns(5);
//! }
//! let run = session.end();
//! let jsonl = run.log.to_jsonl(None);
//! assert!(jsonl.starts_with("{\"schema\":\"lanecert-trace/1\""));
//! ```

pub mod clock;
pub mod metrics;
pub mod report;
pub mod trace;

pub use clock::{wall_entropy_ns, Clock, ManualClock};
pub use metrics::{counter_add, record_ns, HistogramSummary};
pub use report::{json_escape, ObsReport, PoolStats};
pub use trace::{
    active, span, Event, EventKind, RunTrace, SpanGuard, ThreadTrace, TraceConfig, TraceLog,
    TraceSession,
};

/// `true` when this build compiled the recording machinery in (the
/// `enabled` feature). Callers can branch on this to skip preparing
/// instrumentation inputs that a no-op build would discard; the
/// recording entry points themselves are always safe to call.
pub const COMPILED: bool = cfg!(feature = "enabled");

/// Standard span/counter/histogram names used across the workspace, so
/// producers and report readers agree on spelling.
pub mod names {
    /// Histogram: nanoseconds proving one job.
    pub const PROVE_NS: &str = "prove_ns";
    /// Histogram: nanoseconds verifying one job (whole-job task).
    pub const VERIFY_NS: &str = "verify_ns";
    /// Histogram: nanoseconds verifying one shard of a fanned-out job.
    pub const VERIFY_SHARD_NS: &str = "verify_shard_ns";
    /// Counter: encoded labels decoded during verification.
    pub const LABELS_DECODED: &str = "labels_decoded";
    /// Counter: encoded label bytes read during verification.
    pub const LABEL_BYTES_READ: &str = "label_bytes_read";
    /// Counter: branch nodes expanded by the pathwidth B&B solver.
    pub const BNB_NODES: &str = "bnb_nodes";
    /// Counter: branches pruned by the B&B incumbent bound.
    pub const BNB_PRUNES: &str = "bnb_prunes";
    /// Counter: dominated prefix re-visits answered by the B&B memo.
    pub const BNB_MEMO_HITS: &str = "bnb_memo_hits";
    /// Counter: Theorem 1 summary recipes (`f_B`, `f_P` and the base
    /// nodes) answered by the per-thread transition memo.
    pub const TRANSITION_MEMO_HITS: &str = "transition_memo_hits";
    /// Counter: Theorem 1 summary recipes the transition memo missed, so
    /// they ran (a merge through its shape-order form).
    pub const TRANSITION_MEMO_MISSES: &str = "transition_memo_misses";
    /// Counter: shape-order merges (`f_B`, `f_P` on slots in shape
    /// order) the transition memo ran, each once per thread and shape.
    pub const TRANSITION_MEMO_MERGES: &str = "transition_memo_merges";
    /// Counter: Theorem 1 member folds (`f_P`) and bridges (`f_B`) the
    /// verifier answered as claims from the same per-thread, id-free
    /// memo as the recipes, flushed with the transition-memo counters.
    pub const VERIFIER_MEMO_HITS: &str = "verifier_memo_hits";
    /// Counter: verifier folds and bridges the memo missed, so they were
    /// checked and computed.
    pub const VERIFIER_MEMO_MISSES: &str = "verifier_memo_misses";
    /// Counter: slot swaps a total frozen table answered from its
    /// transition rows (`FrozenAlgebra::swap`), flushed with the
    /// transition-memo counters.
    pub const FROZEN_ROW_SWAPS: &str = "frozen_row_swaps";
    /// Counter: slot swaps a total frozen table handed to the algebra
    /// (a class outside the table, or a degenerate slot pair).
    pub const FROZEN_ROW_FALLBACKS: &str = "frozen_row_fallbacks";
    /// Counter: compiled-automaton transitions (a product or quantifier
    /// node's step or union) answered by the per-thread memo of
    /// `lanecert_mso::compile`, flushed with the transition-memo
    /// counters.
    pub const COMPILED_MEMO_HITS: &str = "compiled_memo_hits";
    /// Counter: compiled-automaton transitions the memo missed, so they
    /// ran.
    pub const COMPILED_MEMO_MISSES: &str = "compiled_memo_misses";
    /// Counter: classes the algebra freeze pass found, added once per
    /// enumeration (a cached freeze adds nothing).
    pub const FREEZE_STATES: &str = "freeze_states";
    /// Counter: primitive operations the freeze pass applied, added once
    /// per enumeration.
    pub const FREEZE_OPS: &str = "freeze_ops";
    /// Counter: freeze enumerations that exceeded a state or operation
    /// budget and sealed.
    pub const FREEZE_OVERRUNS: &str = "freeze_overruns";
}

/// Opens a structured span: `span!("prove")` or
/// `span!("prove", job = idx)`. Returns a guard that closes the span
/// when dropped — bind it (`let _span = …`) so it lives to the end of
/// the scope. Compiles to nothing when the `enabled` feature is off.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name, ::core::option::Option::None)
    };
    ($name:expr, $key:ident = $value:expr) => {
        $crate::trace::span(
            $name,
            ::core::option::Option::Some((stringify!($key), $value as u64)),
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Sessions are process-global; the recorder tests take this lock
    /// so parallel test threads cannot displace each other's sessions.
    static SESSIONS: Mutex<()> = Mutex::new(());

    fn serialize() -> std::sync::MutexGuard<'static, ()> {
        SESSIONS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn this_thread() -> String {
        std::thread::current()
            .name()
            .expect("test threads are named")
            .to_string()
    }

    /// Runs the canonical nested-span scenario on a manual clock.
    fn nested_run() -> RunTrace {
        let manual = ManualClock::new();
        let session = TraceSession::begin(TraceConfig::with_clock(manual.clock()));
        {
            let _run = span!("run");
            manual.advance_ns(10);
            {
                let _prove = span!("prove", job = 3);
                manual.advance_ns(5);
            }
            manual.advance_ns(2);
        }
        session.end()
    }

    #[test]
    fn span_nesting_is_pinned() {
        let _guard = serialize();
        let run = nested_run();
        assert_eq!(run.log.clock_kind, "manual");
        assert_eq!(run.log.threads.len(), 1);
        let events = &run.log.threads[0].events;
        let shape: Vec<(EventKind, &str, u64)> =
            events.iter().map(|e| (e.kind, e.span, e.ts_ns)).collect();
        assert_eq!(
            shape,
            vec![
                (EventKind::Enter, "run", 0),
                (EventKind::Enter, "prove", 10),
                (EventKind::Exit, "prove", 15),
                (EventKind::Exit, "run", 17),
            ]
        );
        assert_eq!(events[1].field, Some(("job", 3)));
    }

    #[test]
    fn jsonl_output_is_pinned() {
        let _guard = serialize();
        let run = nested_run();
        let t = this_thread();
        let expected = format!(
            concat!(
                "{{\"schema\":\"lanecert-trace/1\",\"clock\":\"manual\",\"threads\":1,\"events\":4}}\n",
                "{{\"thread\":\"{t}\",\"seq\":0,\"ev\":\"enter\",\"span\":\"run\",\"ts_ns\":0}}\n",
                "{{\"thread\":\"{t}\",\"seq\":1,\"ev\":\"enter\",\"span\":\"prove\",\"ts_ns\":10,\"job\":3}}\n",
                "{{\"thread\":\"{t}\",\"seq\":2,\"ev\":\"exit\",\"span\":\"prove\",\"ts_ns\":15}}\n",
                "{{\"thread\":\"{t}\",\"seq\":3,\"ev\":\"exit\",\"span\":\"run\",\"ts_ns\":17}}\n",
            ),
            t = t
        );
        assert_eq!(run.log.to_jsonl(None), expected);
    }

    #[test]
    fn jsonl_summary_line_carries_the_report() {
        let _guard = serialize();
        let run = nested_run();
        let report = ObsReport {
            wall_ns: 17,
            ..ObsReport::default()
        };
        let jsonl = run.log.to_jsonl(Some(&report));
        let last = jsonl.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"summary\":{\"wall_ns\":17,\"counters\":[],\"histograms\":[],\"pool\":null}}"
        );
    }

    #[test]
    fn collapsed_stacks_are_pinned() {
        let _guard = serialize();
        let run = nested_run();
        let t = this_thread();
        // Exclusive time: `run` owns [0,10) ∪ [15,17) = 12 ns, and
        // `run;prove` owns [10,15) = 5 ns.
        let expected = format!("{t};run 12\n{t};run;prove 5\n");
        assert_eq!(run.log.to_collapsed(), expected);
    }

    #[test]
    fn metrics_drain_with_the_session() {
        let _guard = serialize();
        let manual = ManualClock::new();
        let session = TraceSession::begin(TraceConfig::with_clock(manual.clock()));
        counter_add(names::LABELS_DECODED, 4);
        counter_add(names::LABELS_DECODED, 2);
        record_ns(names::PROVE_NS, 100);
        record_ns(names::PROVE_NS, 900);
        let run = session.end();
        assert_eq!(run.counters, vec![("labels_decoded".to_string(), 6)]);
        assert_eq!(run.histograms.len(), 1);
        let h = &run.histograms[0];
        assert_eq!((h.name.as_str(), h.count, h.sum), ("prove_ns", 2, 1000));
        assert_eq!(h.buckets, vec![(128, 1), (1024, 1)]);
    }

    #[test]
    fn no_session_means_no_recording() {
        let _guard = serialize();
        assert!(!active());
        let _orphan = span!("orphan");
        counter_add("orphan", 1);
        record_ns("orphan_ns", 1);
        // A fresh session must not see any of the above.
        let session = TraceSession::begin(TraceConfig::new());
        assert!(active());
        let run = session.end();
        assert!(!active());
        assert_eq!(run.log.event_count(), 0);
        assert!(run.counters.is_empty());
        assert!(run.histograms.is_empty());
    }

    #[test]
    fn spans_record_per_thread() {
        let _guard = serialize();
        let manual = ManualClock::new();
        let session = TraceSession::begin(TraceConfig::with_clock(manual.clock()));
        {
            let _driver = span!("drive");
            std::thread::Builder::new()
                .name("obs-worker".into())
                .spawn(|| {
                    let _w = span!("work", shard = 1);
                })
                .unwrap()
                .join()
                .unwrap();
        }
        let run = session.end();
        assert_eq!(run.log.threads.len(), 2);
        // Threads are sorted by label; the named worker recorded both
        // boundaries of its span.
        let worker = run
            .log
            .threads
            .iter()
            .find(|t| t.label == "obs-worker")
            .expect("worker thread registered");
        assert_eq!(worker.events.len(), 2);
        assert_eq!(worker.events[0].field, Some(("shard", 1)));
    }

    #[test]
    fn compiled_reflects_the_feature() {
        // The self dev-dependency turns `enabled` on for unit tests
        // (read through a binding so the assert isn't on a literal).
        let compiled = COMPILED;
        assert!(compiled);
    }
}
