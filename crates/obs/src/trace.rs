//! Structured spans, the run-scoped collector, and trace export.
//!
//! Call sites open spans with [`crate::span!`]; each enter/exit lands in
//! a per-thread event buffer owned by the active [`TraceSession`]'s
//! collector. The buffer is a plain `Mutex<Vec<_>>`, but only its owner
//! thread pushes to it while the session runs — the mutex is contended
//! exactly once, at drain — so recording is uncontended in steady state
//! (the workspace-wide `unsafe_code = "forbid"` rules out a literally
//! lock-free ring). When no session is active, a span is one relaxed
//! atomic load; when the `enabled` feature is off, it compiles to
//! nothing at all.
//!
//! [`TraceSession::end`] drains every buffer into a [`TraceLog`], which
//! exports as JSONL (`lanecert-trace/2`, one event per line) and as
//! collapsed stacks (`thread;span;… ns`) for standard flamegraph
//! tooling.

use crate::clock::Clock;
use crate::metrics::HistogramSummary;
use crate::report::{json_escape, ObsReport};

/// Whether an event opens or closes a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened.
    Enter,
    /// Span closed.
    Exit,
}

/// One span boundary, as recorded on its thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Enter or exit.
    pub kind: EventKind,
    /// Static span name (e.g. `"prove"`).
    pub span: &'static str,
    /// Optional structured field, e.g. `("job", 3)` (enter events only).
    pub field: Option<(&'static str, u64)>,
    /// Timestamp on the session clock's timeline.
    pub ts_ns: u64,
}

/// The ordered event sequence of one thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Thread name, or `anon-<k>` for unnamed threads.
    pub label: String,
    /// Events in recording order.
    pub events: Vec<Event>,
}

/// A drained run trace: every thread's events, in label order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceLog {
    /// `"monotonic"` or `"manual"` — which clock stamped the events.
    pub clock_kind: &'static str,
    /// Per-thread event sequences, sorted by label.
    pub threads: Vec<ThreadTrace>,
}

impl TraceLog {
    /// Total number of recorded events across all threads.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Serializes the trace as JSONL (`lanecert-trace/2`): a header
    /// line, one line per event with a per-thread `seq`, and — when
    /// `summary` is given — a final `{"summary": …}` line carrying the
    /// run's [`ObsReport`].
    pub fn to_jsonl(&self, summary: Option<&ObsReport>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":\"lanecert-trace/2\",\"clock\":\"{}\",\"threads\":{},\"events\":{}}}\n",
            self.clock_kind,
            self.threads.len(),
            self.event_count()
        ));
        for t in &self.threads {
            for (seq, e) in t.events.iter().enumerate() {
                let ev = match e.kind {
                    EventKind::Enter => "enter",
                    EventKind::Exit => "exit",
                };
                out.push_str(&format!(
                    "{{\"thread\":\"{}\",\"seq\":{},\"ev\":\"{}\",\"span\":\"{}\",\"ts_ns\":{}",
                    json_escape(&t.label),
                    seq,
                    ev,
                    json_escape(e.span),
                    e.ts_ns
                ));
                if let Some((key, value)) = e.field {
                    out.push_str(&format!(",\"{}\":{}", json_escape(key), value));
                }
                out.push_str("}\n");
            }
        }
        if let Some(report) = summary {
            out.push_str(&format!("{{\"summary\":{}}}\n", report.to_json()));
        }
        out
    }

    /// Renders the trace as collapsed stacks — one
    /// `thread;span;… <exclusive ns>` line per distinct stack, sorted —
    /// the input format of standard flamegraph tooling.
    pub fn to_collapsed(&self) -> String {
        let mut lines: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for t in &self.threads {
            let mut stack: Vec<&'static str> = Vec::new();
            let mut last_ts = 0u64;
            for e in &t.events {
                if !stack.is_empty() {
                    let mut key = t.label.clone();
                    for s in &stack {
                        key.push(';');
                        key.push_str(s);
                    }
                    *lines.entry(key).or_insert(0) += e.ts_ns.saturating_sub(last_ts);
                }
                match e.kind {
                    EventKind::Enter => stack.push(e.span),
                    EventKind::Exit => {
                        // A mismatched exit (span closed on another
                        // thread, or truncated buffer) is skipped rather
                        // than corrupting the stack.
                        if stack.last() == Some(&e.span) {
                            stack.pop();
                        }
                    }
                }
                last_ts = e.ts_ns;
            }
        }
        let mut out = String::new();
        for (stack, ns) in lines {
            out.push_str(&format!("{stack} {ns}\n"));
        }
        out
    }
}

/// Configuration for a traced run: today just the clock that stamps
/// events and engine timing.
#[derive(Clone, Debug, Default)]
pub struct TraceConfig {
    /// Clock used for span timestamps and report timing.
    pub clock: Clock,
}

impl TraceConfig {
    /// Tracing on the monotonic OS clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tracing on the given clock (pass a [`crate::ManualClock`] handle
    /// for deterministic tests).
    pub fn with_clock(clock: Clock) -> Self {
        TraceConfig { clock }
    }
}

/// Everything a drained session yields: the span log plus counter and
/// histogram snapshots (names sorted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunTrace {
    /// The span event log.
    pub log: TraceLog,
    /// Final counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<HistogramSummary>,
}

#[cfg(feature = "enabled")]
mod recorder {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    use super::{Event, EventKind, RunTrace, ThreadTrace, TraceConfig, TraceLog};
    use crate::metrics::Histogram;

    /// Active session id (0 = none): the span fast path is this load.
    static CURRENT: AtomicU64 = AtomicU64::new(0);
    static ACTIVE: Mutex<Option<Arc<Collector>>> = Mutex::new(None);
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    pub(crate) struct Collector {
        id: u64,
        clock: crate::clock::Clock,
        buffers: Mutex<Vec<Arc<ThreadBuffer>>>,
        counters: Mutex<BTreeMap<&'static str, u64>>,
        histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
    }

    struct ThreadBuffer {
        label: String,
        events: Mutex<Vec<Event>>,
    }

    impl Collector {
        pub(crate) fn counter_add(&self, name: &'static str, delta: u64) {
            *self.counters.lock().unwrap().entry(name).or_insert(0) += delta;
        }

        pub(crate) fn record_ns(&self, name: &'static str, value: u64) {
            let h = {
                let mut map = self.histograms.lock().unwrap();
                Arc::clone(
                    map.entry(name)
                        .or_insert_with(|| Arc::new(Histogram::new())),
                )
            };
            h.record(value);
        }

        fn register_thread(&self) -> Arc<ThreadBuffer> {
            let mut buffers = self.buffers.lock().unwrap();
            let label = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("anon-{}", buffers.len()));
            let buf = Arc::new(ThreadBuffer {
                label,
                events: Mutex::new(Vec::new()),
            });
            buffers.push(Arc::clone(&buf));
            buf
        }
    }

    /// This thread's binding to the active session: (session id,
    /// collector, event buffer).
    type ThreadSlot = (u64, Arc<Collector>, Arc<ThreadBuffer>);

    thread_local! {
        /// Rebound lazily when the session changes.
        static SLOT: RefCell<Option<ThreadSlot>> = const { RefCell::new(None) };
    }

    fn bind<R>(f: impl FnOnce(&Arc<Collector>, &Arc<ThreadBuffer>) -> R) -> Option<R> {
        let current = CURRENT.load(Ordering::Acquire);
        if current == 0 {
            return None;
        }
        SLOT.with(|slot| {
            let mut slot = slot.borrow_mut();
            let stale = match &*slot {
                Some((id, _, _)) => *id != current,
                None => true,
            };
            if stale {
                let collector = ACTIVE.lock().unwrap().clone()?;
                let buffer = collector.register_thread();
                *slot = Some((collector.id, collector, buffer));
            }
            let (_, c, b) = slot.as_ref().expect("slot bound above");
            Some(f(c, b))
        })
    }

    pub(crate) fn with_collector<R>(f: impl FnOnce(&Collector) -> R) -> Option<R> {
        bind(|collector, _| f(collector))
    }

    /// `true` while a session is installed.
    pub fn active() -> bool {
        CURRENT.load(Ordering::Relaxed) != 0
    }

    /// Opens a span; prefer the [`crate::span!`] macro.
    pub fn span(name: &'static str, field: Option<(&'static str, u64)>) -> SpanGuard {
        let inner = bind(|collector, buffer| {
            let ts = collector.clock.now_ns();
            buffer.events.lock().unwrap().push(Event {
                kind: EventKind::Enter,
                span: name,
                field,
                ts_ns: ts,
            });
            ActiveSpan {
                clock: collector.clock.clone(),
                buffer: Arc::clone(buffer),
                span: name,
            }
        });
        SpanGuard { inner }
    }

    struct ActiveSpan {
        clock: crate::clock::Clock,
        buffer: Arc<ThreadBuffer>,
        span: &'static str,
    }

    /// Closes its span on drop.
    pub struct SpanGuard {
        inner: Option<ActiveSpan>,
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            if let Some(a) = self.inner.take() {
                let ts = a.clock.now_ns();
                a.buffer.events.lock().unwrap().push(Event {
                    kind: EventKind::Exit,
                    span: a.span,
                    field: None,
                    ts_ns: ts,
                });
            }
        }
    }

    /// A run-scoped recording session. Exactly one is active at a time;
    /// a later `begin` displaces an earlier session (whose spans then
    /// stop recording — its `end` still drains what it captured).
    pub struct TraceSession {
        collector: Arc<Collector>,
        config: TraceConfig,
    }

    impl TraceSession {
        /// Installs a new session as the recording target.
        pub fn begin(config: TraceConfig) -> TraceSession {
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            let collector = Arc::new(Collector {
                id,
                clock: config.clock.clone(),
                buffers: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            });
            *ACTIVE.lock().unwrap() = Some(Arc::clone(&collector));
            CURRENT.store(id, Ordering::Release);
            TraceSession { collector, config }
        }

        /// Uninstalls the session and drains every thread buffer.
        pub fn end(self) -> RunTrace {
            let _ =
                CURRENT.compare_exchange(self.collector.id, 0, Ordering::AcqRel, Ordering::Relaxed);
            {
                let mut active = ACTIVE.lock().unwrap();
                if active
                    .as_ref()
                    .is_some_and(|c| Arc::ptr_eq(c, &self.collector))
                {
                    *active = None;
                }
            }
            let mut threads: Vec<ThreadTrace> = self
                .collector
                .buffers
                .lock()
                .unwrap()
                .iter()
                .map(|b| ThreadTrace {
                    label: b.label.clone(),
                    events: b.events.lock().unwrap().clone(),
                })
                .collect();
            threads.sort_by(|a, b| a.label.cmp(&b.label));
            RunTrace {
                log: TraceLog {
                    clock_kind: self.config.clock.kind(),
                    threads,
                },
                counters: self
                    .collector
                    .counters
                    .lock()
                    .unwrap()
                    .iter()
                    .map(|(k, v)| (k.to_string(), *v))
                    .collect(),
                histograms: self
                    .collector
                    .histograms
                    .lock()
                    .unwrap()
                    .iter()
                    .map(|(k, h)| h.summary(k))
                    .collect(),
            }
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod recorder {
    use super::{RunTrace, TraceConfig, TraceLog};

    /// `true` while a session is installed (always `false` in a no-op
    /// build: the `enabled` feature is off).
    #[inline(always)]
    pub fn active() -> bool {
        false
    }

    /// Opens a span; prefer the [`crate::span!`] macro. (No-op build.)
    #[inline(always)]
    pub fn span(_name: &'static str, _field: Option<(&'static str, u64)>) -> SpanGuard {
        SpanGuard { _private: () }
    }

    /// Closes its span on drop. (No-op build: nothing to close.)
    pub struct SpanGuard {
        _private: (),
    }

    /// A run-scoped recording session. (No-op build: records nothing,
    /// drains empty.)
    pub struct TraceSession {
        config: TraceConfig,
    }

    impl TraceSession {
        /// Installs a new session as the recording target. (No-op
        /// build: nothing is installed.)
        #[inline(always)]
        pub fn begin(config: TraceConfig) -> TraceSession {
            TraceSession { config }
        }

        /// Uninstalls the session and drains every thread buffer.
        /// (No-op build: the drain is empty.)
        pub fn end(self) -> RunTrace {
            RunTrace {
                log: TraceLog {
                    clock_kind: self.config.clock.kind(),
                    threads: Vec::new(),
                },
                counters: Vec::new(),
                histograms: Vec::new(),
            }
        }
    }
}

#[cfg(feature = "enabled")]
pub(crate) use recorder::with_collector;
pub use recorder::{active, span, SpanGuard, TraceSession};
