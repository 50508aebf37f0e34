//! Prints the experiment tables (T1–T10) plus the engine throughput sweep
//! and records a machine-readable summary so successive PRs have a perf
//! trajectory to compare against.
//!
//! Flags:
//! * `--table tN` — run a single table (`--table throughput` for the
//!   scaling sweep alone, `--table label-stats` for the per-scheme label
//!   histograms, `--table compiled` for the compiled-formula series).
//! * `--threads N` — engine worker count for the table sweeps (default:
//!   available parallelism; the throughput sweep always visits 1/2/4/8).
//! * `--out PATH` — where to write the JSON summary (default
//!   `BENCH_results.json` in the current directory).
//! * `--no-json` — skip writing the summary.
//! * `--quick` — CI-sized runs (same code paths, small `n`).
//! * `--trace-out PATH` — additionally run a dedicated traced engine
//!   sweep and write its span log as JSONL to `PATH`, plus a
//!   collapsed-stack profile (flamegraph input) to `PATH.collapsed`.
//!   Build with `--features obs`, or the recorder compiles to no-ops
//!   and the log carries a header but no events.
//!
//! Built with `--features count-allocs`, the binary installs a counting
//! global allocator and the throughput section reports measured
//! allocations-per-vertex under `mem_stats`.

use std::fmt::Write as _;

use lanecert_bench::{compiled, stats, throughput, RunCtx, Scale};
use lanecert_obs::Clock;

/// The counting global allocator behind the `count-allocs` feature: two
/// relaxed atomics per allocation, delegating to the system allocator.
/// Lives in the binary because `#[global_allocator]` needs `unsafe`,
/// which the library crate forbids.
#[cfg(feature = "count-allocs")]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    // SAFETY: delegates allocation and deallocation verbatim to `System`;
    // the counters are side-effect-only.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// Cumulative `(allocations, bytes)` since process start.
    pub fn snapshot() -> (u64, u64) {
        (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
    }
}

/// The allocator snapshot hook handed to the throughput sweep.
fn alloc_snapshot() -> Option<throughput::AllocSnapshot> {
    #[cfg(feature = "count-allocs")]
    {
        Some(alloc_count::snapshot)
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        None
    }
}

/// Minimal JSON string escaping (the workspace has no serde offline).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            match args.get(i + 1) {
                // A following token that is itself a flag means the value
                // was forgotten; don't silently consume it.
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => {
                    eprintln!("{flag} requires a value");
                    std::process::exit(2);
                }
            }
        })
    };
    let selected = flag_value("--table");
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_results.json".into());
    let write_json = !args.iter().any(|a| a == "--no-json");
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let mut ctx = RunCtx::new(scale);
    if let Some(threads) = flag_value("--threads") {
        match threads.parse::<usize>() {
            Ok(t) if t >= 1 => ctx = ctx.with_threads(t),
            _ => {
                eprintln!("--threads requires a positive integer, got {threads:?}");
                std::process::exit(2);
            }
        }
    }

    let clock = Clock::monotonic();
    let mut results: Vec<(&'static str, f64, String)> = Vec::new();
    for (name, table) in lanecert_bench::all_tables() {
        if let Some(sel) = &selected {
            if sel != name {
                continue;
            }
        }
        let start = clock.now_ns();
        let rendered = table(&ctx);
        let seconds = clock.seconds_since(start);
        println!("==== {} ({seconds:.2}s) ====", name.to_uppercase());
        println!("{rendered}");
        results.push((name, seconds, rendered));
    }

    // The scaling sweep: part of every full run (it is the perf
    // trajectory), selectable alone via `--table throughput`.
    let run_sweep = selected.as_deref().is_none_or(|s| s == "throughput");
    let sweep = run_sweep.then(|| {
        let start = clock.now_ns();
        let report = throughput::sweep_with(scale, alloc_snapshot());
        let seconds = clock.seconds_since(start);
        println!("==== THROUGHPUT ({seconds:.2}s) ====");
        println!("{}", report.render());
        report
    });

    // The compiled-formula series: every standard catalog formula
    // through the MSO compiler and the engine — part of every full run,
    // selectable alone via `--table compiled`. The engine-smoke CI job
    // asserts each formula certifies its witness corpus. It runs before
    // the label statistics, which freeze some catalog formulas too, so
    // its per-formula freeze times are never cache hits.
    let run_compiled = selected.as_deref().is_none_or(|s| s == "compiled");
    let compiled_report = run_compiled.then(|| {
        let start = clock.now_ns();
        let report = compiled::series(scale, ctx.threads);
        let seconds = clock.seconds_since(start);
        println!("==== COMPILED ({seconds:.2}s) ====");
        println!("{}", report.render());
        report
    });

    // Per-scheme label statistics (histogram + interned-state counts):
    // part of every full run, selectable alone via `--table label-stats`
    // — the CI determinism job diffs this section across thread counts.
    let run_stats = selected.as_deref().is_none_or(|s| s == "label-stats");
    let label_stats = run_stats.then(|| {
        let start = clock.now_ns();
        let report = stats::collect(scale, ctx.threads);
        let seconds = clock.seconds_since(start);
        println!("==== LABEL-STATS ({seconds:.2}s) ====");
        println!("{}", report.render());
        report
    });

    if let Some(trace_path) = flag_value("--trace-out") {
        if let Err(e) = lanecert_bench::write_trace(&trace_path, ctx.threads) {
            eprintln!("failed to write trace to {trace_path}: {e}");
            std::process::exit(1);
        }
    }

    if results.is_empty() && sweep.is_none() && label_stats.is_none() && compiled_report.is_none() {
        let known: Vec<&str> = lanecert_bench::all_tables()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        eprintln!(
            "no table matched {:?}; known tables: {}, throughput, label-stats, compiled",
            selected.as_deref().unwrap_or("<none>"),
            known.join(", ")
        );
        std::process::exit(2);
    }

    if !write_json {
        return;
    }
    let mut json = String::from("{\n  \"schema\": \"lanecert-bench/9\",\n");
    let _ = writeln!(json, "  \"threads\": {},", ctx.threads);
    json.push_str("  \"tables\": [\n");
    for (i, (name, seconds, rendered)) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"seconds\": {:.6}, \"output\": \"{}\"}}{}",
            name,
            seconds,
            json_escape(rendered),
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    json.push_str("  ]");
    if let Some(report) = &sweep {
        json.push_str(",\n  \"throughput\": ");
        json.push_str(&report.to_json(json_escape));
    }
    if let Some(report) = &label_stats {
        json.push_str(",\n  \"label_stats\": ");
        json.push_str(&report.to_json(json_escape));
    }
    if let Some(report) = &compiled_report {
        json.push_str(",\n  \"compiled\": ");
        json.push_str(&report.to_json(json_escape));
    }
    json.push_str("\n}\n");
    match std::fs::write(&out_path, json) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
