//! `lanebench`: the lanecert benchmark.
//!
//! ```text
//! lanebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Runs one workload in this process: set-up (scheme construction,
//! engine build, inputs, and an untimed warm-up on seeds the timed
//! passes never use), then timed passes until `--seconds` have passed.
//! Every verdict is checked. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A human summary goes to standard error. The exit code is
//! 0 only when every check passed.
//!
//! Workloads: `prove-large`, `batch-stream`, `reverify`, `compiled` (see
//! `src/workloads/`). With `--trace 1`, untraced and traced passes
//! alternate; the traced ones also call each layer's public entry points
//! separately inside `lanecert_obs` spans, and the per-layer metrics are
//! read back from those spans. The summary then reports the tracing
//! overhead as the traced over the untraced end-to-end medians.
//!
//! `setup_s` is the median over several set-ups. The first runs in this
//! process; the others run in child processes of this binary
//! (`--setup-only`), so each starts with a cold process-wide freeze
//! cache. `--tiny` shrinks every input (the self-test uses it).

mod harness;
mod inputs;
mod layers;
mod workloads;

use harness::{
    medians, on_fresh_thread, peak_rss_mib, run_passes, timed, traced, with_sampler, Sample, Tally,
};
use workloads::batch_stream::BatchStream;
use workloads::compiled::Compiled;
use workloads::prove_large::ProveLarge;
use workloads::reverify::Reverify;
use workloads::{Ctx, Workload};

/// End-to-end metrics and their units, as every untraced run reports
/// them.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("prove_vps", "1/s"),
    ("prove_growth", "exp"),
    ("verify_vps", "1/s"),
    ("pipeline_vps", "1/s"),
    ("jobs_per_s", "1/s"),
    ("max_label_bits", "bits"),
    ("mean_label_bits", "bits"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units, as every traced run reports them
/// (0 where the workload does not run that layer).
const PER_LAYER: [(&str, &str); 49] = [
    ("pathwidth.resolve_s", "s"),
    ("pathwidth.bnb_nodes", "count"),
    ("pathwidth.bnb_prunes", "count"),
    ("pathwidth.memo_hits", "count"),
    ("pathwidth.optimal_frac", "ratio"),
    ("lanes.partition_s.lo", "s"),
    ("lanes.partition_s.hi", "s"),
    ("lanes.completion_s.lo", "s"),
    ("lanes.completion_s.hi", "s"),
    ("lanes.embedding_s.lo", "s"),
    ("lanes.embedding_s.hi", "s"),
    ("lanes.construction_s.lo", "s"),
    ("lanes.construction_s.hi", "s"),
    ("lanes.hierarchy_s.lo", "s"),
    ("lanes.hierarchy_s.hi", "s"),
    ("lanes.layout_s.lo", "s"),
    ("lanes.layout_s.hi", "s"),
    ("lanes.validate_s.lo", "s"),
    ("lanes.validate_s.hi", "s"),
    ("lanes.hierarchy_growth", "exp"),
    ("lanes.embedding_growth", "exp"),
    ("lanes.virtual_edges", "count"),
    ("lanes.hierarchy_nodes", "count"),
    ("lanes.hierarchy_depth", "count"),
    ("lanes.embedding_hops", "count"),
    ("lanes.congestion", "count"),
    ("core.labels_s.lo", "s"),
    ("core.labels_s.hi", "s"),
    ("core.labels_growth", "exp"),
    ("core.encode_s", "s"),
    ("core.transits", "count"),
    ("core.label_bytes", "bytes"),
    ("core.decode_s", "s"),
    ("core.check_s", "s"),
    ("core.verify_honest_s", "s"),
    ("core.verify_tampered_s", "s"),
    ("core.rejecting_vertices", "count"),
    ("mso.compile_s", "s"),
    ("algebra.freeze_s", "s"),
    ("algebra.states", "count"),
    ("engine.prove_cpu_s", "s"),
    ("engine.busy_frac", "ratio"),
    ("engine.steals", "count"),
    ("engine.parks", "count"),
    ("engine.tasks", "count"),
    ("engine.prove_p50_ms", "ms"),
    ("engine.verify_p50_ms", "ms"),
    ("engine.scale_eff", "ratio"),
    ("lanes.instances", "count"),
];

/// Fewest untraced passes a run makes, however long they take.
const MIN_PASSES: usize = 2;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    setup_only: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("lanebench: {msg}");
    eprintln!(
        "usage: lanebench --workload <prove-large|batch-stream|reverify|compiled> \
         --seed <n> --seconds <s> --trace <0|1> [--tiny] [--setup-only]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--tiny" => args.tiny = true,
            "--setup-only" => args.setup_only = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if setups(&args.workload).is_none() {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

/// Set-ups per run for each workload (`None` for unknown names). The
/// compiled freeze is the costliest step of any set-up, so `compiled`
/// sets up once; `reverify` measures its prover metrics during set-up,
/// so it sets up more often.
fn setups(workload: &str) -> Option<usize> {
    match workload {
        "prove-large" | "batch-stream" => Some(3),
        "reverify" => Some(5),
        "compiled" => Some(1),
        _ => None,
    }
}

/// What one run measured.
struct Outcome {
    /// `setup_s` and the other metrics measured during set-up.
    setup: Sample,
    e2e: Sample,
    layers: Sample,
    overhead: Option<String>,
    tally: Tally,
    passes: (usize, usize),
    /// `pipeline_vps` of each untraced pass, for the summary.
    pass_rates: Vec<f64>,
}

/// Runs `f` under the background speed sampler when `W` allows it.
fn sampled<W: Workload, T: Send>(f: impl FnOnce() -> T + Send) -> T {
    if W::SAMPLED {
        with_sampler(f)
    } else {
        f()
    }
}

/// Set-up only: `setup_s` and the metrics measured during set-up.
fn setup_only<W: Workload>(ctx: &Ctx) -> (Sample, Tally) {
    sampled::<W, _>(|| {
        let mut tally = Tally::default();
        let (workload, seconds) = timed(|| W::setup(ctx, &mut tally));
        let mut setup = workload.setup_sample();
        setup.insert("setup_s", seconds);
        (setup, tally)
    })
}

/// Sets up, runs passes for `seconds`, and folds the samples.
fn drive<W: Workload>(ctx: &Ctx, seconds: f64) -> Outcome {
    sampled::<W, _>(|| drive_sampled::<W>(ctx, seconds))
}

fn drive_sampled<W: Workload>(ctx: &Ctx, seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    let ((mut workload, setup_s), setup_layers) = if ctx.trace {
        let (out, trace) = traced(|| timed(|| W::setup(ctx, &mut tally)));
        (out, layers::setup_metrics(&trace))
    } else {
        (timed(|| W::setup(ctx, &mut tally)), Sample::new())
    };
    let (plain, with_trace) = run_passes(seconds, ctx.trace, MIN_PASSES, |t| {
        workload.pass(t, &mut tally)
    });
    let mut setup = workload.setup_sample();
    setup.insert("setup_s", setup_s);
    let mut e2e = medians(&plain);
    e2e.extend(workload.finish(&mut tally));
    e2e.extend(setup.clone());
    e2e.insert("peak_rss_mib", peak_rss_mib());
    let mut layer_metrics = medians(&with_trace);
    let overhead = ctx.trace.then(|| {
        let ratios: Vec<String> = ["prove_vps", "verify_vps", "pipeline_vps"]
            .iter()
            .filter_map(|k| Some(format!("{k} {:.3}x", layer_metrics.get(k)? / e2e.get(k)?)))
            .collect();
        format!(
            "tracing overhead (traced / untraced medians): {}",
            ratios.join(", ")
        )
    });
    layer_metrics.extend(setup_layers);
    Outcome {
        setup,
        e2e,
        layers: layer_metrics,
        overhead,
        tally,
        passes: (plain.len(), with_trace.len()),
        pass_rates: plain
            .iter()
            .filter_map(|p| p.get("pipeline_vps").copied())
            .collect(),
    }
}

/// Re-runs set-up in a child process of this binary and returns what it
/// measured (`None` when the child failed).
fn child_setup(args: &Args) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
    ])
    .arg("--setup-only");
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.stderr(std::process::Stdio::inherit()).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| {
            let (name, value) = l.split_once('=')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let ctx = Ctx {
        seed: args.seed,
        tiny: args.tiny,
        trace: args.trace && !args.setup_only,
    };
    if args.setup_only {
        let (setup, tally) = on_fresh_thread(|| match args.workload.as_str() {
            "prove-large" => setup_only::<ProveLarge>(&ctx),
            "batch-stream" => setup_only::<BatchStream>(&ctx),
            "reverify" => setup_only::<Reverify>(&ctx),
            _ => setup_only::<Compiled>(&ctx),
        });
        for (name, value) in setup {
            println!("{name}={value}");
        }
        std::process::exit(i32::from(tally.failed > 0));
    }
    let mut outcome = on_fresh_thread(|| match args.workload.as_str() {
        "prove-large" => drive::<ProveLarge>(&ctx, args.seconds),
        "batch-stream" => drive::<BatchStream>(&ctx, args.seconds),
        "reverify" => drive::<Reverify>(&ctx, args.seconds),
        _ => drive::<Compiled>(&ctx, args.seconds),
    });
    if !args.trace {
        let mut samples = vec![outcome.setup.clone()];
        for _ in 1..setups(&args.workload).unwrap_or(1) {
            let child = child_setup(&args);
            outcome
                .tally
                .check(child.is_some(), || "a set-up child process failed".into());
            samples.extend(child.map(|measured| {
                measured
                    .into_iter()
                    .filter_map(|(name, v)| Some((*outcome.setup.keys().find(|k| **k == name)?, v)))
                    .collect()
            }));
        }
        outcome.e2e.extend(medians(&samples));
    }
    report(&args, outcome);
}

/// Prints the human summary to standard error and the JSON result line
/// to standard output, then exits.
fn report(args: &Args, mut outcome: Outcome) -> ! {
    let (names, values): (&[(&str, &str)], &Sample) = if args.trace {
        (&PER_LAYER, &outcome.layers)
    } else {
        (&END_TO_END, &outcome.e2e)
    };
    eprintln!(
        "lanebench {} seed {} trace {}: {} untraced + {} traced passes",
        args.workload, args.seed, args.trace as u8, outcome.passes.0, outcome.passes.1
    );
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        // A layer this workload does not run reports 0; an end-to-end
        // metric must always be measured.
        let value = match values.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => f64::NAN,
        };
        outcome
            .tally
            .check(value.is_finite(), || format!("{name} was not measured"));
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!("  {name:<26} {value:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let t = &outcome.tally;
    let failed_frac = t.failed as f64 / t.attempted.max(1) as f64;
    eprintln!(
        "  reference unit now {:.3} ms (nominal {:.3} ms): times are scaled to nominal",
        harness::reference_seconds() * 1e3,
        harness::REFERENCE_UNIT_S * 1e3
    );
    let rates: Vec<String> = outcome
        .pass_rates
        .iter()
        .map(|r| format!("{r:.1}"))
        .collect();
    eprintln!("  pipeline_vps per pass: {}", rates.join(" "));
    eprintln!(
        "  {:<26} {:>16.6} ratio ({} of {} operations wrong)",
        "failed_frac", failed_frac, t.failed, t.attempted
    );
    match outcome.e2e.get("engine.scale_eff") {
        Some(eff) => eprintln!("  {:<26} {eff:>16.6} ratio (2 workers vs 1)", "scale_eff"),
        None => eprintln!("  {:<26} {:>16} ratio (no engine here)", "scale_eff", "-"),
    }
    if let Some(line) = &outcome.overhead {
        eprintln!("{line}");
    }
    for note in &t.notes {
        eprintln!("  FAILED: {note}");
    }
    let correct = t.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted.max(1),
        t.failed,
        metrics.join(", ")
    );
    std::process::exit(i32::from(!correct));
}
