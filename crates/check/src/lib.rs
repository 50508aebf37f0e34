//! `lanecert-check`: the workspace invariant linter.
//!
//! The codebase rests on invariants no compiler pass enforces — proving
//! is a pure function of its inputs, the verify loop is allocation-free
//! per vertex, adversarial wire bytes can reject but never panic, the
//! algebra crate has no hidden mutability outside the documented sealed
//! tail. This crate walks every `crates/**/*.rs` file with a hand-rolled
//! lexer (no crates.io, so no `syn`) and enforces them mechanically; see
//! [`rules`] for the rule table and suppression syntax, and the README's
//! "Static analysis & model checking" section for usage.
//!
//! Run as `cargo run -p check -- lint`.

pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

use rules::{check_forbid_unsafe, lint_source, FileCtx, Finding};

/// Crates whose outputs must be bit-for-bit reproducible: no wall clock,
/// no randomized hash state.
const DETERMINISM_CRATES: &[&str] = &[
    "crates/algebra",
    "crates/core",
    "crates/graph",
    "crates/lanes",
];

/// Modules reachable from adversarial wire bytes, where decoding and
/// verifying must reject malformed input, and the Theorem 1 prover, which
/// must refuse with a `CertError`: none of them may panic.
const NO_PANIC_FILES: &[&str] = &[
    "crates/core/src/bits.rs",
    "crates/core/src/certifier.rs",
    "crates/core/src/erased.rs",
    "crates/core/src/pointer.rs",
    "crates/core/src/theorem1/labels.rs",
    "crates/core/src/theorem1/prover.rs",
    "crates/core/src/theorem1/verifier.rs",
    "crates/core/src/theorem1/summary.rs",
];

/// The crate whose values must behave as plain data.
const INTERIOR_MUT_CRATE: &str = "crates/algebra";

/// The one crate allowed to read the OS clock directly: it hosts the
/// audited `Instant::now`/`SystemTime::now` sites behind
/// `lanecert_obs::Clock` and `lanecert_obs::wall_entropy_ns`.
const OBS_CRATE: &str = "crates/obs";

/// Path fragments excluded from the token rules: integration tests and
/// benches are not product code, and the linter's own fixtures violate
/// rules on purpose.
const EXCLUDED: &[&str] = &["/tests/", "/benches/", "/fixtures/"];

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Derives the rule context for one workspace-relative file path.
fn ctx_for(rel: &str) -> FileCtx {
    let determinism = DETERMINISM_CRATES.iter().any(|c| rel.starts_with(c));
    FileCtx {
        determinism,
        no_panic: NO_PANIC_FILES.contains(&rel),
        interior_mut: rel.starts_with(INTERIOR_MUT_CRATE),
        // Determinism crates are exempt here only because their stricter
        // rule already reports the same tokens — one finding per site.
        obs_clock: !determinism && !rel.starts_with(OBS_CRATE),
    }
}

/// Recursively collects `.rs` files under `dir`.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Enumerates crate directories: every directory holding a `Cargo.toml`
/// under `crates/`, plus the workspace root package itself.
fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.to_path_buf()];
    let mut stack = vec![root.join("crates")];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for p in paths {
            if p.is_dir() {
                if p.join("Cargo.toml").is_file() {
                    dirs.push(p.clone());
                }
                stack.push(p);
            }
        }
    }
    dirs
}

/// Lints the whole workspace rooted at `root`; returns every finding.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let rel_of = |p: &Path| {
        p.strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/")
    };

    for crate_dir in crate_dirs(root) {
        let manifest = std::fs::read_to_string(crate_dir.join("Cargo.toml")).unwrap_or_default();
        // Rule: forbid-unsafe, checked at the crate root source.
        for root_name in ["src/lib.rs", "src/main.rs"] {
            let candidate = crate_dir.join(root_name);
            if let Ok(src) = std::fs::read_to_string(&candidate) {
                check_forbid_unsafe(&rel_of(&candidate), &src, &manifest, &mut findings);
                break;
            }
        }
        // Token rules over every source file of the crate.
        let mut files = Vec::new();
        rs_files(&crate_dir.join("src"), &mut files);
        for f in files {
            let rel = rel_of(&f);
            if EXCLUDED.iter().any(|e| rel.contains(e)) {
                continue;
            }
            // The root package's walk would otherwise descend into
            // crates/ again via crate_dirs; src/ only, so no overlap.
            let Ok(src) = std::fs::read_to_string(&f) else {
                continue;
            };
            findings.extend(lint_source(&rel, &src, ctx_for(&rel)));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_mapping_matches_the_issue() {
        assert!(ctx_for("crates/algebra/src/frozen.rs").determinism);
        assert!(ctx_for("crates/algebra/src/frozen.rs").interior_mut);
        assert!(ctx_for("crates/core/src/bits.rs").no_panic);
        assert!(ctx_for("crates/core/src/theorem1/verifier.rs").no_panic);
        assert!(ctx_for("crates/core/src/theorem1/prover.rs").no_panic);
        assert!(ctx_for("crates/core/src/certifier.rs").no_panic);
        assert!(ctx_for("crates/core/src/pointer.rs").no_panic);
        let engine = ctx_for("crates/engine/src/pool.rs");
        assert!(!engine.determinism && !engine.no_panic && !engine.interior_mut);
        // obs-clock: everywhere except the obs crate itself and the
        // determinism crates (whose stricter rule subsumes it).
        assert!(engine.obs_clock);
        assert!(ctx_for("crates/bench/src/lib.rs").obs_clock);
        assert!(!ctx_for("crates/obs/src/clock.rs").obs_clock);
        assert!(!ctx_for("crates/algebra/src/frozen.rs").obs_clock);
    }
}
