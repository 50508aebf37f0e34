//! Each fixture under `tests/fixtures/` violates exactly one rule; this
//! test pins that the linter reports it (right rule id, right count) —
//! and that the real workspace itself is clean, which is the same check
//! CI's `check-lint` job runs via `cargo run -p check -- lint`.

use std::path::Path;

use check::rules::{check_forbid_unsafe, lint_source, FileCtx};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rule_counts(findings: &[check::rules::Finding]) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for f in findings {
        match counts.iter_mut().find(|(r, _)| *r == f.rule) {
            Some((_, n)) => *n += 1,
            None => counts.push((f.rule.clone(), 1)),
        }
    }
    counts
}

#[test]
fn determinism_fixture_fails_with_its_rule() {
    let ctx = FileCtx {
        determinism: true,
        ..FileCtx::default()
    };
    let findings = lint_source("determinism.rs", &fixture("determinism.rs"), ctx);
    assert_eq!(rule_counts(&findings), [("determinism".to_string(), 3)]);
}

#[test]
fn no_panic_fixture_fails_with_its_rule() {
    let ctx = FileCtx {
        no_panic: true,
        ..FileCtx::default()
    };
    let findings = lint_source("no_panic.rs", &fixture("no_panic.rs"), ctx);
    assert_eq!(rule_counts(&findings), [("no-panic".to_string(), 3)]);
}

#[test]
fn refcell_borrow_fixture_fails_the_no_panic_rule() {
    let ctx = FileCtx {
        no_panic: true,
        ..FileCtx::default()
    };
    let findings = lint_source("no_panic_borrow.rs", &fixture("no_panic_borrow.rs"), ctx);
    assert_eq!(rule_counts(&findings), [("no-panic".to_string(), 2)]);
}

#[test]
fn zero_alloc_fixture_fails_with_its_rule() {
    let findings = lint_source(
        "zero_alloc.rs",
        &fixture("zero_alloc.rs"),
        FileCtx::default(),
    );
    assert_eq!(rule_counts(&findings), [("zero-alloc".to_string(), 2)]);
}

#[test]
fn interior_mut_fixture_fails_with_its_rule() {
    let ctx = FileCtx {
        interior_mut: true,
        ..FileCtx::default()
    };
    let findings = lint_source("interior_mut.rs", &fixture("interior_mut.rs"), ctx);
    assert_eq!(rule_counts(&findings), [("interior-mut".to_string(), 4)]);
}

#[test]
fn obs_clock_fixture_fails_with_its_rule() {
    let ctx = FileCtx {
        obs_clock: true,
        ..FileCtx::default()
    };
    let findings = lint_source("obs_clock.rs", &fixture("obs_clock.rs"), ctx);
    assert_eq!(rule_counts(&findings), [("obs-clock".to_string(), 2)]);
}

#[test]
fn obs_clock_defers_to_the_determinism_rule() {
    // In a determinism crate the same tokens are the determinism rule's
    // findings — obs-clock stays silent so no site is reported twice.
    let ctx = FileCtx {
        obs_clock: true,
        determinism: true,
        ..FileCtx::default()
    };
    let findings = lint_source("obs_clock.rs", &fixture("obs_clock.rs"), ctx);
    assert_eq!(rule_counts(&findings), [("determinism".to_string(), 2)]);
}

#[test]
fn forbid_unsafe_fixture_fails_with_its_rule() {
    let mut findings = Vec::new();
    check_forbid_unsafe(
        "forbid_unsafe.rs",
        &fixture("forbid_unsafe.rs"),
        "[package]\nname = \"fixture\"\n",
        &mut findings,
    );
    assert_eq!(rule_counts(&findings), [("forbid-unsafe".to_string(), 1)]);
}

#[test]
fn bad_directive_fixture_reports_each_malformation() {
    let findings = lint_source(
        "bad_directive.rs",
        &fixture("bad_directive.rs"),
        FileCtx::default(),
    );
    assert_eq!(rule_counts(&findings), [("lint-directive".to_string(), 3)]);
}

#[test]
fn fixtures_are_rule_neutral_outside_their_context() {
    // A fixture's violations exist only under its rule context: the same
    // sources lint clean with every context flag off (zero-alloc regions
    // and directives excepted, which are context-free by design).
    for name in [
        "determinism.rs",
        "no_panic.rs",
        "interior_mut.rs",
        "obs_clock.rs",
    ] {
        let findings = lint_source(name, &fixture(name), FileCtx::default());
        assert!(findings.is_empty(), "{name}: {findings:?}");
    }
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = check::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/check");
    let findings = check::lint_workspace(&root);
    assert!(
        findings.is_empty(),
        "the workspace must lint clean; run `cargo run -p check -- lint`:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
