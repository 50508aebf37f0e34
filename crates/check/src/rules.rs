//! The repo-specific invariant rules.
//!
//! | rule id        | invariant                                                          |
//! |----------------|--------------------------------------------------------------------|
//! | `forbid-unsafe`| every crate forbids `unsafe_code` (attr or workspace lints)        |
//! | `determinism`  | no wall clock / random hash state in determinism-critical crates   |
//! | `zero-alloc`   | no allocating calls inside `// lint: zero-alloc { … }` regions     |
//! | `no-panic`     | no `unwrap`/`expect`/`panic!`/`RefCell` borrow in wire modules     |
//! | `interior-mut` | no interior mutability in `crates/algebra` outside the sealed tail |
//! | `obs-clock`    | raw `Instant::now`/`SystemTime` only inside `crates/obs`           |
//!
//! Any finding can be suppressed at its site with
//! `// lint: allow(<rule>) reason="…"` on the same line or the line
//! before the offending statement (coverage extends through the
//! statement's closing `;`, so wrapped call chains stay covered); the
//! reason is mandatory. Bodies of `#[cfg(test)]` modules are exempt from
//! every token rule — tests legitimately unwrap, time, and hash
//! randomly.

use crate::lexer::{lex, Lexed, Tok, Token};

/// Every rule id, for directive validation and docs.
pub const RULES: &[&str] = &[
    "forbid-unsafe",
    "determinism",
    "zero-alloc",
    "no-panic",
    "interior-mut",
    "obs-clock",
];

/// Which rules apply to one file (derived from its path by the walker).
#[derive(Debug, Default, Clone, Copy)]
pub struct FileCtx {
    /// File lives in a determinism-critical crate.
    pub determinism: bool,
    /// File is reachable from adversarial wire bytes.
    pub no_panic: bool,
    /// File lives in `crates/algebra`.
    pub interior_mut: bool,
    /// File must route timing through `lanecert_obs::Clock` — every
    /// crate except `crates/obs` (which hosts the audited raw-clock
    /// sites) and the determinism crates (where the stricter
    /// `determinism` rule already reports the same tokens).
    pub obs_clock: bool,
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as reported (workspace-relative where possible).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (one of [`RULES`], or `lint-directive` for a malformed
    /// directive).
    pub rule: String,
    /// Human-readable explanation.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// A parsed `// lint:` directive.
enum Directive {
    Allow { line: u32, rule: String },
    RegionOpen { line: u32 },
    RegionClose { line: u32 },
}

/// Parses directives out of the line comments; malformed ones become
/// findings immediately.
fn parse_directives(file: &str, lexed: &Lexed, findings: &mut Vec<Finding>) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let t = c.text.trim();
        let Some(rest) = t.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim();
        if rest == "zero-alloc {" {
            out.push(Directive::RegionOpen { line: c.line });
        } else if rest == "}" {
            out.push(Directive::RegionClose { line: c.line });
        } else if let Some(spec) = rest.strip_prefix("allow(") {
            let Some(close) = spec.find(')') else {
                findings.push(bad_directive(file, c.line, "missing ')'"));
                continue;
            };
            let rule = spec[..close].trim().to_string();
            if !RULES.contains(&rule.as_str()) {
                findings.push(bad_directive(
                    file,
                    c.line,
                    &format!("unknown rule '{rule}'"),
                ));
                continue;
            }
            let tail = spec[close + 1..].trim();
            let reason_ok = tail
                .strip_prefix("reason=\"")
                .and_then(|r| r.strip_suffix('"'))
                .is_some_and(|r| !r.trim().is_empty());
            if !reason_ok {
                findings.push(bad_directive(
                    file,
                    c.line,
                    "suppressions require reason=\"…\"",
                ));
                continue;
            }
            out.push(Directive::Allow { line: c.line, rule });
        } else {
            findings.push(bad_directive(file, c.line, "unrecognized directive"));
        }
    }
    out
}

fn bad_directive(file: &str, line: u32, why: &str) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule: "lint-directive".into(),
        msg: format!("malformed `// lint:` directive: {why}"),
    }
}

/// Marks token indices inside `#[cfg(test)] mod … { … }` bodies.
fn test_mod_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let is = |i: usize, s: &str| matches!(&tokens.get(i).map(|t| &t.tok), Some(Tok::Ident(id)) if id == s);
    let p =
        |i: usize, c: char| matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(x)) if *x == c);
    let mut i = 0;
    while i < tokens.len() {
        // `# [ cfg ( test ) ]`
        if p(i, '#')
            && p(i + 1, '[')
            && is(i + 2, "cfg")
            && p(i + 3, '(')
            && is(i + 4, "test")
            && p(i + 5, ')')
            && p(i + 6, ']')
        {
            // Skip any further attributes, then expect `mod name {`.
            let mut j = i + 7;
            while p(j, '#') && p(j + 1, '[') {
                let mut depth = 0;
                let mut k = j + 1;
                loop {
                    match tokens.get(k).map(|t| &t.tok) {
                        Some(Tok::Punct('[')) => depth += 1,
                        Some(Tok::Punct(']')) => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        None => break,
                        _ => {}
                    }
                    k += 1;
                }
                j = k + 1;
            }
            if is(j, "mod") {
                // Find the opening brace, then its match.
                let mut k = j;
                while k < tokens.len() && !p(k, '{') && !p(k, ';') {
                    k += 1;
                }
                if p(k, '{') {
                    let mut depth = 0;
                    let start = k;
                    while k < tokens.len() {
                        match tokens[k].tok {
                            Tok::Punct('{') => depth += 1,
                            Tok::Punct('}') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    for m in mask
                        .iter_mut()
                        .take(k.min(tokens.len() - 1) + 1)
                        .skip(start)
                    {
                        *m = true;
                    }
                    i = k + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    mask
}

/// Lints one file's source, given which rule sets its path puts it under.
pub fn lint_source(file: &str, src: &str, ctx: FileCtx) -> Vec<Finding> {
    let lexed = lex(src);
    let mut findings = Vec::new();
    let directives = parse_directives(file, &lexed, &mut findings);

    // Suppression coverage: a directive at line L covers L itself plus
    // the statement beginning on the next code line, through the line of
    // its terminating `;` — so rustfmt wrapping a call chain across
    // lines cannot strand the finding outside the suppression.
    let allow_ranges: Vec<(&str, u32, u32)> = directives
        .iter()
        .filter_map(|d| match d {
            Directive::Allow { line, rule } => {
                let start = lexed
                    .tokens
                    .iter()
                    .find(|t| t.line > *line)
                    .map_or(line + 1, |t| t.line);
                // Capped so a semicolon-less item (struct field, tail
                // expression) cannot stretch coverage far down the file.
                let end = lexed
                    .tokens
                    .iter()
                    .find(|t| t.line >= start && t.tok == Tok::Punct(';'))
                    .map_or(start, |t| t.line)
                    .min(line + 8);
                Some((rule.as_str(), *line, end))
            }
            _ => None,
        })
        .collect();
    let allowed = |rule: &str, line: u32| {
        allow_ranges
            .iter()
            .any(|&(r, a, b)| r == rule && a <= line && line <= b)
    };

    // Zero-alloc regions: pair opens and closes in order.
    let mut regions: Vec<(u32, u32)> = Vec::new();
    let mut open: Option<u32> = None;
    for d in &directives {
        match d {
            Directive::RegionOpen { line } => {
                if let Some(prev) = open {
                    findings.push(Finding {
                        file: file.into(),
                        line: *line,
                        rule: "lint-directive".into(),
                        msg: format!("nested zero-alloc region (previous opened at line {prev})"),
                    });
                } else {
                    open = Some(*line);
                }
            }
            Directive::RegionClose { line } => match open.take() {
                Some(start) => regions.push((start, *line)),
                None => findings.push(Finding {
                    file: file.into(),
                    line: *line,
                    rule: "lint-directive".into(),
                    msg: "unmatched `// lint: }`".into(),
                }),
            },
            Directive::Allow { .. } => {}
        }
    }
    if let Some(start) = open {
        findings.push(Finding {
            file: file.into(),
            line: start,
            rule: "lint-directive".into(),
            msg: "zero-alloc region never closed".into(),
        });
    }
    let in_region = |line: u32| regions.iter().any(|&(a, b)| a < line && line < b);

    let toks = &lexed.tokens;
    let mask = test_mod_mask(toks);
    let ident = |i: usize| match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct =
        |i: usize, c: char| matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(x)) if *x == c);
    let path2 = |i: usize, a: &str, b: &str| {
        ident(i) == Some(a) && punct(i + 1, ':') && punct(i + 2, ':') && ident(i + 3) == Some(b)
    };

    let push = |rule: &str, line: u32, msg: String, findings: &mut Vec<Finding>| {
        if !allowed(rule, line) {
            findings.push(Finding {
                file: file.into(),
                line,
                rule: rule.into(),
                msg,
            });
        }
    };

    for i in 0..toks.len() {
        if mask[i] {
            continue; // #[cfg(test)] module body
        }
        let line = toks[i].line;

        if ctx.determinism {
            if path2(i, "Instant", "now") {
                push(
                    "determinism",
                    line,
                    "`Instant::now` in a determinism-critical crate".into(),
                    &mut findings,
                );
            }
            if ident(i) == Some("SystemTime") {
                push(
                    "determinism",
                    line,
                    "`SystemTime` in a determinism-critical crate".into(),
                    &mut findings,
                );
            }
            if ident(i) == Some("RandomState") {
                push(
                    "determinism",
                    line,
                    "`RandomState` in a determinism-critical crate".into(),
                    &mut findings,
                );
            }
        }

        if ctx.obs_clock && !ctx.determinism {
            if path2(i, "Instant", "now") {
                push(
                    "obs-clock",
                    line,
                    "raw `Instant::now` outside crates/obs — time through `lanecert_obs::Clock`"
                        .into(),
                    &mut findings,
                );
            }
            if ident(i) == Some("SystemTime") {
                push(
                    "obs-clock",
                    line,
                    "raw `SystemTime` outside crates/obs — use `lanecert_obs::wall_entropy_ns`"
                        .into(),
                    &mut findings,
                );
            }
        }

        if ctx.no_panic {
            let why = match ident(i + 1) {
                Some("unwrap" | "expect") => "malformed input must reject, not panic",
                Some("borrow" | "borrow_mut") => {
                    "a `RefCell` borrow panics on a conflict: use `try_borrow_mut`"
                }
                _ => "",
            };
            if punct(i, '.') && !why.is_empty() && punct(i + 2, '(') {
                push(
                    "no-panic",
                    toks[i + 1].line,
                    format!(
                        "`.{}()` in an adversarial-wire module ({why})",
                        ident(i + 1).unwrap_or_default()
                    ),
                    &mut findings,
                );
            }
            if matches!(
                ident(i),
                Some("panic" | "unreachable" | "todo" | "unimplemented")
            ) && punct(i + 1, '!')
            {
                push(
                    "no-panic",
                    line,
                    format!(
                        "`{}!` in an adversarial-wire module",
                        ident(i).unwrap_or_default()
                    ),
                    &mut findings,
                );
            }
        }

        if ctx.interior_mut {
            let hit = match ident(i) {
                Some(s)
                    if matches!(
                        s,
                        "RefCell"
                            | "Cell"
                            | "UnsafeCell"
                            | "Mutex"
                            | "RwLock"
                            | "OnceLock"
                            | "OnceCell"
                            | "LazyLock"
                    ) || s.starts_with("Atomic") =>
                {
                    Some(s)
                }
                _ => None,
            };
            if let Some(name) = hit {
                push(
                    "interior-mut",
                    line,
                    format!(
                        "interior mutability (`{name}`) in crates/algebra outside the sealed tail"
                    ),
                    &mut findings,
                );
            }
        }

        if in_region(line) {
            let hit: Option<String> = if path2(i, "Vec", "new")
                || path2(i, "Box", "new")
                || path2(i, "String", "new")
                || path2(i, "String", "from")
            {
                Some(format!(
                    "{}::{}",
                    ident(i).unwrap_or_default(),
                    ident(i + 3).unwrap_or_default()
                ))
            } else if punct(i, '.')
                && matches!(
                    ident(i + 1),
                    Some("clone" | "to_vec" | "to_string" | "to_owned")
                )
                && punct(i + 2, '(')
            {
                Some(format!(".{}()", ident(i + 1).unwrap_or_default()))
            } else if matches!(ident(i), Some("format" | "vec")) && punct(i + 1, '!') {
                Some(format!("{}!", ident(i).unwrap_or_default()))
            } else if ident(i) == Some("with_capacity") {
                Some("with_capacity".into())
            } else {
                None
            };
            if let Some(what) = hit {
                push(
                    "zero-alloc",
                    line,
                    format!("allocating call `{what}` inside a zero-alloc region"),
                    &mut findings,
                );
            }
        }
    }
    findings
}

/// Checks a crate root source for `#![forbid(unsafe_code)]` when its
/// manifest does not adopt the workspace lint table.
pub fn check_forbid_unsafe(
    file: &str,
    root_src: &str,
    manifest: &str,
    findings: &mut Vec<Finding>,
) {
    if manifest_adopts_workspace_lints(manifest) {
        return;
    }
    let lexed = lex(root_src);
    let toks = &lexed.tokens;
    let has = (0..toks.len()).any(|i| {
        matches!(&toks[i].tok, Tok::Ident(s) if s == "forbid")
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
            && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "unsafe_code")
    });
    if !has {
        findings.push(Finding {
            file: file.into(),
            line: 1,
            rule: "forbid-unsafe".into(),
            msg: "crate neither declares `#![forbid(unsafe_code)]` nor adopts `[lints] workspace = true`"
                .into(),
        });
    }
}

/// `true` if the manifest contains a `[lints]` table with
/// `workspace = true` (line-based scan; good enough for this repo's
/// hand-written manifests).
pub fn manifest_adopts_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_lints = t == "[lints]";
        } else if in_lints && t.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn determinism_rule_fires_and_suppresses() {
        let ctx = FileCtx {
            determinism: true,
            ..FileCtx::default()
        };
        let f = lint_source("x.rs", "let t = std::time::SystemTime::now();", ctx);
        assert_eq!(rules_of(&f), ["determinism"]);
        let f = lint_source(
            "x.rs",
            "// lint: allow(determinism) reason=\"nonce, hashed not ordered\"\nlet t = std::time::SystemTime::now();",
            ctx,
        );
        assert!(f.is_empty());
    }

    #[test]
    fn suppression_requires_reason() {
        let ctx = FileCtx {
            determinism: true,
            ..FileCtx::default()
        };
        let f = lint_source(
            "x.rs",
            "// lint: allow(determinism)\nlet t = SystemTime::now();",
            ctx,
        );
        assert_eq!(rules_of(&f), ["lint-directive", "determinism"]);
    }

    #[test]
    fn suppression_covers_wrapped_statements() {
        let ctx = FileCtx {
            no_panic: true,
            ..FileCtx::default()
        };
        // rustfmt wraps the call chain: the `.expect` sits two lines
        // below the directive but inside the same statement.
        let src = "// lint: allow(no-panic) reason=\"encode side\"\nout.offsets\n    .push(x.expect(\"overflow\"));\nlet y = z.unwrap();";
        let f = lint_source("x.rs", src, ctx);
        assert_eq!(rules_of(&f), ["no-panic"]);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn no_panic_ignores_unwrap_or() {
        let ctx = FileCtx {
            no_panic: true,
            ..FileCtx::default()
        };
        let f = lint_source(
            "x.rs",
            "let v = o.unwrap_or(0).max(x.unwrap_or_default());",
            ctx,
        );
        assert!(f.is_empty());
        let f = lint_source("x.rs", "let v = o.unwrap();", ctx);
        assert_eq!(rules_of(&f), ["no-panic"]);
    }

    #[test]
    fn test_mods_are_exempt() {
        let ctx = FileCtx {
            no_panic: true,
            determinism: true,
            ..FileCtx::default()
        };
        let src = r#"
            fn prod() {}
            #[cfg(test)]
            mod tests {
                use std::hash::RandomState;
                #[test]
                fn t() { Some(1).unwrap(); }
            }
        "#;
        assert!(lint_source("x.rs", src, ctx).is_empty());
    }

    #[test]
    fn zero_alloc_region_catches_allocs() {
        let src = r#"
            let a = Vec::new(); // outside: fine
            // lint: zero-alloc {
            let b = x.clone();
            // lint: }
            let c = y.clone(); // outside again
        "#;
        let f = lint_source("x.rs", src, FileCtx::default());
        assert_eq!(rules_of(&f), ["zero-alloc"]);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn unclosed_region_is_reported() {
        let f = lint_source(
            "x.rs",
            "// lint: zero-alloc {\nlet a = 1;",
            FileCtx::default(),
        );
        assert_eq!(rules_of(&f), ["lint-directive"]);
    }

    #[test]
    fn forbid_unsafe_checks_attr_or_manifest() {
        let mut f = Vec::new();
        check_forbid_unsafe(
            "lib.rs",
            "#![forbid(unsafe_code)]\npub fn x() {}",
            "[package]",
            &mut f,
        );
        assert!(f.is_empty());
        check_forbid_unsafe(
            "lib.rs",
            "pub fn x() {}",
            "[package]\n\n[lints]\nworkspace = true",
            &mut f,
        );
        assert!(f.is_empty());
        check_forbid_unsafe("lib.rs", "pub fn x() {}", "[package]", &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "forbid-unsafe");
    }
}
