//! A small s-expression surface syntax for [`Formula`], plus the
//! canonical renderer used to fingerprint compiled schemes.
//!
//! # Grammar
//!
//! ```text
//! f ::= true | false
//!     | (not f) | (and f f ...) | (or f f ...) | (implies f f) | (iff f f)
//!     | (exists-vertex x f) | (forall-vertex x f)
//!     | (exists-edge   x f) | (forall-edge   x f)
//!     | (exists-vset   X f) | (forall-vset   X f)
//!     | (exists-eset   Y f) | (forall-eset   Y f)
//!     | (in x X)            -- vertex∈vertex-set or edge∈edge-set
//!     | (inc e v)           -- edge e is incident to vertex v
//!     | (adj u v)           -- vertices u, v joined by an edge
//!     | (= a b)             -- same vertex / same edge (sorts must agree)
//! ```
//!
//! `and`/`or` are n-ary (folded right-associatively). Identifiers are
//! arbitrary non-parenthesis tokens, scoped lexically with shadowing;
//! sorts are attached at the binder and inferred at use sites.
//!
//! [`canonical`] renders a formula with variables renumbered in binder
//! pre-order (`v0`, `e1`, `X2`, `Y3`, … prefixed by sort), so two
//! α-equivalent formulas print identically: the printed form is the
//! compiled scheme's identity, and `canonical(parse(canonical(f))) ==
//! canonical(f)`.

use std::fmt;

use crate::{Formula, Sort, Var};

/// Why an s-expression failed to parse into a closed, well-sorted
/// formula.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    msg: String,
}

impl ParseError {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "formula parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Token {
    Open,
    Close,
    Atom(String),
}

fn tokenize(src: &str) -> Vec<Token> {
    let mut out = Vec::new();
    let mut atom = String::new();
    for c in src.chars() {
        match c {
            '(' | ')' => {
                if !atom.is_empty() {
                    out.push(Token::Atom(std::mem::take(&mut atom)));
                }
                out.push(if c == '(' { Token::Open } else { Token::Close });
            }
            c if c.is_whitespace() => {
                if !atom.is_empty() {
                    out.push(Token::Atom(std::mem::take(&mut atom)));
                }
            }
            c => atom.push(c),
        }
    }
    if !atom.is_empty() {
        out.push(Token::Atom(atom));
    }
    out
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Lexical scope: innermost binding of each name wins.
    scope: Vec<(String, Sort, Var)>,
    next_var: Var,
}

impl<'a> Parser<'a> {
    fn next(&mut self) -> Result<&'a Token, ParseError> {
        let t = self
            .tokens
            .get(self.pos)
            .ok_or_else(|| ParseError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn atom(&mut self) -> Result<&'a str, ParseError> {
        match self.next()? {
            Token::Atom(s) => Ok(s),
            t => Err(ParseError::new(format!(
                "expected an identifier, found {t:?}"
            ))),
        }
    }

    fn close(&mut self) -> Result<(), ParseError> {
        match self.next()? {
            Token::Close => Ok(()),
            t => Err(ParseError::new(format!("expected ')', found {t:?}"))),
        }
    }

    fn lookup(&self, name: &str) -> Result<(Sort, Var), ParseError> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map(|(_, s, v)| (*s, *v))
            .ok_or_else(|| ParseError::new(format!("unbound identifier '{name}'")))
    }

    fn var_of(&mut self, sort: Sort) -> Result<Var, ParseError> {
        let name = self.atom()?;
        let (bound, var) = self.lookup(name)?;
        if bound != sort {
            return Err(ParseError::new(format!(
                "'{name}' is bound as {bound:?} but used as {sort:?}"
            )));
        }
        Ok(var)
    }

    fn binder(&mut self, sort: Sort, forall: bool) -> Result<Formula, ParseError> {
        let name = self.atom()?.to_string();
        let var = self.next_var;
        self.next_var += 1;
        self.scope.push((name, sort, var));
        let body = self.formula();
        self.scope.pop();
        let body = Box::new(body?);
        self.close()?;
        Ok(if forall {
            Formula::Forall(sort, var, body)
        } else {
            Formula::Exists(sort, var, body)
        })
    }

    /// Folds `(op a b c)` as `op(a, op(b, c))`.
    fn nary(
        &mut self,
        make: fn(Box<Formula>, Box<Formula>) -> Formula,
    ) -> Result<Formula, ParseError> {
        let mut parts = Vec::new();
        while !matches!(self.tokens.get(self.pos), Some(Token::Close)) {
            parts.push(self.formula()?);
        }
        self.close()?;
        let mut iter = parts.into_iter().rev();
        let last = iter
            .next()
            .ok_or_else(|| ParseError::new("and/or needs at least one operand"))?;
        Ok(iter.fold(last, |acc, f| make(Box::new(f), Box::new(acc))))
    }

    fn binary(
        &mut self,
        make: fn(Box<Formula>, Box<Formula>) -> Formula,
    ) -> Result<Formula, ParseError> {
        let a = self.formula()?;
        let b = self.formula()?;
        self.close()?;
        Ok(make(Box::new(a), Box::new(b)))
    }

    fn formula(&mut self) -> Result<Formula, ParseError> {
        match self.next()? {
            Token::Atom(s) => match s.as_str() {
                "true" => Ok(Formula::True),
                "false" => Ok(Formula::False),
                other => Err(ParseError::new(format!("unexpected token '{other}'"))),
            },
            Token::Close => Err(ParseError::new("unexpected ')'")),
            Token::Open => {
                let head = self.atom()?;
                match head {
                    "not" => {
                        let a = self.formula()?;
                        self.close()?;
                        Ok(Formula::Not(Box::new(a)))
                    }
                    "and" => self.nary(Formula::And),
                    "or" => self.nary(Formula::Or),
                    "implies" => self.binary(Formula::Implies),
                    "iff" => self.binary(Formula::Iff),
                    "exists-vertex" => self.binder(Sort::Vertex, false),
                    "forall-vertex" => self.binder(Sort::Vertex, true),
                    "exists-edge" => self.binder(Sort::Edge, false),
                    "forall-edge" => self.binder(Sort::Edge, true),
                    "exists-vset" => self.binder(Sort::VertexSet, false),
                    "forall-vset" => self.binder(Sort::VertexSet, true),
                    "exists-eset" => self.binder(Sort::EdgeSet, false),
                    "forall-eset" => self.binder(Sort::EdgeSet, true),
                    "in" => {
                        let name = self.atom()?;
                        let (sort, var) = self.lookup(name)?;
                        let f = match sort {
                            Sort::Vertex => Formula::InVSet(var, self.var_of(Sort::VertexSet)?),
                            Sort::Edge => Formula::InESet(var, self.var_of(Sort::EdgeSet)?),
                            other => {
                                return Err(ParseError::new(format!(
                                    "first argument of 'in' must be a vertex or edge, '{name}' is {other:?}"
                                )))
                            }
                        };
                        self.close()?;
                        Ok(f)
                    }
                    "inc" => {
                        let e = self.var_of(Sort::Edge)?;
                        let v = self.var_of(Sort::Vertex)?;
                        self.close()?;
                        Ok(Formula::Inc(e, v))
                    }
                    "adj" => {
                        let u = self.var_of(Sort::Vertex)?;
                        let v = self.var_of(Sort::Vertex)?;
                        self.close()?;
                        Ok(Formula::Adj(u, v))
                    }
                    "=" => {
                        let name = self.atom()?;
                        let (sort, a) = self.lookup(name)?;
                        let f = match sort {
                            Sort::Vertex => Formula::EqV(a, self.var_of(Sort::Vertex)?),
                            Sort::Edge => Formula::EqE(a, self.var_of(Sort::Edge)?),
                            other => {
                                return Err(ParseError::new(format!(
                                    "'=' compares vertices or edges, '{name}' is {other:?}"
                                )))
                            }
                        };
                        self.close()?;
                        Ok(f)
                    }
                    other => Err(ParseError::new(format!("unknown form '{other}'"))),
                }
            }
        }
    }
}

/// Parses one formula from s-expression syntax.
///
/// # Errors
///
/// [`ParseError`] on malformed syntax, unbound identifiers, sort
/// mismatches, or trailing input.
pub fn parse(src: &str) -> Result<Formula, ParseError> {
    let tokens = tokenize(src);
    let mut p = Parser {
        tokens: &tokens,
        pos: 0,
        scope: Vec::new(),
        next_var: 0,
    };
    let f = p.formula()?;
    if p.pos != tokens.len() {
        return Err(ParseError::new("trailing input after formula"));
    }
    Ok(f)
}

fn sort_prefix(sort: Sort) -> char {
    match sort {
        Sort::Vertex => 'v',
        Sort::Edge => 'e',
        Sort::VertexSet => 'X',
        Sort::EdgeSet => 'Y',
    }
}

/// Renders a formula in canonical s-expression form: variables are
/// renumbered in binder pre-order and prefixed by sort, so the output
/// is identical across α-equivalent formulas and stable across
/// construction styles. Used as the compiled scheme's identity.
#[must_use]
pub fn canonical(f: &Formula) -> String {
    let mut out = String::new();
    let mut scope: Vec<(Var, Sort, u32)> = Vec::new();
    let mut counter = 0u32;
    render(f, &mut out, &mut scope, &mut counter);
    out
}

fn var_name(scope: &[(Var, Sort, u32)], var: Var) -> String {
    scope.iter().rev().find(|(v, _, _)| *v == var).map_or_else(
        || format!("?{var}"),
        |(_, s, i)| format!("{}{i}", sort_prefix(*s)),
    )
}

fn render(f: &Formula, out: &mut String, scope: &mut Vec<(Var, Sort, u32)>, counter: &mut u32) {
    use std::fmt::Write as _;
    use Formula as F;
    match f {
        F::True => out.push_str("true"),
        F::False => out.push_str("false"),
        F::InVSet(v, s) | F::InESet(v, s) => {
            let _ = write!(out, "(in {} {})", var_name(scope, *v), var_name(scope, *s));
        }
        F::Inc(e, v) => {
            let _ = write!(out, "(inc {} {})", var_name(scope, *e), var_name(scope, *v));
        }
        F::Adj(u, v) => {
            let _ = write!(out, "(adj {} {})", var_name(scope, *u), var_name(scope, *v));
        }
        F::EqV(a, b) | F::EqE(a, b) => {
            let _ = write!(out, "(= {} {})", var_name(scope, *a), var_name(scope, *b));
        }
        F::Not(a) => {
            out.push_str("(not ");
            render(a, out, scope, counter);
            out.push(')');
        }
        F::And(a, b) | F::Or(a, b) | F::Implies(a, b) | F::Iff(a, b) => {
            let head = match f {
                F::And(..) => "and",
                F::Or(..) => "or",
                F::Implies(..) => "implies",
                _ => "iff",
            };
            let _ = write!(out, "({head} ");
            render(a, out, scope, counter);
            out.push(' ');
            render(b, out, scope, counter);
            out.push(')');
        }
        F::Exists(sort, var, body) | F::Forall(sort, var, body) => {
            let head = if matches!(f, F::Exists(..)) {
                "exists"
            } else {
                "forall"
            };
            let tail = match sort {
                Sort::Vertex => "vertex",
                Sort::Edge => "edge",
                Sort::VertexSet => "vset",
                Sort::EdgeSet => "eset",
            };
            let idx = *counter;
            *counter += 1;
            let _ = write!(out, "({head}-{tail} {}{idx} ", sort_prefix(*sort));
            scope.push((*var, *sort, idx));
            render(body, out, scope, counter);
            scope.pop();
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval, props};
    use lanecert_graph::generators;

    #[test]
    fn canonical_round_trips() {
        for f in [
            props::bipartite(),
            props::connected(),
            props::acyclic(),
            props::triangle_free(),
            props::max_degree_at_most(3),
            props::dominating_set_at_most(2),
            props::perfect_matching(),
            props::colorable(3),
        ] {
            let printed = canonical(&f);
            let reparsed = parse(&printed).expect("canonical form parses");
            assert_eq!(canonical(&reparsed), printed, "round trip: {printed}");
        }
    }

    #[test]
    fn parsed_formula_evaluates_like_the_builder() {
        let src = "(exists-vset X (forall-vertex u (forall-vertex v \
                   (implies (adj u v) (not (iff (in u X) (in v X)))))))";
        let f = parse(src).unwrap();
        assert_eq!(canonical(&f), canonical(&props::bipartite()));
        assert!(eval::check(&generators::cycle_graph(4), &f));
        assert!(!eval::check(&generators::cycle_graph(5), &f));
    }

    #[test]
    fn nary_and_shadowing() {
        // n-ary and + an inner binder shadowing the outer 'x'.
        let f = parse("(exists-vertex x (and true (exists-vertex x (= x x)) (not (adj x x))))")
            .unwrap();
        assert!(eval::check(&generators::path_graph(2), &f));
    }

    #[test]
    fn parse_errors_are_clean() {
        for bad in [
            "",
            "(",
            ")",
            "(and)",
            "(adj u v)",                  // unbound
            "(exists-vertex x (in x x))", // sort error
            "(frobnicate)",
            "true true", // trailing input
        ] {
            assert!(parse(bad).is_err(), "expected error: {bad:?}");
        }
    }

    #[test]
    fn label_forms_are_unknown() {
        // Networks carry no input labels, so the grammar has no label
        // atoms: naming one is a parse error, not a constant atom.
        for (src, form) in [
            ("(exists-vertex x (vlabel x 0))", "vlabel"),
            ("(exists-edge e (elabel e 0))", "elabel"),
        ] {
            let err = parse(src).unwrap_err();
            assert!(
                err.to_string().contains(&format!("unknown form '{form}'")),
                "{src}: {err}"
            );
        }
    }
}
