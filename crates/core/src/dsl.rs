//! A small expression DSL for impact and error functions.
//!
//! §4.2 of the paper closes with: "We plan in the future to provide a
//! high-level DSL language for non-expert users." This module implements
//! that future work: metric functions can be written as arithmetic
//! expressions over per-container aggregates instead of implementing
//! [`MetricFn`] by hand.
//!
//! # Language
//!
//! Expressions combine numbers, aggregates and functions with
//! `+ - * / ( )`:
//!
//! | aggregate | meaning |
//! |---|---|
//! | `sum_abs_delta` | `Σ\|new − old\|` over changed elements |
//! | `sum_delta` | `Σ ±\|new − old\|`, signed by `new − old` |
//! | `sum_sq_delta` | `Σ(new − old)²` |
//! | `sum_new` / `sum_old` | `Σ new` / `Σ old` over changed elements |
//! | `sum_max` | `Σ max(\|new\|, \|old\|)` over changed elements |
//! | `modified` | the paper's `m` — number of changed elements |
//! | `total` | the paper's `n` — elements in the container |
//! | `prev_sum` | `Σ x'` over **all** elements (Eq. 3's denominator) |
//!
//! A change reads as the built-in metrics read it. Its `|new − old|` is 1
//! when a non-numeric value is on either side, and an inserted or deleted
//! number counts its own magnitude. `sum_delta` adds that same magnitude,
//! negative when the numeric reading fell. In that sign, and in `sum_new`,
//! `sum_old` and `sum_max`, an absent or non-numeric value reads as 0.
//!
//! Functions: `abs(x)`, `sqrt(x)`, `min(a, b)`, `max(a, b)`, `clamp01(x)`.
//!
//! The paper's built-in equations in DSL form:
//!
//! ```text
//! Eq. 1:  sum_abs_delta * modified
//! Eq. 2:  clamp01(sum_abs_delta * modified / (sum_max * total))
//! Eq. 3:  clamp01(sum_abs_delta * modified / (prev_sum * total))
//! Eq. 4:  sqrt(sum_sq_delta / modified)
//! ```
//!
//! # Example
//!
//! ```
//! use smartflux::dsl::compile;
//! use smartflux::{MetricContext, MetricFn};
//! use smartflux_datastore::Value;
//!
//! let kind = compile("clamp01(sum_abs_delta / prev_sum)").unwrap();
//! let mut metric = kind.instantiate();
//! metric.update(Some(&Value::from(12.0)), Some(&Value::from(10.0)));
//! let e = metric.compute(&MetricContext::new(4, 40.0));
//! assert!((e - 0.05).abs() < 1e-12);
//! ```

use std::fmt;
use std::sync::Arc;

use smartflux_datastore::Value;

use crate::metric::{
    change_magnitude, numeric_or_zero, signed_change, MetricContext, MetricFn, MetricKind,
};

/// Errors produced while parsing a DSL expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DslError {
    /// An unexpected character in the source.
    UnexpectedChar {
        /// The offending character.
        ch: char,
        /// Byte position in the source.
        at: usize,
    },
    /// An identifier that is neither an aggregate nor a function.
    UnknownIdentifier(String),
    /// A function received the wrong number of arguments.
    WrongArity {
        /// Function name.
        function: String,
        /// Arguments expected.
        expected: usize,
        /// Arguments supplied.
        found: usize,
    },
    /// The expression ended unexpectedly or had trailing input.
    Malformed(String),
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::UnexpectedChar { ch, at } => {
                write!(f, "unexpected character `{ch}` at byte {at}")
            }
            DslError::UnknownIdentifier(id) => write!(f, "unknown identifier `{id}`"),
            DslError::WrongArity {
                function,
                expected,
                found,
            } => write!(
                f,
                "function `{function}` takes {expected} argument(s), got {found}"
            ),
            DslError::Malformed(msg) => write!(f, "malformed expression: {msg}"),
        }
    }
}

impl std::error::Error for DslError {}

/// The aggregates a metric expression can reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Aggregate {
    SumAbsDelta,
    SumDelta,
    SumSqDelta,
    SumNew,
    SumOld,
    SumMax,
    Modified,
    Total,
    PrevSum,
}

impl Aggregate {
    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "sum_abs_delta" => Aggregate::SumAbsDelta,
            "sum_delta" => Aggregate::SumDelta,
            "sum_sq_delta" => Aggregate::SumSqDelta,
            "sum_new" => Aggregate::SumNew,
            "sum_old" => Aggregate::SumOld,
            "sum_max" => Aggregate::SumMax,
            "modified" => Aggregate::Modified,
            "total" => Aggregate::Total,
            "prev_sum" => Aggregate::PrevSum,
            _ => return None,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Number(f64),
    Aggregate(Aggregate),
    Neg(Box<Expr>),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
    Abs(Box<Expr>),
    Sqrt(Box<Expr>),
    Min(Box<Expr>, Box<Expr>),
    Max(Box<Expr>, Box<Expr>),
    Clamp01(Box<Expr>),
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Number(f64),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
    Comma,
}

fn tokenize(src: &str) -> Result<Vec<Token>, DslError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '.') {
                    i += 1;
                }
                // Scientific notation: 1e-3, 2.5e6.
                if i < bytes.len() && (bytes[i] == 'e' || bytes[i] == 'E') {
                    i += 1;
                    if i < bytes.len() && (bytes[i] == '+' || bytes[i] == '-') {
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text: String = bytes[start..i].iter().collect();
                let value = text
                    .parse::<f64>()
                    .map_err(|_| DslError::Malformed(format!("bad number `{text}`")))?;
                out.push(Token::Number(value));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                out.push(Token::Ident(bytes[start..i].iter().collect()));
            }
            other => return Err(DslError::UnexpectedChar { ch: other, at: i }),
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_token(&mut self, token: &Token, context: &str) -> Result<(), DslError> {
        match self.next() {
            Some(t) if t == *token => Ok(()),
            other => Err(DslError::Malformed(format!(
                "expected {token:?} {context}, found {other:?}"
            ))),
        }
    }

    fn expr(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(Token::Plus) => {
                    self.pos += 1;
                    lhs = Expr::Add(Box::new(lhs), Box::new(self.term()?));
                }
                Some(Token::Minus) => {
                    self.pos += 1;
                    lhs = Expr::Sub(Box::new(lhs), Box::new(self.term()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn term(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.factor()?;
        loop {
            match self.peek() {
                Some(Token::Star) => {
                    self.pos += 1;
                    lhs = Expr::Mul(Box::new(lhs), Box::new(self.factor()?));
                }
                Some(Token::Slash) => {
                    self.pos += 1;
                    lhs = Expr::Div(Box::new(lhs), Box::new(self.factor()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, DslError> {
        match self.next() {
            Some(Token::Number(v)) => Ok(Expr::Number(v)),
            Some(Token::Minus) => Ok(Expr::Neg(Box::new(self.factor()?))),
            Some(Token::LParen) => {
                let inner = self.expr()?;
                self.expect_token(&Token::RParen, "to close group")?;
                Ok(inner)
            }
            Some(Token::Ident(name)) => {
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let mut args = vec![self.expr()?];
                    while self.peek() == Some(&Token::Comma) {
                        self.pos += 1;
                        args.push(self.expr()?);
                    }
                    self.expect_token(&Token::RParen, "to close call")?;
                    Self::call(&name, args)
                } else {
                    Aggregate::from_name(&name)
                        .map(Expr::Aggregate)
                        .ok_or(DslError::UnknownIdentifier(name))
                }
            }
            other => Err(DslError::Malformed(format!(
                "expected a value, found {other:?}"
            ))),
        }
    }

    fn call(name: &str, mut args: Vec<Expr>) -> Result<Expr, DslError> {
        let arity = |expected: usize, args: &Vec<Expr>| {
            if args.len() == expected {
                Ok(())
            } else {
                Err(DslError::WrongArity {
                    function: name.to_owned(),
                    expected,
                    found: args.len(),
                })
            }
        };
        match name {
            "abs" => {
                arity(1, &args)?;
                Ok(Expr::Abs(Box::new(args.remove(0))))
            }
            "sqrt" => {
                arity(1, &args)?;
                Ok(Expr::Sqrt(Box::new(args.remove(0))))
            }
            "clamp01" => {
                arity(1, &args)?;
                Ok(Expr::Clamp01(Box::new(args.remove(0))))
            }
            "min" => {
                arity(2, &args)?;
                let b = args.remove(1);
                Ok(Expr::Min(Box::new(args.remove(0)), Box::new(b)))
            }
            "max" => {
                arity(2, &args)?;
                let b = args.remove(1);
                Ok(Expr::Max(Box::new(args.remove(0)), Box::new(b)))
            }
            other => Err(DslError::UnknownIdentifier(other.to_owned())),
        }
    }
}

/// Per-update aggregate state of a DSL metric.
#[derive(Debug, Clone, Default, PartialEq)]
struct AggregateState {
    sum_abs_delta: f64,
    sum_delta: f64,
    sum_sq_delta: f64,
    sum_new: f64,
    sum_old: f64,
    sum_max: f64,
    modified: usize,
}

impl Expr {
    fn eval(&self, s: &AggregateState, ctx: &MetricContext) -> f64 {
        match self {
            Expr::Number(v) => *v,
            Expr::Aggregate(a) => match a {
                Aggregate::SumAbsDelta => s.sum_abs_delta,
                Aggregate::SumDelta => s.sum_delta,
                Aggregate::SumSqDelta => s.sum_sq_delta,
                Aggregate::SumNew => s.sum_new,
                Aggregate::SumOld => s.sum_old,
                Aggregate::SumMax => s.sum_max,
                Aggregate::Modified => s.modified as f64,
                Aggregate::Total => ctx.total_elements as f64,
                Aggregate::PrevSum => ctx.previous_state_sum,
            },
            Expr::Neg(e) => -e.eval(s, ctx),
            Expr::Add(a, b) => a.eval(s, ctx) + b.eval(s, ctx),
            Expr::Sub(a, b) => a.eval(s, ctx) - b.eval(s, ctx),
            Expr::Mul(a, b) => a.eval(s, ctx) * b.eval(s, ctx),
            Expr::Div(a, b) => a.eval(s, ctx) / b.eval(s, ctx),
            Expr::Abs(e) => e.eval(s, ctx).abs(),
            Expr::Sqrt(e) => e.eval(s, ctx).max(0.0).sqrt(),
            Expr::Min(a, b) => a.eval(s, ctx).min(b.eval(s, ctx)),
            Expr::Max(a, b) => a.eval(s, ctx).max(b.eval(s, ctx)),
            Expr::Clamp01(e) => e.eval(s, ctx).clamp(0.0, 1.0),
        }
    }
}

/// A [`MetricFn`] driven by a compiled DSL expression.
#[derive(Debug, Clone)]
struct DslMetric {
    expr: Arc<Expr>,
    state: AggregateState,
}

impl MetricFn for DslMetric {
    fn reset(&mut self) {
        self.state = AggregateState::default();
    }

    fn update(&mut self, new: Option<&Value>, old: Option<&Value>) {
        // The built-in metrics' reading of a change, so that the DSL forms
        // of Eq. 1–4 equal them on categorical changes, inserts and deletes.
        let d = change_magnitude(new, old);
        if d > 0.0 {
            let (nv, ov) = (numeric_or_zero(new), numeric_or_zero(old));
            let s = &mut self.state;
            s.sum_abs_delta += d;
            s.sum_delta += signed_change(new, old);
            s.sum_sq_delta += d * d;
            s.sum_new += nv;
            s.sum_old += ov;
            s.sum_max += nv.abs().max(ov.abs());
            s.modified += 1;
        }
    }

    fn compute(&self, ctx: &MetricContext) -> f64 {
        let v = self.expr.eval(&self.state, ctx);
        if v.is_nan() {
            0.0
        } else {
            v
        }
    }
}

/// Compiles a DSL expression into a [`MetricKind`] usable anywhere a
/// built-in metric is (QoD specs, engine configuration).
///
/// # Errors
///
/// Returns a [`DslError`] describing the first lexical or syntactic
/// problem.
pub fn compile(src: &str) -> Result<MetricKind, DslError> {
    let tokens = tokenize(src)?;
    if tokens.is_empty() {
        return Err(DslError::Malformed("empty expression".into()));
    }
    let mut parser = Parser { tokens, pos: 0 };
    let expr = parser.expr()?;
    if parser.pos != parser.tokens.len() {
        return Err(DslError::Malformed(format!(
            "trailing input after position {}",
            parser.pos
        )));
    }
    let expr = Arc::new(expr);
    Ok(MetricKind::Custom(Arc::new(move || {
        Box::new(DslMetric {
            expr: Arc::clone(&expr),
            state: AggregateState::default(),
        })
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f64) -> Value {
        Value::from(x)
    }

    fn run(src: &str, pairs: &[(f64, f64)], ctx: &MetricContext) -> f64 {
        let kind = compile(src).expect("compiles");
        let mut m = kind.instantiate();
        for (new, old) in pairs {
            m.update(Some(&v(*new)), Some(&v(*old)));
        }
        m.compute(ctx)
    }

    const PAIRS: &[(f64, f64)] = &[(3.0, 1.0), (10.0, 7.0), (4.0, 4.0), (0.0, 2.0)];

    #[test]
    fn arithmetic_and_precedence() {
        let ctx = MetricContext::new(1, 0.0);
        assert_eq!(run("1 + 2 * 3", &[], &ctx), 7.0);
        assert_eq!(run("(1 + 2) * 3", &[], &ctx), 9.0);
        assert_eq!(run("-2 * 4", &[], &ctx), -8.0);
        assert_eq!(run("10 - 4 - 3", &[], &ctx), 3.0);
        assert_eq!(run("8 / 2 / 2", &[], &ctx), 2.0);
        assert_eq!(run("1.5e2 + 0.5", &[], &ctx), 150.5);
    }

    #[test]
    fn functions() {
        let ctx = MetricContext::new(1, 0.0);
        assert_eq!(run("abs(-3)", &[], &ctx), 3.0);
        assert_eq!(run("sqrt(16)", &[], &ctx), 4.0);
        assert_eq!(run("min(2, 5)", &[], &ctx), 2.0);
        assert_eq!(run("max(2, 5)", &[], &ctx), 5.0);
        assert_eq!(run("clamp01(3.5)", &[], &ctx), 1.0);
        assert_eq!(run("clamp01(-1)", &[], &ctx), 0.0);
    }

    /// `(new, old)` changes the built-in metrics read differently from a
    /// plain numeric difference: a categorical change, a fresh insert, a
    /// delete, and a number replacing a categorical value.
    fn edge_changes() -> Vec<(Option<Value>, Option<Value>)> {
        vec![
            (Some(Value::from("hot")), Some(Value::from("cold"))),
            (Some(v(5.0)), None),
            (None, Some(v(2.0))),
            (Some(v(3.0)), Some(Value::from("x"))),
        ]
    }

    /// Asserts that `src` equals the built-in metric on the numeric pairs,
    /// on each edge change alone, and on all of them in one wave.
    fn assert_matches_builtin(src: &str, builtin: &MetricKind) {
        let ctx = MetricContext::new(4, 14.0);
        let numeric: Vec<_> = PAIRS
            .iter()
            .map(|&(new, old)| (Some(v(new)), Some(v(old))))
            .collect();
        let mut waves: Vec<Vec<_>> = vec![numeric.clone()];
        waves.extend(edge_changes().into_iter().map(|change| vec![change]));
        waves.push(numeric.into_iter().chain(edge_changes()).collect());
        let kind = compile(src).expect("compiles");
        for wave in waves {
            let (mut dsl, mut reference) = (kind.instantiate(), builtin.instantiate());
            for (new, old) in &wave {
                dsl.update(new.as_ref(), old.as_ref());
                reference.update(new.as_ref(), old.as_ref());
            }
            let (d, b) = (dsl.compute(&ctx), reference.compute(&ctx));
            assert!((d - b).abs() < 1e-12, "`{src}` on {wave:?}: {d} vs {b}");
        }
    }

    #[test]
    fn eq1_matches_builtin() {
        assert_matches_builtin("sum_abs_delta * modified", &MetricKind::Magnitude);
    }

    #[test]
    fn eq2_matches_builtin() {
        assert_matches_builtin(
            "clamp01(sum_abs_delta * modified / (sum_max * total))",
            &MetricKind::RelativeImpact,
        );
    }

    #[test]
    fn eq3_matches_builtin() {
        assert_matches_builtin(
            "clamp01(sum_abs_delta * modified / (prev_sum * total))",
            &MetricKind::RelativeError,
        );
    }

    #[test]
    fn eq4_matches_builtin() {
        assert_matches_builtin(
            "sqrt(sum_sq_delta / modified)",
            &MetricKind::Rmse { scale: 1.0 },
        );
    }

    #[test]
    fn net_drift_matches_builtin() {
        assert_matches_builtin("abs(sum_delta)", &MetricKind::NetDrift);
    }

    #[test]
    fn mean_relative_matches_builtin() {
        assert_matches_builtin(
            "clamp01(sum_abs_delta / prev_sum)",
            &MetricKind::MeanRelative,
        );
    }

    #[test]
    fn unchanged_elements_do_not_count() {
        let ctx = MetricContext::new(4, 0.0);
        assert_eq!(run("modified", &[(5.0, 5.0), (1.0, 1.0)], &ctx), 0.0);
    }

    #[test]
    fn division_by_zero_is_not_nan() {
        let ctx = MetricContext::new(0, 0.0);
        // 0/0 would be NaN; compute() maps it to 0.
        assert_eq!(run("sum_delta / prev_sum", &[], &ctx), 0.0);
        // x/0 is +inf, which correctly reads as "bound exceeded".
        assert_eq!(run("1 / prev_sum", &[], &ctx), f64::INFINITY);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(matches!(compile(""), Err(DslError::Malformed(_))));
        assert!(matches!(
            compile("foo + 1"),
            Err(DslError::UnknownIdentifier(_))
        ));
        assert!(matches!(
            compile("sum_delta @ 2"),
            Err(DslError::UnexpectedChar { ch: '@', .. })
        ));
        assert!(matches!(
            compile("min(1)"),
            Err(DslError::WrongArity {
                expected: 2,
                found: 1,
                ..
            })
        ));
        assert!(matches!(compile("1 + "), Err(DslError::Malformed(_))));
        assert!(matches!(compile("1 2"), Err(DslError::Malformed(_))));
        assert!(matches!(compile("(1"), Err(DslError::Malformed(_))));
    }

    #[test]
    fn reset_clears_aggregates() {
        let kind = compile("sum_abs_delta").unwrap();
        let mut m = kind.instantiate();
        m.update(Some(&v(2.0)), Some(&v(0.0)));
        m.reset();
        assert_eq!(m.compute(&MetricContext::new(1, 0.0)), 0.0);
    }

    #[test]
    fn categorical_changes_count_as_unit() {
        let kind = compile("sum_abs_delta").unwrap();
        let mut m = kind.instantiate();
        m.update(Some(&Value::from("hot")), Some(&Value::from("cold")));
        assert_eq!(m.compute(&MetricContext::new(1, 0.0)), 1.0);
    }
}
