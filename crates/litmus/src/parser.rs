//! Parser for the compact `.litmus` text format.
//!
//! # Grammar
//!
//! ```text
//! test      := "test" NAME init thread+ cond
//! init      := "{" (LOC "=" INT ";")* "}"
//! thread    := "core" INT "{" (instr ";")* "}"
//! instr     := "st" LOC "," INT          (store immediate)
//!            | REG "=" "ld" LOC          (load into register)
//!            | "fence"                   (full memory fence)
//! cond      := ("forbid" | "permit") "(" clause ("/\" clause)* ")"
//! clause    := INT ":" REG "=" INT       (final register value)
//!            | LOC "=" INT               (final memory value)
//! ```
//!
//! `#` and `//` start line comments. Locations are single identifiers
//! (`x`, `y`, ...); registers are `r<digit>`. Locations used by instructions
//! but absent from the init block default to an initial value of 0.

use crate::cond::{CondClause, CondKind, Condition};
use crate::error::ParseLitmusError;
use crate::ids::{CoreId, Loc, Reg, Val};
use crate::test::{LitmusTest, Op};

/// Parses a litmus test from its textual form.
///
/// # Errors
///
/// Returns a [`ParseLitmusError`] describing the offending line on any
/// lexical, syntactic, or structural problem.
///
/// # Example
///
/// ```
/// let sb = rtlcheck_litmus::parse(r#"
///     test sb
///     { x = 0; y = 0; }
///     core 0 { st x, 1; r1 = ld y; }
///     core 1 { st y, 1; r1 = ld x; }
///     forbid ( 0:r1 = 0 /\ 1:r1 = 0 )
/// "#)?;
/// assert_eq!(sb.num_cores(), 2);
/// # Ok::<(), rtlcheck_litmus::ParseLitmusError>(())
/// ```
pub fn parse(src: &str) -> Result<LitmusTest, ParseLitmusError> {
    Parser::new(src)?.parse()
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(u32),
    Punct(char),
    /// The `/\` conjunction symbol.
    And,
}

#[derive(Debug)]
struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    /// Tokenises `src`. Fails on an integer literal that does not fit in
    /// 32 bits, naming its line.
    fn new(src: &str) -> Result<Self, ParseLitmusError> {
        let mut toks = Vec::new();
        for (lineno, raw) in src.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("");
            let line = line.split("//").next().unwrap_or("");
            let mut chars = line.chars().peekable();
            let lineno = lineno + 1;
            while let Some(&c) = chars.peek() {
                if c.is_whitespace() {
                    chars.next();
                } else if c.is_ascii_digit() {
                    let mut digits = String::new();
                    while let Some(d) = chars.next_if(char::is_ascii_digit) {
                        digits.push(d);
                    }
                    let n = digits.parse().map_err(|_| {
                        ParseLitmusError::new(
                            lineno,
                            format!("integer `{digits}` does not fit in 32 bits"),
                        )
                    })?;
                    toks.push((Tok::Int(n), lineno));
                } else if c.is_alphabetic() || c == '_' {
                    let mut s = String::new();
                    while let Some(&d) = chars.peek() {
                        if d.is_alphanumeric() || d == '_' || d == '+' || d == '-' {
                            s.push(d);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    toks.push((Tok::Ident(s), lineno));
                } else if c == '/' {
                    chars.next();
                    if chars.peek() == Some(&'\\') {
                        chars.next();
                        toks.push((Tok::And, lineno));
                    } else {
                        toks.push((Tok::Punct('/'), lineno));
                    }
                } else {
                    chars.next();
                    toks.push((Tok::Punct(c), lineno));
                }
            }
        }
        Ok(Parser { toks, pos: 0 })
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(0, |(_, l)| *l)
    }

    fn err(&self, msg: impl Into<String>) -> ParseLitmusError {
        ParseLitmusError::new(self.line(), msg)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseLitmusError> {
        match self.next() {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            other => Err(self.err(format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseLitmusError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_int(&mut self) -> Result<u32, ParseLitmusError> {
        match self.next() {
            Some(Tok::Int(n)) => Ok(n),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseLitmusError> {
        match self.next() {
            Some(Tok::Ident(s)) if s == kw => Ok(()),
            other => Err(self.err(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn parse(mut self) -> Result<LitmusTest, ParseLitmusError> {
        self.expect_keyword("test")?;
        let name = self.expect_ident()?;

        let mut locs: Vec<String> = Vec::new();
        let mut init: Vec<Val> = Vec::new();
        let intern = |locs: &mut Vec<String>, init: &mut Vec<Val>, name: &str| -> Loc {
            match locs.iter().position(|l| l == name) {
                Some(i) => Loc(i),
                None => {
                    locs.push(name.to_string());
                    init.push(Val(0));
                    Loc(locs.len() - 1)
                }
            }
        };

        // Initial state block.
        self.expect_punct('{')?;
        while self.peek() != Some(&Tok::Punct('}')) {
            let loc_name = self.expect_ident()?;
            self.expect_punct('=')?;
            let v = self.expect_int()?;
            self.expect_punct(';')?;
            if locs.contains(&loc_name) {
                return Err(self.err(format!("location `{loc_name}` initialised twice")));
            }
            let l = intern(&mut locs, &mut init, &loc_name);
            init[l.0] = Val(v);
        }
        self.expect_punct('}')?;

        // Threads.
        let mut threads: Vec<Vec<Op>> = Vec::new();
        while self.peek() == Some(&Tok::Ident("core".into())) {
            self.next();
            let core = self.expect_int()? as usize;
            if core != threads.len() {
                return Err(self.err(format!(
                    "cores must be declared densely in order; expected core {}, found {core}",
                    threads.len()
                )));
            }
            self.expect_punct('{')?;
            let mut ops = Vec::new();
            while self.peek() != Some(&Tok::Punct('}')) {
                let head = self.expect_ident()?;
                if head == "fence" {
                    ops.push(Op::Fence);
                } else if head == "st" {
                    let loc_name = self.expect_ident()?;
                    self.expect_punct(',')?;
                    let v = self.expect_int()?;
                    let loc = intern(&mut locs, &mut init, &loc_name);
                    ops.push(Op::Store { loc, val: Val(v) });
                } else if let Some(reg) = parse_reg(&head) {
                    self.expect_punct('=')?;
                    self.expect_keyword("ld")?;
                    let loc_name = self.expect_ident()?;
                    let loc = intern(&mut locs, &mut init, &loc_name);
                    ops.push(Op::Load { dst: reg, loc });
                } else {
                    return Err(self.err(format!("expected `st` or register, found `{head}`")));
                }
                self.expect_punct(';')?;
            }
            self.expect_punct('}')?;
            threads.push(ops);
        }

        // Condition.
        let kind = match self.next() {
            Some(Tok::Ident(s)) if s == "forbid" => CondKind::Forbidden,
            Some(Tok::Ident(s)) if s == "permit" => CondKind::Permitted,
            other => {
                return Err(self.err(format!("expected `forbid` or `permit`, found {other:?}")))
            }
        };
        self.expect_punct('(')?;
        let mut clauses = Vec::new();
        // An empty condition `( )` is the trivial (always-true) outcome.
        while self.peek() != Some(&Tok::Punct(')')) {
            match self.next() {
                Some(Tok::Int(core)) => {
                    self.expect_punct(':')?;
                    let reg_name = self.expect_ident()?;
                    let reg = parse_reg(&reg_name).ok_or_else(|| {
                        self.err(format!("expected register, found `{reg_name}`"))
                    })?;
                    self.expect_punct('=')?;
                    let v = self.expect_int()?;
                    clauses.push(CondClause::RegEq {
                        core: CoreId(core as usize),
                        reg,
                        val: Val(v),
                    });
                }
                Some(Tok::Ident(loc_name)) => {
                    let loc = intern(&mut locs, &mut init, &loc_name);
                    self.expect_punct('=')?;
                    let v = self.expect_int()?;
                    clauses.push(CondClause::MemEq { loc, val: Val(v) });
                }
                other => {
                    return Err(self.err(format!("expected condition clause, found {other:?}")))
                }
            }
            match self.peek() {
                Some(Tok::And) => {
                    self.next();
                }
                _ => break,
            }
        }
        self.expect_punct(')')?;
        if let Some(t) = self.peek() {
            return Err(self.err(format!("unexpected trailing token {t:?}")));
        }

        LitmusTest::new(name, locs, init, threads, Condition::new(kind, clauses))
            .map_err(ParseLitmusError::from)
    }
}

fn parse_reg(s: &str) -> Option<Reg> {
    let digits = s.strip_prefix('r')?;
    let n: u8 = digits.parse().ok()?;
    Some(Reg(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::InstrUid;

    const MP: &str = r#"
        test mp
        { x = 0; y = 0; }
        core 0 { st x, 1; st y, 1; }
        core 1 { r1 = ld y; r2 = ld x; }
        forbid ( 1:r1 = 1 /\ 1:r2 = 0 )
    "#;

    #[test]
    fn parses_mp() {
        let t = parse(MP).unwrap();
        assert_eq!(t.name(), "mp");
        assert_eq!(t.num_cores(), 2);
        assert_eq!(t.num_instructions(), 4);
        assert_eq!(t.locations(), ["x", "y"]);
        let i3 = t.instr(InstrUid(2));
        assert!(i3.is_load());
        assert_eq!(t.expected_load_value(&i3), Some(Val(1)));
    }

    #[test]
    fn comments_are_ignored() {
        let src = "# header\ntest t\n{ x = 0; } // init\ncore 0 { st x, 1; }\npermit ( x = 1 )";
        let t = parse(src).unwrap();
        assert_eq!(t.name(), "t");
        assert_eq!(t.condition().clauses().len(), 1);
    }

    #[test]
    fn locations_default_to_zero_init() {
        let src = "test t\n{ }\ncore 0 { st z, 2; }\npermit ( z = 2 )";
        let t = parse(src).unwrap();
        let z = t.loc_by_name("z").unwrap();
        assert_eq!(t.initial_value(z), Val(0));
    }

    #[test]
    fn rejects_sparse_core_numbering() {
        let src = "test t\n{ }\ncore 1 { st x, 1; }\nforbid ( x = 1 )";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("densely"), "{err}");
    }

    #[test]
    fn rejects_double_init() {
        let src = "test t\n{ x = 0; x = 1; }\ncore 0 { st x, 1; }\nforbid ( x = 0 )";
        assert!(parse(src).is_err());
    }

    #[test]
    fn rejects_garbage_instruction() {
        let src = "test t\n{ }\ncore 0 { frob x; }\nforbid ( x = 0 )";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("st"), "{err}");
    }

    #[test]
    fn rejects_trailing_tokens() {
        let src = "test t\n{ }\ncore 0 { st x, 1; }\nforbid ( x = 1 ) zzz";
        assert!(parse(src).is_err());
    }

    #[test]
    fn reports_line_numbers() {
        let src = "test t\n{ }\ncore 0 { st x 1; }\nforbid ( x = 1 )";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line, 3);
    }

    /// Integer literals past `u32::MAX` are errors naming their line, not
    /// values wrapped into another test.
    #[test]
    fn rejects_integers_past_32_bits() {
        let value = "test t\n{ }\ncore 0 { st x, 4294967297; }\nforbid ( x = 1 )";
        let err = parse(value).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("`4294967297`"), "{err}");
        let core = "test t\n{ }\ncore 4294967296 { st x, 1; }\nforbid ( x = 1 )";
        let err = parse(core).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("does not fit in 32 bits"), "{err}");
        // u32::MAX itself fits the RTL's 32-bit data field.
        let max = "test t\n{ }\ncore 0 { st x, 4294967295; }\nforbid ( x = 4294967295 )";
        let t = parse(max).unwrap();
        assert_eq!(t.instr(InstrUid(0)).store_value(), Some(Val(u32::MAX)));
        let x = t.loc_by_name("x").unwrap();
        assert_eq!(
            t.condition().clauses(),
            [CondClause::MemEq {
                loc: x,
                val: Val(u32::MAX)
            }]
        );
    }

    #[test]
    fn permit_kind_roundtrips() {
        let src = "test t\n{ }\ncore 0 { r1 = ld x; }\npermit ( 0:r1 = 0 )";
        let t = parse(src).unwrap();
        assert_eq!(t.condition().kind(), crate::CondKind::Permitted);
    }
}
