//! A small datalog-style parser for conjunctive queries.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query  :=  name "(" vars? ")" ":-" atom ("," atom)*
//! atom   :=  name "(" vars? ")"
//! vars   :=  ident ("," ident)*
//! ident  :=  [A-Za-z_][A-Za-z0-9_#]*
//! ```
//!
//! Example: `Q(x, y, z) :- R(x, y), S(y, z)`.

use crate::query::{Cq, CqBuilder};
use std::fmt;

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self.src[self.pos..].starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> Result<(), ParseError> {
        self.skip_ws();
        if self.src[self.pos..].starts_with(token) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(ParseError(format!(
                "expected `{token}` at byte {} in `{}`",
                self.pos, self.src
            )))
        }
    }

    fn peek(&mut self, token: &str) -> bool {
        self.skip_ws();
        self.src[self.pos..].starts_with(token)
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        let end = rest
            .char_indices()
            .take_while(|(i, c)| {
                if *i == 0 {
                    c.is_ascii_alphabetic() || *c == '_'
                } else {
                    c.is_ascii_alphanumeric() || *c == '_' || *c == '#'
                }
            })
            .count();
        if end == 0 {
            return Err(ParseError(format!(
                "expected identifier at byte {} in `{}`",
                self.pos, self.src
            )));
        }
        let id = &rest[..end];
        self.pos += end;
        Ok(id)
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos == self.src.len()
    }
}

fn parse_var_list<'a>(lex: &mut Lexer<'a>) -> Result<Vec<&'a str>, ParseError> {
    lex.eat("(")?;
    let mut vars = Vec::new();
    if !lex.peek(")") {
        loop {
            vars.push(lex.ident()?);
            if lex.peek(",") {
                lex.eat(",")?;
            } else {
                break;
            }
        }
    }
    lex.eat(")")?;
    Ok(vars)
}

/// Parse a conjunctive query from its datalog notation.
///
/// ```
/// let q = rda_query::parser::parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
/// assert_eq!(q.free().len(), 2);
/// assert_eq!(q.atoms().len(), 2);
/// ```
pub fn parse(src: &str) -> Result<Cq, ParseError> {
    let mut lex = Lexer::new(src);
    let name = lex.ident()?;
    let head = parse_var_list(&mut lex)?;
    lex.eat(":-")?;
    let mut builder = CqBuilder::new(name).head(&head);
    let mut body_vars: Vec<&str> = Vec::new();
    loop {
        let rel = lex.ident()?;
        let vars = parse_var_list(&mut lex)?;
        body_vars.extend_from_slice(&vars);
        builder = builder.atom(rel, &vars);
        if lex.peek(",") {
            lex.eat(",")?;
        } else {
            break;
        }
    }
    if !lex.at_end() {
        return Err(ParseError(format!(
            "trailing input at byte {} in `{src}`",
            lex.pos
        )));
    }
    if let Some(missing) = head.iter().find(|h| !body_vars.contains(h)) {
        return Err(ParseError(format!(
            "head variable `{missing}` missing from body in `{src}`"
        )));
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_two_path() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        assert_eq!(q.to_string(), "Q(x, y, z) :- R(x, y), S(y, z)");
        assert!(q.is_full());
    }

    #[test]
    fn parses_boolean_query() {
        let q = parse("Q() :- R(x, y), S(y, x)").unwrap();
        assert!(q.free().is_empty());
    }

    #[test]
    fn parses_hash_in_identifiers() {
        // The paper's pandemic schema uses `#cases`-style names; we accept
        // `#` after the first character.
        let q = parse("Q(n#cases) :- Cases(city, date, n#cases)").unwrap();
        assert!(q.var("n#cases").is_some());
    }

    #[test]
    fn whitespace_insensitive() {
        let q = parse("  Q ( x )   :-   R ( x , y ) ").unwrap();
        assert_eq!(q.to_string(), "Q(x) :- R(x, y)");
    }

    #[test]
    fn rejects_missing_body() {
        assert!(parse("Q(x)").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("Q(x) :- R(x) extra").is_err());
    }

    #[test]
    fn rejects_unbound_head_variable() {
        assert!(parse("Q(w) :- R(x)").is_err());
    }

    #[test]
    fn rejects_bad_tokens() {
        assert!(parse("Q(x) : R(x)").is_err());
        assert!(parse("(x) :- R(x)").is_err());
    }
}
