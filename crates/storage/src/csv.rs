//! A small CSV loader for bringing real datasets into the engine.
//!
//! The format is deliberately minimal: comma-separated fields, optional
//! double-quoting (with `""` escapes), `#`-prefixed comment lines, and an
//! optional header row. Every field is interned through an [`Interner`], so
//! mixed numeric/textual data lands in one consistent value space.

use crate::interner::Interner;
use crate::relation::Relation;
use cqc_common::error::{CqcError, Result};
use cqc_common::value::Tuple;
use std::io::BufRead;

/// Options for CSV loading.
#[derive(Debug, Clone, Copy, Default)]
pub struct CsvOptions {
    /// Skip the first non-comment line.
    pub has_header: bool,
}

/// Parses one CSV line into fields (handles double quotes and `""`
/// escapes).
fn parse_line(line: &str) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() => in_quotes = true,
            '"' => {
                return Err(CqcError::Parse(format!(
                    "stray quote inside unquoted field: `{line}`"
                )));
            }
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err(CqcError::Parse(format!("unterminated quote: `{line}`")));
    }
    fields.push(cur);
    Ok(fields)
}

/// Loads a relation from CSV text.
///
/// Every row must have the same number of fields; fields are interned
/// (trimmed of surrounding whitespace unless quoted).
///
/// # Errors
///
/// Fails on I/O errors, ragged rows, or malformed quoting.
pub fn relation_from_csv(
    name: &str,
    reader: impl BufRead,
    interner: &mut Interner,
    options: CsvOptions,
) -> Result<Relation> {
    let mut tuples: Vec<Tuple> = Vec::new();
    let mut arity: Option<usize> = None;
    let mut header_pending = options.has_header;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| CqcError::Parse(format!("I/O error: {e}")))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if header_pending {
            header_pending = false;
            continue;
        }
        let fields = parse_line(trimmed)?;
        match arity {
            None => arity = Some(fields.len()),
            Some(a) if a != fields.len() => {
                return Err(CqcError::Parse(format!(
                    "row {} has {} fields, expected {a}",
                    lineno + 1,
                    fields.len()
                )));
            }
            _ => {}
        }
        tuples.push(fields.iter().map(|f| interner.intern(f.trim())).collect());
    }
    let arity = arity.ok_or_else(|| {
        CqcError::Parse(format!("CSV for relation `{name}` contains no data rows"))
    })?;
    Ok(Relation::new(name, arity, tuples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_basic_csv() {
        let data = "alice,bob\nbob,carol\nalice,carol\n";
        let mut interner = Interner::new();
        let r =
            relation_from_csv("E", data.as_bytes(), &mut interner, CsvOptions::default()).unwrap();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 3);
        let a = interner.get("alice").unwrap();
        let b = interner.get("bob").unwrap();
        assert!(r.iter().any(|row| row == [a, b]));
    }

    #[test]
    fn header_and_comments_skipped() {
        let data = "# co-author pairs\nsrc,dst\nalice,bob\n\n# trailing comment\nbob,carol\n";
        let mut interner = Interner::new();
        let r = relation_from_csv(
            "E",
            data.as_bytes(),
            &mut interner,
            CsvOptions { has_header: true },
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert!(interner.get("src").is_none(), "header must not be interned");
    }

    #[test]
    fn quoting_and_escapes() {
        let data = "\"Smith, John\",\"say \"\"hi\"\"\"\nplain,field\n";
        let mut interner = Interner::new();
        let r =
            relation_from_csv("E", data.as_bytes(), &mut interner, CsvOptions::default()).unwrap();
        assert_eq!(r.len(), 2);
        assert!(interner.get("Smith, John").is_some());
        assert!(interner.get("say \"hi\"").is_some());
    }

    #[test]
    fn errors_reported() {
        let mut i = Interner::new();
        // Ragged rows.
        let e = relation_from_csv("E", "a,b\nc\n".as_bytes(), &mut i, CsvOptions::default());
        assert!(e.is_err());
        // Unterminated quote.
        let e = relation_from_csv("E", "\"abc\n".as_bytes(), &mut i, CsvOptions::default());
        assert!(e.is_err());
        // Empty input.
        let e = relation_from_csv("E", "# nothing\n".as_bytes(), &mut i, CsvOptions::default());
        assert!(e.is_err());
    }

    #[test]
    fn whitespace_trimmed_outside_quotes() {
        let mut i = Interner::new();
        let r =
            relation_from_csv("E", " a , b \n".as_bytes(), &mut i, CsvOptions::default()).unwrap();
        assert!(i.get("a").is_some());
        assert!(i.get(" a ").is_none());
        assert_eq!(r.len(), 1);
    }
}
