//! Line-record helpers shared by every TSV reader of the workspace
//! (`network.tsv`, `vocab.tsv`, `pois.tsv`, `photos.tsv`).
//!
//! A reader walks its input with [`for_each_line`], splits a record with
//! [`split_fields`] and parses coordinates with [`parse_coord`]. The first
//! invalid record aborts the load: each helper returns a typed
//! [`SoiError`] carrying the rule broken ([`ValidationKind`]) and the field;
//! [`for_each_line`] adds the record number and the caller the file path.

use crate::error::{Result, SoiError, ValidationKind};
use std::io::BufRead;

/// Calls `record(line)` for every line of `reader`, in order. The lines are
/// what [`BufRead::lines`] yields (the final `\n` or `\r\n` stripped, a
/// read or UTF-8 failure a parse error at that line), read into one reused
/// buffer, not one `String` each. An error `record` returns gets the line's
/// number, counted from 1, as its record number.
pub fn for_each_line<R: BufRead>(
    mut reader: R,
    mut record: impl FnMut(&str) -> Result<()>,
) -> Result<()> {
    let mut line = String::new();
    for number in 1.. {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| SoiError::parse(number, e.to_string()))?;
        if read == 0 {
            break;
        }
        if line.ends_with('\n') {
            line.pop();
            if line.ends_with('\r') {
                line.pop();
            }
        }
        record(&line).map_err(|e| e.at_record(number))?;
    }
    Ok(())
}

/// The `N` tab-separated fields of a `what` record; any other field count
/// is a [`ValidationKind::MalformedRecord`].
pub fn split_fields<'a, const N: usize>(line: &'a str, what: &str) -> Result<[&'a str; N]> {
    let mut fields = [""; N];
    let mut parts = line.split('\t');
    let filled = fields
        .iter_mut()
        .zip(&mut parts)
        .map(|(f, p)| *f = p)
        .count();
    if filled == N && parts.next().is_none() {
        return Ok(fields);
    }
    Err(SoiError::validation(
        ValidationKind::MalformedRecord,
        format!(
            "expected {N} fields in {what} record, got {}",
            line.split('\t').count()
        ),
    ))
}

/// Parses the coordinate field `name`: a number that does not parse is a
/// [`ValidationKind::MalformedRecord`], NaN or ±∞ a
/// [`ValidationKind::NonFiniteCoordinate`].
pub fn parse_coord(field: &str, name: &'static str) -> Result<f64> {
    let v: f64 = field.parse().map_err(|e| {
        SoiError::validation(ValidationKind::MalformedRecord, format!("bad {name}: {e}"))
            .in_field(name)
    })?;
    if !v.is_finite() {
        return Err(SoiError::validation(
            ValidationKind::NonFiniteCoordinate,
            format!("{name} coordinate {v} is not finite"),
        )
        .in_field(name));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_fields_wants_exactly_n() {
        assert_eq!(split_fields::<2>("1\t2", "node").unwrap(), ["1", "2"]);
        assert_eq!(split_fields::<3>("0\t\t", "photo").unwrap(), ["0", "", ""]);
        for line in ["1", "1\t2\t3", ""] {
            let err = split_fields::<2>(line, "node").unwrap_err();
            assert_eq!(err.validation_kind(), Some(ValidationKind::MalformedRecord));
        }
        let err = split_fields::<2>("1\t2\t3", "node").unwrap_err();
        assert!(
            err.to_string()
                .contains("expected 2 fields in node record, got 3"),
            "{err}"
        );
    }

    #[test]
    fn parse_coord_tells_malformed_from_non_finite() {
        assert_eq!(parse_coord("-1.5e3", "x").unwrap(), -1500.0);
        let kind = |s| parse_coord(s, "y").unwrap_err().validation_kind();
        assert_eq!(kind("NaN"), Some(ValidationKind::NonFiniteCoordinate));
        assert_eq!(kind("-inf"), Some(ValidationKind::NonFiniteCoordinate));
        assert_eq!(kind("1e400"), Some(ValidationKind::NonFiniteCoordinate));
        assert_eq!(kind(" 1"), Some(ValidationKind::MalformedRecord));
        assert!(parse_coord("x", "y")
            .unwrap_err()
            .to_string()
            .contains("field `y`"));
    }

    #[test]
    fn for_each_line_numbers_records_from_one() {
        let mut seen = Vec::new();
        for_each_line("a\r\n\nb\rc\nd".as_bytes(), |line| {
            seen.push(line.to_string());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, ["a", "", "b\rc", "d"]);
        let err = for_each_line("a\nb\n".as_bytes(), |line| match line {
            "b" => Err(SoiError::parse(0, "bad")),
            _ => Ok(()),
        })
        .unwrap_err();
        assert!(err.to_string().contains("record 2"), "{err}");
        let err = for_each_line(&b"a\n\xff\n"[..], |_| Ok(())).unwrap_err();
        assert!(err.to_string().contains("record 2"), "{err}");
    }
}
