//! The workspace error type: structured, categorized, with source-chain
//! context (file path, record number, field) and stable CLI exit codes.
//!
//! Every failure belongs to an [`ErrorCategory`], which maps to the exit
//! code the CLI uses (see [`ErrorCategory::exit_code`]):
//!
//! | category | meaning | exit code |
//! |---|---|---|
//! | [`ErrorCategory::Usage`] | invalid arguments / API parameters | 2 |
//! | [`ErrorCategory::Data`] | malformed or corrupt data | 3 |
//! | [`ErrorCategory::NotFound`] | referenced entity missing | 4 |
//! | [`ErrorCategory::Io`] | OS-level I/O failure | 1 |
//!
//! Errors raised deep in a loader carry only what that layer knows (a line
//! number, a field name); outer layers attach the file path and operation
//! via [`ResultExt`], so a single log line is enough to locate the record:
//!
//! ```text
//! error: loading dataset "data/london": pois.tsv: record 17, field `weight`: invalid weight: -3 is negative
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, SoiError>;

/// Broad failure categories with stable CLI exit codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCategory {
    /// Invalid usage: bad CLI arguments or invalid API parameters.
    Usage,
    /// Malformed or corrupt data: parse failures and validation rejections.
    Data,
    /// A referenced entity (street, file, keyword) does not exist.
    NotFound,
    /// An OS-level I/O failure (permissions, disk, encoding at the OS edge).
    Io,
}

impl ErrorCategory {
    /// The stable process exit code for this category.
    pub fn exit_code(self) -> i32 {
        match self {
            ErrorCategory::Usage => 2,
            ErrorCategory::Data => 3,
            ErrorCategory::NotFound => 4,
            ErrorCategory::Io => 1,
        }
    }
}

impl fmt::Display for ErrorCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCategory::Usage => "usage",
            ErrorCategory::Data => "data",
            ErrorCategory::NotFound => "not-found",
            ErrorCategory::Io => "io",
        };
        f.write_str(s)
    }
}

/// The validation rule a record violated (ingest-time data hygiene).
///
/// Used both as an error detail in [`SoiError::Validation`] and as the
/// counter key of lenient-load reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidationKind {
    /// A coordinate is NaN or infinite.
    NonFiniteCoordinate,
    /// A weight is NaN, infinite, or negative.
    InvalidWeight,
    /// A segment's endpoints coincide (zero length).
    ZeroLengthSegment,
    /// A record references a node/street/segment id that does not exist.
    DanglingReference,
    /// A keyword id is outside the vocabulary range.
    KeywordOutOfRange,
    /// A record has the wrong shape (field count, unparsable number).
    MalformedRecord,
}

impl ValidationKind {
    /// All kinds, for exhaustive reporting.
    pub const ALL: [ValidationKind; 6] = [
        ValidationKind::NonFiniteCoordinate,
        ValidationKind::InvalidWeight,
        ValidationKind::ZeroLengthSegment,
        ValidationKind::DanglingReference,
        ValidationKind::KeywordOutOfRange,
        ValidationKind::MalformedRecord,
    ];

    /// A short stable name (used in reports and logs).
    pub fn name(self) -> &'static str {
        match self {
            ValidationKind::NonFiniteCoordinate => "non-finite-coordinate",
            ValidationKind::InvalidWeight => "invalid-weight",
            ValidationKind::ZeroLengthSegment => "zero-length-segment",
            ValidationKind::DanglingReference => "dangling-reference",
            ValidationKind::KeywordOutOfRange => "keyword-out-of-range",
            ValidationKind::MalformedRecord => "malformed-record",
        }
    }
}

impl fmt::Display for ValidationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors produced by the streets-of-interest crates.
#[derive(Debug)]
pub enum SoiError {
    /// An I/O failure while reading or writing, with the path if known.
    Io {
        /// The underlying OS error.
        source: std::io::Error,
        /// The file involved, when known.
        path: Option<PathBuf>,
    },
    /// A structurally malformed file: bad header, truncated section,
    /// unparsable record.
    Parse {
        /// The file involved, when known.
        file: Option<PathBuf>,
        /// 1-based line number of the offending record (0 if unknown).
        line: usize,
        /// The field within the record, when known.
        field: Option<&'static str>,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A well-formed record with semantically invalid content.
    Validation {
        /// The violated rule.
        kind: ValidationKind,
        /// The file involved, when known.
        file: Option<PathBuf>,
        /// 1-based record number (line), 0 if unknown.
        record: usize,
        /// The field within the record, when known.
        field: Option<&'static str>,
        /// Human-readable description of the problem.
        message: String,
    },
    /// An invalid argument or inconsistent input to an API.
    InvalidInput(String),
    /// A referenced entity does not exist.
    NotFound(String),
    /// A lower-level error annotated with what the caller was doing.
    Context {
        /// The operation being performed (e.g. `loading dataset "x"`).
        context: String,
        /// The underlying error.
        source: Box<SoiError>,
    },
}

impl SoiError {
    /// Convenience constructor for [`SoiError::InvalidInput`].
    pub fn invalid(message: impl Into<String>) -> Self {
        SoiError::InvalidInput(message.into())
    }

    /// Convenience constructor for [`SoiError::Parse`] (path/field unknown).
    pub fn parse(line: usize, message: impl Into<String>) -> Self {
        SoiError::Parse {
            file: None,
            line,
            field: None,
            message: message.into(),
        }
    }

    /// Convenience constructor for [`SoiError::NotFound`].
    pub fn not_found(message: impl Into<String>) -> Self {
        SoiError::NotFound(message.into())
    }

    /// Convenience constructor for [`SoiError::Validation`]
    /// (position unknown; attach it with [`SoiError::at_record`]).
    pub fn validation(kind: ValidationKind, message: impl Into<String>) -> Self {
        SoiError::Validation {
            kind,
            file: None,
            record: 0,
            field: None,
            message: message.into(),
        }
    }

    /// Convenience constructor for [`SoiError::Io`] with a path.
    pub fn io(source: std::io::Error, path: impl Into<PathBuf>) -> Self {
        SoiError::Io {
            source,
            path: Some(path.into()),
        }
    }

    /// The broad category of this error (drills through [`SoiError::Context`]).
    pub fn category(&self) -> ErrorCategory {
        match self {
            SoiError::Io { source, .. } => {
                if source.kind() == std::io::ErrorKind::NotFound {
                    ErrorCategory::NotFound
                } else {
                    ErrorCategory::Io
                }
            }
            SoiError::Parse { .. } | SoiError::Validation { .. } => ErrorCategory::Data,
            SoiError::InvalidInput(_) => ErrorCategory::Usage,
            SoiError::NotFound(_) => ErrorCategory::NotFound,
            SoiError::Context { source, .. } => source.category(),
        }
    }

    /// Whether this error is (or wraps) a broken-pipe I/O failure — the
    /// normal outcome of a downstream reader like `head` closing stdout
    /// early, which a CLI should treat as a quiet success.
    pub fn is_broken_pipe(&self) -> bool {
        match self {
            SoiError::Io { source, .. } => source.kind() == std::io::ErrorKind::BrokenPipe,
            SoiError::Context { source, .. } => source.is_broken_pipe(),
            _ => false,
        }
    }

    /// The validation rule behind this error, if it is (or wraps) a
    /// validation rejection.
    pub fn validation_kind(&self) -> Option<ValidationKind> {
        match self {
            SoiError::Validation { kind, .. } => Some(*kind),
            SoiError::Context { source, .. } => source.validation_kind(),
            _ => None,
        }
    }

    /// Attaches a file path to the innermost positional error (Io, Parse, or
    /// Validation) that does not have one yet; other variants gain a
    /// [`SoiError::Context`] frame naming the file.
    pub fn at_path(self, path: impl AsRef<Path>) -> Self {
        let p = path.as_ref();
        match self {
            SoiError::Io { source, path: None } => SoiError::Io {
                source,
                path: Some(p.to_path_buf()),
            },
            SoiError::Parse {
                file: None,
                line,
                field,
                message,
            } => SoiError::Parse {
                file: Some(p.to_path_buf()),
                line,
                field,
                message,
            },
            SoiError::Validation {
                kind,
                file: None,
                record,
                field,
                message,
            } => SoiError::Validation {
                kind,
                file: Some(p.to_path_buf()),
                record,
                field,
                message,
            },
            SoiError::Context { context, source } => SoiError::Context {
                context,
                source: Box::new(source.at_path(p)),
            },
            other => SoiError::Context {
                context: p.display().to_string(),
                source: Box::new(other),
            },
        }
    }

    /// Sets the record (line) number on a positional error that lacks one.
    pub fn at_record(self, record_no: usize) -> Self {
        match self {
            SoiError::Parse {
                file,
                line: 0,
                field,
                message,
            } => SoiError::Parse {
                file,
                line: record_no,
                field,
                message,
            },
            SoiError::Validation {
                kind,
                file,
                record: 0,
                field,
                message,
            } => SoiError::Validation {
                kind,
                file,
                record: record_no,
                field,
                message,
            },
            other => other,
        }
    }

    /// Sets the field name on a positional error that lacks one.
    pub fn in_field(self, name: &'static str) -> Self {
        match self {
            SoiError::Parse {
                file,
                line,
                field: None,
                message,
            } => SoiError::Parse {
                file,
                line,
                field: Some(name),
                message,
            },
            SoiError::Validation {
                kind,
                file,
                record,
                field: None,
                message,
            } => SoiError::Validation {
                kind,
                file,
                record,
                field: Some(name),
                message,
            },
            other => other,
        }
    }

    /// Wraps this error with a description of the failed operation.
    pub fn with_context(self, context: impl Into<String>) -> Self {
        SoiError::Context {
            context: context.into(),
            source: Box::new(self),
        }
    }
}

fn write_position(
    f: &mut fmt::Formatter<'_>,
    file: &Option<PathBuf>,
    line: usize,
    field: Option<&'static str>,
) -> fmt::Result {
    if let Some(file) = file {
        write!(f, "{}: ", file.display())?;
    }
    if line > 0 {
        write!(f, "record {line}")?;
        if let Some(field) = field {
            write!(f, ", field `{field}`")?;
        }
        write!(f, ": ")?;
    } else if let Some(field) = field {
        write!(f, "field `{field}`: ")?;
    }
    Ok(())
}

impl fmt::Display for SoiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoiError::Io { source, path } => match path {
                Some(p) => write!(f, "I/O error on {}: {source}", p.display()),
                None => write!(f, "I/O error: {source}"),
            },
            SoiError::Parse {
                file,
                line,
                field,
                message,
            } => {
                write!(f, "parse error: ")?;
                write_position(f, file, *line, *field)?;
                write!(f, "{message}")
            }
            SoiError::Validation {
                kind,
                file,
                record,
                field,
                message,
            } => {
                write!(f, "invalid record ({kind}): ")?;
                write_position(f, file, *record, *field)?;
                write!(f, "{message}")
            }
            SoiError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            SoiError::NotFound(m) => write!(f, "not found: {m}"),
            SoiError::Context { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for SoiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SoiError::Io { source, .. } => Some(source),
            SoiError::Context { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SoiError {
    fn from(e: std::io::Error) -> Self {
        SoiError::Io {
            source: e,
            path: None,
        }
    }
}

/// Context-attachment helpers for `Result`s carrying (or convertible to)
/// [`SoiError`].
pub trait ResultExt<T> {
    /// On error, attach the file path (see [`SoiError::at_path`]).
    fn at_path(self, path: impl AsRef<Path>) -> Result<T>;
    /// On error, wrap with an operation description (lazily built).
    fn context<S: Into<String>>(self, f: impl FnOnce() -> S) -> Result<T>;
}

impl<T, E: Into<SoiError>> ResultExt<T> for std::result::Result<T, E> {
    fn at_path(self, path: impl AsRef<Path>) -> Result<T> {
        self.map_err(|e| e.into().at_path(path))
    }

    fn context<S: Into<String>>(self, f: impl FnOnce() -> S) -> Result<T> {
        self.map_err(|e| e.into().with_context(f().into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(
            SoiError::invalid("epsilon must be positive").to_string(),
            "invalid input: epsilon must be positive"
        );
        assert_eq!(
            SoiError::parse(3, "expected 4 fields").to_string(),
            "parse error: record 3: expected 4 fields"
        );
        assert_eq!(
            SoiError::parse(0, "empty file").to_string(),
            "parse error: empty file"
        );
        assert_eq!(
            SoiError::not_found("street 7").to_string(),
            "not found: street 7"
        );
    }

    #[test]
    fn io_error_converts_and_chains() {
        let io = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "nope");
        let err: SoiError = io.into();
        assert!(err.to_string().contains("nope"));
        assert!(std::error::Error::source(&err).is_some());
        assert_eq!(err.category(), ErrorCategory::Io);
    }

    #[test]
    fn io_not_found_categorises_as_not_found() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err: SoiError = io.into();
        assert_eq!(err.category(), ErrorCategory::NotFound);
    }

    #[test]
    fn categories_and_exit_codes() {
        assert_eq!(SoiError::invalid("x").category().exit_code(), 2);
        assert_eq!(SoiError::parse(1, "x").category().exit_code(), 3);
        assert_eq!(
            SoiError::validation(ValidationKind::InvalidWeight, "x")
                .category()
                .exit_code(),
            3
        );
        assert_eq!(SoiError::not_found("x").category().exit_code(), 4);
        let io: SoiError = std::io::Error::other("disk").into();
        assert_eq!(io.category().exit_code(), 1);
    }

    #[test]
    fn context_preserves_category_and_chains() {
        let err = SoiError::parse(9, "bad x")
            .at_path("pois.tsv")
            .with_context("loading dataset \"london\"");
        assert_eq!(err.category(), ErrorCategory::Data);
        let text = err.to_string();
        assert!(text.contains("loading dataset"), "{text}");
        assert!(text.contains("pois.tsv"), "{text}");
        assert!(text.contains("record 9"), "{text}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn positional_attachments() {
        let err = SoiError::validation(ValidationKind::NonFiniteCoordinate, "x is NaN")
            .at_record(17)
            .in_field("x")
            .at_path("photos.tsv");
        let text = err.to_string();
        assert!(text.contains("photos.tsv"), "{text}");
        assert!(text.contains("record 17"), "{text}");
        assert!(text.contains("field `x`"), "{text}");
        assert_eq!(
            err.validation_kind(),
            Some(ValidationKind::NonFiniteCoordinate)
        );
    }

    #[test]
    fn at_path_does_not_overwrite() {
        let err = SoiError::parse(1, "x").at_path("a.tsv").at_path("b.tsv");
        let text = err.to_string();
        // First path wins; the second becomes an outer context frame.
        assert!(text.contains("a.tsv"), "{text}");
        assert!(text.contains("b.tsv"), "{text}");
    }

    #[test]
    fn result_ext_helpers() {
        let r: std::result::Result<(), std::io::Error> = Err(std::io::Error::other("boom"));
        let e = r.context(|| "writing report").unwrap_err();
        assert!(e.to_string().starts_with("writing report:"));

        let r: Result<()> = Err(SoiError::parse(2, "bad"));
        let e = ResultExt::at_path(r, "f.tsv").unwrap_err();
        assert!(e.to_string().contains("f.tsv"));
    }

    #[test]
    fn validation_kind_names_are_stable() {
        for kind in ValidationKind::ALL {
            assert!(!kind.name().is_empty());
        }
        assert_eq!(
            ValidationKind::ZeroLengthSegment.name(),
            "zero-length-segment"
        );
    }
}
