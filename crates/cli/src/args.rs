//! Minimal command-line argument parsing (no external dependencies).

use soi_common::{Result, SoiError};
use std::collections::BTreeMap;

/// Options that are boolean flags: they take no value, and their presence
/// means `true`. Every other `--key` consumes the next argument.
const BOOL_FLAGS: &[&str] = &["log-json", "describe"];

/// Options every command accepts.
const GLOBAL_OPTIONS: &[&str] = &["log-json", "trace-out"];

/// Parsed invocation of a subcommand: at most one positional argument,
/// plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The optional positional argument (e.g. the queries file of `batch`).
    positional: Option<String>,
    /// `--key value` pairs.
    options: BTreeMap<String, String>,
}

impl Args {
    /// Parses an argument list (without the program name).
    ///
    /// Grammar: `<command> [positional] (--key value | --flag)*`. Every
    /// option takes a value except the boolean flags in [`BOOL_FLAGS`]
    /// (e.g. `--log-json`); one positional argument is accepted if
    /// `positional` says the command reads one. An option that is neither
    /// in `accepted` (space-separated names) nor in [`GLOBAL_OPTIONS`], and
    /// a positional argument not accepted, are usage errors that name it.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        accepted: &str,
        positional: bool,
    ) -> Result<Args> {
        let mut it = args.into_iter();
        let command = it
            .next()
            .ok_or_else(|| SoiError::invalid("missing subcommand; try `soi help`"))?;
        let takes_positional = positional;
        let mut positional = None;
        let mut options = BTreeMap::new();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                if !takes_positional {
                    return Err(SoiError::invalid(format!(
                        "`soi {command}` takes no positional argument, got {key:?}; try `soi help`"
                    )));
                }
                if positional.is_some() {
                    return Err(SoiError::invalid(format!(
                        "unexpected extra positional argument {key:?}"
                    )));
                }
                positional = Some(key);
                continue;
            };
            if !accepted.split_whitespace().any(|a| a == name) && !GLOBAL_OPTIONS.contains(&name) {
                return Err(SoiError::invalid(format!(
                    "`soi {command}` does not take --{name}; try `soi help`"
                )));
            }
            let value = if BOOL_FLAGS.contains(&name) {
                "true".to_string()
            } else {
                it.next()
                    .ok_or_else(|| SoiError::invalid(format!("option --{name} needs a value")))?
            };
            if options.insert(name.to_string(), value).is_some() {
                return Err(SoiError::invalid(format!("option --{name} given twice")));
            }
        }
        Ok(Args {
            positional,
            options,
        })
    }

    /// The positional argument, if one was given.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// A required string option.
    pub fn require(&self, name: &str) -> Result<&str> {
        self.options
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| SoiError::invalid(format!("missing required option --{name}")))
    }

    /// An optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Whether a boolean flag (see [`BOOL_FLAGS`]) was given.
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// An optional parsed option with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T> {
        match self.options.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse::<T>().map_err(|_| {
                SoiError::invalid(format!("option --{name} has invalid value {raw:?}"))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCEPTED: &str = "k keywords eps data";

    fn parse(tokens: &[&str]) -> Result<Args> {
        Args::parse(tokens.iter().map(|s| s.to_string()), ACCEPTED, true)
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse(&["query", "--k", "10", "--keywords", "shop,food"]).unwrap();
        assert_eq!(a.require("k").unwrap(), "10");
        assert_eq!(a.get("keywords"), Some("shop,food"));
        assert_eq!(a.get("missing"), None);
        assert_eq!(a.get_parsed("k", 0usize).unwrap(), 10);
        assert_eq!(a.get_parsed("eps", 0.5f64).unwrap(), 0.5);
    }

    #[test]
    fn accepts_one_positional() {
        let a = parse(&["batch", "queries.tsv", "--data", "d"]).unwrap();
        assert_eq!(a.positional(), Some("queries.tsv"));
        assert_eq!(a.require("data").unwrap(), "d");
        assert_eq!(parse(&["stats"]).unwrap().positional(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["query", "one", "two"]).is_err());
        assert!(parse(&["query", "--k"]).is_err());
        assert!(parse(&["query", "--k", "1", "--k", "2"]).is_err());
        assert!(parse(&["query", "--k", "x"])
            .unwrap()
            .get_parsed("k", 0usize)
            .is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        // `--log-json` must not swallow the next token.
        let a = parse(&["batch", "--log-json", "queries.tsv", "--data", "d"]).unwrap();
        assert!(a.flag("log-json"));
        assert_eq!(a.positional(), Some("queries.tsv"));
        assert_eq!(a.require("data").unwrap(), "d");
        let b = parse(&["stats", "--data", "d"]).unwrap();
        assert!(!b.flag("log-json"));
        // Trailing position works too.
        assert!(parse(&["stats", "--data", "d", "--log-json"])
            .unwrap()
            .flag("log-json"));
        // Duplicates remain rejected.
        assert!(parse(&["stats", "--log-json", "--log-json"]).is_err());
    }

    #[test]
    fn rejects_options_not_accepted() {
        let err = parse(&["query", "--kk", "2"]).unwrap_err().to_string();
        assert!(err.contains("--kk"), "{err}");
        // Checked before a value is consumed, so a trailing one is named too.
        let err = parse(&["query", "--k", "2", "--kk"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("--kk"), "{err}");
        // The global options need no listing.
        assert!(parse(&["query", "--trace-out", "t.json", "--log-json"]).is_ok());
    }

    #[test]
    fn rejects_a_positional_the_command_does_not_read() {
        let tokens = ["stats", "stray", "--data", "d"].map(String::from);
        let err = Args::parse(tokens, ACCEPTED, false)
            .unwrap_err()
            .to_string();
        assert!(err.contains("\"stray\""), "{err}");
        let tokens = ["stats", "--data", "d"].map(String::from);
        assert!(Args::parse(tokens, ACCEPTED, false).is_ok());
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&["stats"]).unwrap();
        assert!(a.require("data").is_err());
    }
}
