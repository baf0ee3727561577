//! Structured event logging: human-readable text or JSON lines.
//!
//! Call sites describe an event once — a dotted name, a human message,
//! and typed fields — and the process-wide mode decides the rendering:
//!
//! - [`LogMode::Text`] (default) keeps the CLI's historical stderr style:
//!   the message followed by `key=value` fields.
//! - [`LogMode::Json`] (`--log-json`, `SOI_LOG=json`) renders one JSON
//!   object per line on stderr with `ts_ms`, `event`, `msg`, and the
//!   fields as typed members — greppable with `jq` and safe to pipe into
//!   log collectors.
//!
//! ```
//! use soi_obs::log::{self, Value};
//! log::event("batch.done", "batch finished", &[
//!     ("queries", Value::U64(128)),
//!     ("elapsed_ms", Value::F64(41.5)),
//! ]);
//! ```

use crate::json::JsonWriter;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// How log events are rendered on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogMode {
    /// Human-readable: `msg (key=value, ...)`. The default.
    Text,
    /// One JSON object per line.
    Json,
    /// Drop everything (quiet runs, benchmark harnesses).
    Off,
}

static MODE: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide log mode.
pub fn set_mode(mode: LogMode) {
    let v = match mode {
        LogMode::Text => 0,
        LogMode::Json => 1,
        LogMode::Off => 2,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// Current process-wide log mode.
pub(crate) fn mode() -> LogMode {
    match MODE.load(Ordering::Relaxed) {
        1 => LogMode::Json,
        2 => LogMode::Off,
        _ => LogMode::Text,
    }
}

/// Reads `SOI_LOG` (`json`, `text`, `off`) and applies it; unset or
/// unrecognised values leave the mode untouched. The CLI calls this at
/// startup unless `--log-json` is given.
pub fn init_from_env() {
    match std::env::var("SOI_LOG").as_deref() {
        Ok("json") => set_mode(LogMode::Json),
        Ok("text") => set_mode(LogMode::Text),
        Ok("off") => set_mode(LogMode::Off),
        _ => {}
    }
}

/// A typed log field value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// A string field.
    Str(&'a str),
    /// An unsigned integer field.
    U64(u64),
    /// A signed integer field.
    I64(i64),
    /// A float field.
    F64(f64),
    /// A boolean field.
    Bool(bool),
}

fn unix_millis() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Renders an event in the given mode (without emitting it). Exposed so
/// tests can assert on the exact bytes; [`event`] is the emitting form.
pub(crate) fn render(
    mode: LogMode,
    ts_ms: u64,
    name: &str,
    msg: &str,
    fields: &[(&str, Value<'_>)],
) -> Option<String> {
    match mode {
        LogMode::Off => None,
        LogMode::Text => {
            let mut line = String::from(msg);
            if !fields.is_empty() {
                line.push_str(" (");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        line.push_str(", ");
                    }
                    line.push_str(k);
                    line.push('=');
                    match v {
                        Value::Str(s) => line.push_str(s),
                        Value::U64(n) => line.push_str(&n.to_string()),
                        Value::I64(n) => line.push_str(&n.to_string()),
                        Value::F64(x) => crate::json::write_f64(&mut line, *x),
                        Value::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
                    }
                }
                line.push(')');
            }
            Some(line)
        }
        LogMode::Json => {
            let mut obj = JsonWriter::object();
            obj.field_u64("ts_ms", ts_ms);
            obj.field_str("event", name);
            obj.field_str("msg", msg);
            for (k, v) in fields {
                match v {
                    Value::Str(s) => obj.field_str(k, s),
                    Value::U64(n) => obj.field_u64(k, *n),
                    Value::I64(n) => obj.field_i64(k, *n),
                    Value::F64(x) => obj.field_f64(k, *x),
                    Value::Bool(b) => obj.field_bool(k, *b),
                }
            }
            Some(obj.finish())
        }
    }
}

/// Emits one event to stderr in the current mode. `name` is a stable
/// dotted identifier (`"cli.load"`, `"batch.done"`); `msg` is the human
/// sentence; `fields` carry the machine-readable payload.
pub fn event(name: &str, msg: &str, fields: &[(&str, Value<'_>)]) {
    if let Some(line) = render(mode(), unix_millis(), name, msg, fields) {
        eprintln!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn text_mode_is_human_readable() {
        let line = render(
            LogMode::Text,
            0,
            "batch.done",
            "batch finished",
            &[("queries", Value::U64(3)), ("ok", Value::Bool(true))],
        )
        .unwrap();
        assert_eq!(line, "batch finished (queries=3, ok=true)");
        assert_eq!(
            render(LogMode::Text, 0, "x", "no fields", &[]).unwrap(),
            "no fields"
        );
    }

    #[test]
    fn json_mode_is_parseable_and_typed() {
        let line = render(
            LogMode::Json,
            1234,
            "batch.done",
            "batch \"finished\"",
            &[
                ("queries", Value::U64(3)),
                ("delta", Value::I64(-2)),
                ("p50_ms", Value::F64(4.5)),
                ("city", Value::Str("berlin")),
                ("ok", Value::Bool(true)),
            ],
        )
        .unwrap();
        let parsed = json::parse(&line).expect("log line parses");
        assert_eq!(parsed.get("ts_ms").and_then(|v| v.as_f64()), Some(1234.0));
        assert_eq!(
            parsed.get("event").and_then(|v| v.as_str()),
            Some("batch.done")
        );
        assert_eq!(
            parsed.get("msg").and_then(|v| v.as_str()),
            Some("batch \"finished\"")
        );
        assert_eq!(parsed.get("queries").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(parsed.get("delta").and_then(|v| v.as_f64()), Some(-2.0));
        assert_eq!(parsed.get("p50_ms").and_then(|v| v.as_f64()), Some(4.5));
        assert_eq!(parsed.get("city").and_then(|v| v.as_str()), Some("berlin"));
    }

    #[test]
    fn off_mode_renders_nothing() {
        assert!(render(LogMode::Off, 0, "x", "y", &[]).is_none());
    }

    #[test]
    fn mode_roundtrip() {
        let initial = mode();
        for m in [LogMode::Json, LogMode::Off, LogMode::Text] {
            set_mode(m);
            assert_eq!(mode(), m);
        }
        set_mode(initial);
    }
}
