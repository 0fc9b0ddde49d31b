//! Trace exporter: chrome://tracing JSON.
//!
//! The format is hand-rolled (workspace convention: no JSON dependency).
//! It targets the Trace Event Format's JSON array flavour — complete
//! events (`ph: "X"`), instant events (`ph: "i"`) and counter events
//! (`ph: "C"`) — loadable directly in `chrome://tracing` or Perfetto.
//! Timestamps are microseconds with nanosecond fractions; lanes map to
//! `tid`, everything shares `pid` 0.

use std::fmt::Write as _;

use crate::event::{ArgValue, EventKind, TraceEvent};
use crate::trace::Trace;

/// Escapes a string for inclusion inside JSON quotes.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_json_escaped(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped as by [`json_escape`].
pub fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats an `f64` as a JSON token: plain number when finite, quoted
/// string otherwise (JSON has no NaN/Infinity literals).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("\"{v}\"")
    }
}

fn json_arg_value(v: &ArgValue) -> String {
    match v {
        ArgValue::U64(x) => format!("{x}"),
        ArgValue::I64(x) => format!("{x}"),
        ArgValue::F64(x) => json_f64(*x),
        ArgValue::Bool(x) => format!("{x}"),
        ArgValue::Str(x) => format!("\"{}\"", json_escape(x)),
    }
}

fn json_args(args: &[(&'static str, ArgValue)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = Vec::with_capacity(args.len() + 1);
    if let Some((k, v)) = extra {
        parts.push(format!("\"{}\":{}", json_escape(k), v));
    }
    for (k, v) in args {
        parts.push(format!("\"{}\":{}", json_escape(k), json_arg_value(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Microseconds with nanosecond fraction, as a JSON number.
fn micros(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1_000, t_ns % 1_000)
}

fn chrome_event(e: &TraceEvent) -> String {
    let common = format!(
        "\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"pid\":0,\"tid\":{}",
        json_escape(&e.name),
        json_escape(e.cat),
        micros(e.t_ns),
        e.lane
    );
    match &e.kind {
        EventKind::Span { dur_ns } => format!(
            "{{{common},\"ph\":\"X\",\"dur\":{},\"args\":{}}}",
            micros(*dur_ns),
            json_args(&e.args, None)
        ),
        EventKind::Instant => format!(
            "{{{common},\"ph\":\"i\",\"s\":\"t\",\"args\":{}}}",
            json_args(&e.args, None)
        ),
        EventKind::Counter { value } => format!(
            "{{{common},\"ph\":\"C\",\"args\":{}}}",
            json_args(&e.args, Some(("value", json_f64(*value))))
        ),
    }
}

/// Renders the trace as a chrome://tracing JSON array.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::from("[\n");
    for (i, e) in trace.events.iter().enumerate() {
        out.push_str(&chrome_event(e));
        if i + 1 < trace.events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{category, EventName};

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                TraceEvent {
                    cat: category::POOL,
                    name: EventName::from("task"),
                    t_ns: 1_234_567,
                    lane: 2,
                    seq: 0,
                    kind: EventKind::Span { dur_ns: 4_005 },
                    args: vec![
                        ("index", ArgValue::U64(7)),
                        ("stolen", ArgValue::Bool(true)),
                    ],
                },
                TraceEvent {
                    cat: category::SCHED,
                    name: EventName::from("steal \"x\"\n"),
                    t_ns: 8,
                    lane: 0,
                    seq: 1,
                    kind: EventKind::Instant,
                    args: vec![("err", ArgValue::Str("a\\b".into()))],
                },
                TraceEvent {
                    cat: category::CAMPAIGN,
                    name: EventName::from("samples"),
                    t_ns: 9,
                    lane: 1,
                    seq: 2,
                    kind: EventKind::Counter { value: 12.5 },
                    args: vec![("bad", ArgValue::F64(f64::NAN)), ("n", ArgValue::I64(-3))],
                },
            ],
        }
    }

    #[test]
    fn chrome_json_is_schema_valid() {
        let text = to_chrome_json(&sample_trace());
        let n = crate::json::validate_chrome_trace(&text).unwrap();
        assert_eq!(n, 3);
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ts\":1234.567"));
        assert!(text.contains("\"dur\":4.005"));
        assert!(text.contains("\"tid\":2"));
    }

    #[test]
    fn escaping_round_trips_through_parser() {
        let trace = sample_trace();
        let doc = crate::json::parse(&to_chrome_json(&trace)).unwrap();
        let events = doc.as_array().unwrap();
        assert_eq!(events.len(), trace.len());
        for (parsed, e) in events.iter().zip(&trace.events) {
            assert_eq!(parsed.get("name").and_then(|n| n.as_str()), Some(&*e.name));
        }
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn push_json_escaped_appends_to_what_the_buffer_holds() {
        let mut out = String::from("[\"");
        push_json_escaped(&mut out, "a\"b\n");
        push_json_escaped(&mut out, "\\");
        assert_eq!(
            out,
            format!("[\"{}{}", json_escape("a\"b\n"), json_escape("\\"))
        );
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let t = Trace::default();
        assert_eq!(
            crate::json::validate_chrome_trace(&to_chrome_json(&t)).unwrap(),
            0
        );
    }
}
