//! Property-based tests of the trace model and its two export formats:
//! a merge keeps every event in stable order, the tallies agree with each
//! other, and both exports validate and carry every event back, whatever
//! the names, arguments and values hold.

use proptest::prelude::*;

use scibench_trace::export::json_escape;
use scibench_trace::{
    category, is_schedule_dependent, parse_json, to_chrome_json, to_jsonl, validate_chrome_trace,
    validate_jsonl, ArgValue, EventKind, EventName, JsonValue, Trace, TraceEvent, Tracer,
};

const CATEGORIES: [&str; 7] = [
    category::POOL,
    category::SCHED,
    category::CAMPAIGN,
    category::RESILIENCE,
    category::FAULT,
    category::FIGURE,
    category::HARNESS,
];

/// Characters an escaper must get right: quotes, backslashes, control
/// characters and multi-byte code points.
const CHARS: [char; 12] = [
    'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '😀',
];

fn any_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..CHARS.len(), 0..16)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

fn any_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (0u64..1_000_000).prop_map(|dur_ns| EventKind::Span { dur_ns }),
        Just(EventKind::Instant),
        (-1e9f64..1e9).prop_map(|value| EventKind::Counter { value }),
    ]
}

fn any_event() -> impl Strategy<Value = TraceEvent> {
    (
        0usize..CATEGORIES.len(),
        any_text(),
        0u64..10_000,
        0u32..8,
        0u64..1_000_000,
        any_kind(),
        any_text(),
        -1e6f64..1e6,
    )
        .prop_map(|(cat, name, t_ns, lane, seq, kind, note, x)| TraceEvent {
            cat: CATEGORIES[cat],
            name: EventName::from(name),
            t_ns,
            lane,
            seq,
            kind,
            args: vec![
                ("note", ArgValue::Str(note)),
                ("x", ArgValue::F64(x)),
                ("i", ArgValue::I64(-3)),
                ("flag", ArgValue::Bool(true)),
            ],
        })
}

fn any_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(any_event(), 0..40).prop_map(|events| Trace { events })
}

fn sort_key(e: &TraceEvent) -> (u64, u32, u64) {
    (e.t_ns, e.lane, e.seq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_traces_are_sorted_and_lose_no_event(a in any_trace(), b in any_trace()) {
        let mut merged = a.clone();
        merged.merge(b.clone());
        prop_assert_eq!(merged.len(), a.len() + b.len());
        prop_assert!(merged.events.windows(2).all(|w| sort_key(&w[0]) <= sort_key(&w[1])));
        for cat in CATEGORIES {
            prop_assert_eq!(merged.count(cat), a.count(cat) + b.count(cat));
        }
    }

    #[test]
    fn merge_order_does_not_matter_when_keys_are_distinct(a in any_trace(), b in any_trace()) {
        let mut keys: Vec<_> = a.events.iter().chain(&b.events).map(sort_key).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assume!(keys.len() == a.len() + b.len());
        let (mut ab, mut ba) = (a.clone(), b.clone());
        ab.merge(b);
        ba.merge(a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn tallies_agree_with_each_other(trace in any_trace()) {
        let (spans, instants, counters) = trace.kind_counts();
        prop_assert_eq!(spans + instants + counters, trace.len());
        let all = trace.category_counts();
        prop_assert_eq!(all.values().sum::<usize>(), trace.len());
        let det = trace.deterministic_counts();
        for (cat, n) in &all {
            prop_assert_eq!(trace.count(cat), *n);
            prop_assert_eq!(det.get(cat).copied(), (!is_schedule_dependent(cat)).then_some(*n));
        }
        for cat in CATEGORIES {
            let durations: u64 = trace.events.iter().filter(|e| e.cat == cat).filter_map(|e| e.dur_ns()).sum();
            prop_assert_eq!(trace.total_span_ns(cat), durations);
        }
    }

    #[test]
    fn escaped_strings_parse_back_to_themselves(s in any_text()) {
        // RFC 8259 §7: control characters appear only as escapes. The
        // parser reads raw ones too, so the round trip alone would miss it.
        let escaped = json_escape(&s);
        prop_assert!(!escaped.chars().any(|c| (c as u32) < 0x20), "{:?}", escaped);
        let quoted = format!("\"{escaped}\"");
        prop_assert_eq!(parse_json(&quoted).unwrap(), JsonValue::String(s));
    }

    #[test]
    fn chrome_export_validates_and_names_every_event(trace in any_trace()) {
        let text = to_chrome_json(&trace);
        prop_assert_eq!(validate_chrome_trace(&text), Ok(trace.len()));
        let doc = parse_json(&text).unwrap();
        let events = doc.as_array().unwrap();
        for (parsed, e) in events.iter().zip(&trace.events) {
            prop_assert_eq!(parsed.get("name").and_then(JsonValue::as_str), Some(&*e.name));
            prop_assert_eq!(parsed.get("cat").and_then(JsonValue::as_str), Some(e.cat));
            let note = parsed.get("args").and_then(|a| a.get("note")).and_then(JsonValue::as_str);
            prop_assert_eq!(note.map(str::to_owned), e.arg("note").map(|v| match v {
                ArgValue::Str(s) => s.clone(),
                other => format!("{other:?}"),
            }));
        }
    }

    #[test]
    fn jsonl_export_validates_and_keeps_every_event(trace in any_trace()) {
        let text = to_jsonl(&trace);
        prop_assert_eq!(validate_jsonl(&text), Ok(trace.len()));
        prop_assert_eq!(text.lines().count(), trace.len());
        for (line, e) in text.lines().zip(&trace.events) {
            let parsed = parse_json(line).unwrap();
            prop_assert_eq!(parsed.get("name").and_then(JsonValue::as_str), Some(&*e.name));
            prop_assert_eq!(parsed.get("t_ns").and_then(JsonValue::as_f64), Some(e.t_ns as f64));
            prop_assert_eq!(parsed.get("seq").and_then(JsonValue::as_f64), Some(e.seq as f64));
            if let EventKind::Counter { value } = e.kind {
                prop_assert_eq!(parsed.get("value").and_then(JsonValue::as_f64), Some(value));
            }
        }
    }

    #[test]
    fn tracer_lanes_number_their_events_in_order(per_lane in prop::collection::vec(0usize..20, 1..6)) {
        let tracer = Tracer::new();
        for (lane, &n) in per_lane.iter().enumerate() {
            let mut local = tracer.lane(lane as u32);
            for i in 0..n {
                local.instant(category::CAMPAIGN, "tick", &[("i", ArgValue::U64(i as u64))]);
            }
        }
        let trace = tracer.drain();
        prop_assert_eq!(trace.len(), per_lane.iter().sum::<usize>());
        for (lane, &n) in per_lane.iter().enumerate() {
            let seqs: Vec<u64> = trace.events.iter().filter(|e| e.lane == lane as u32).map(|e| e.seq).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n as u64).collect::<Vec<_>>());
        }
    }
}
