//! Chrome trace-event export (`chrome://tracing` / Perfetto).
//!
//! Emits the JSON object format: `{"traceEvents": [...]}` where each
//! event carries `name`, `ph`, `ts`, `pid`, `tid`, and for complete
//! (`"X"`) events a `dur`. Timestamps are *simulated cycles* mapped
//! 1:1 to trace microseconds, which viewers render fine.

use dcfb_errors::json::write_escaped;

/// One trace event. `ph` is `'X'` (complete span) or `'C'` (counter).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Event name (track label).
    pub name: &'static str,
    /// Phase: `'X'` complete, `'C'` counter.
    pub ph: char,
    /// Timestamp in cycles.
    pub ts: u64,
    /// Duration in cycles (complete events only).
    pub dur: u64,
    /// Thread id — one lane per stall kind / counter track.
    pub tid: u32,
    /// Counter arguments (`"C"` events) or span annotations.
    pub args: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// A complete (`"X"`) span event.
    pub fn span(name: &'static str, ts: u64, dur: u64, tid: u32) -> TraceEvent {
        TraceEvent {
            name,
            ph: 'X',
            ts,
            dur,
            tid,
            args: Vec::new(),
        }
    }

    /// A counter (`"C"`) event.
    pub fn counter(name: &'static str, ts: u64, args: Vec<(&'static str, u64)>) -> TraceEvent {
        TraceEvent {
            name,
            ph: 'C',
            ts,
            dur: 0,
            tid: 0,
            args,
        }
    }
}

/// Serializes `events` as a Chrome trace JSON document.
///
/// Events are stably sorted by timestamp first, so the output always
/// has monotonically non-decreasing `ts` — some viewers require it
/// and our tests assert it.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.ts);
    let mut out = String::with_capacity(64 + sorted.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_escaped(&mut out, e.name);
        out.push_str(",\"ph\":\"");
        out.push(e.ph);
        out.push_str("\",\"ts\":");
        out.push_str(&e.ts.to_string());
        if e.ph == 'X' {
            out.push_str(",\"dur\":");
            out.push_str(&e.dur.to_string());
        }
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&e.tid.to_string());
        out.push_str(",\"args\":{");
        for (j, (k, v)) in e.args.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_escaped(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use dcfb_errors::json::JsonValue;

    #[test]
    fn output_is_valid_json_with_monotone_timestamps() {
        let events = vec![
            TraceEvent::span("l1i_stall", 50, 10, 1),
            TraceEvent::counter("window", 10, vec![("instrs", 100), ("misses", 3)]),
            TraceEvent::span("btb_stall", 20, 5, 2),
        ];
        let text = chrome_trace_json(&events);
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let evs = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        assert_eq!(evs.len(), 3);
        let ts: Vec<u64> = evs
            .iter()
            .map(|e| e.get("ts").and_then(JsonValue::as_u64).unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts {ts:?}");
        // Counter args survive.
        let first = &evs[0];
        assert_eq!(
            first
                .get("args")
                .and_then(|a| a.get("instrs"))
                .and_then(JsonValue::as_u64),
            Some(100)
        );
    }

    #[test]
    fn empty_trace_is_valid() {
        let text = chrome_trace_json(&[]);
        let doc = JsonValue::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(JsonValue::as_array)
                .map(Vec::len),
            Some(0)
        );
    }

    #[test]
    fn complete_events_carry_duration() {
        let text = chrome_trace_json(&[TraceEvent::span("l1i_stall", 1, 9, 1)]);
        let doc = JsonValue::parse(&text).unwrap();
        let ev = &doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap()[0];
        assert_eq!(ev.get("dur").and_then(JsonValue::as_u64), Some(9));
        assert_eq!(ev.get("ph").and_then(JsonValue::as_str), Some("X"));
    }
}
