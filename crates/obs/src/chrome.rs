//! Chrome trace-event JSON export.
//!
//! Emits the `{"traceEvents": [...]}` object format understood by
//! Perfetto and `chrome://tracing`: one `"M"` (metadata) event naming
//! each track, then the spans as `"X"` (complete) events and the instant
//! events as `"i"` events. Events are grouped per track and sorted by
//! `(ts asc, dur desc)`, so per-track timestamps are non-decreasing and
//! parents precede their children.

use crate::collector::{ArgList, EventRecord, SpanRecord};

/// The fixed `pid` every track is filed under.
const PID: u32 = 1;

/// Renders `spans` and `events` as Chrome trace-event JSON.
/// `track_names` maps track ids (indices) to display names; unknown ids
/// fall back to `track-<id>`.
pub fn chrome_trace(
    spans: &[SpanRecord],
    events: &[EventRecord],
    track_names: &[String],
) -> String {
    let mut used: Vec<u32> = spans
        .iter()
        .map(|s| s.track)
        .chain(events.iter().map(|e| e.track))
        .collect();
    used.sort_unstable();
    used.dedup();

    let mut out = String::with_capacity(64 + spans.len() * 96 + events.len() * 80);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for &track in &used {
        let fallback;
        let name = match track_names.get(track as usize) {
            Some(n) => n.as_str(),
            None => {
                fallback = format!("track-{track}");
                fallback.as_str()
            }
        };
        push_sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"",
            tid(track)
        ));
        escape_json_into(&mut out, name);
        out.push_str("\"}}");
    }

    for &track in &used {
        // Per-track, (ts asc, dur desc): non-decreasing timestamps, and
        // a parent span sorts before the children it encloses.
        let mut track_spans: Vec<&SpanRecord> = spans.iter().filter(|s| s.track == track).collect();
        track_spans.sort_by(|a, b| {
            a.start_us
                .cmp(&b.start_us)
                .then(b.dur_us.cmp(&a.dur_us))
                .then(a.depth.cmp(&b.depth))
        });
        for span in track_spans {
            push_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":\"{}\",\"name\":\"",
                tid(track),
                span.start_us,
                span.dur_us,
                span.cat.label()
            ));
            escape_json_into(&mut out, span.name);
            out.push('"');
            push_args(&mut out, &span.args);
            out.push('}');
        }

        let mut track_events: Vec<&EventRecord> =
            events.iter().filter(|e| e.track == track).collect();
        track_events.sort_by_key(|e| e.ts_us);
        for event in track_events {
            push_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"cat\":\"{}\",\"name\":\"",
                tid(track),
                event.ts_us,
                event.cat.label()
            ));
            escape_json_into(&mut out, event.name);
            out.push('"');
            push_args(&mut out, &event.args);
            out.push('}');
        }
    }
    out.push_str("]}");
    out
}

/// Chrome `tid`s are 1-based so track 0 ("main") does not collide with
/// the conventional idle tid 0.
fn tid(track: u32) -> u32 {
    track + 1
}

fn push_sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
}

fn push_args(out: &mut String, args: &ArgList) {
    if args.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    let mut first = true;
    for (key, value) in args.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        escape_json_into(out, key);
        out.push_str(&format!("\":{value}"));
    }
    out.push('}');
}

/// Appends `s` to `out` with JSON string escaping (quotes, backslashes,
/// control characters), without the surrounding quotes. The workspace's
/// one JSON string escaper: the engine's report writer uses it too.
pub fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}
