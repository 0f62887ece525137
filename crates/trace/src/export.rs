//! Structured export of a [`Snapshot`]: JSON for machines, markdown for
//! humans (the EXPERIMENTS.md telemetry appendix).

use crate::json::Value;
use crate::{HistogramSnapshot, Snapshot, SpanNode};
use std::fmt::Write as _;

fn span_to_json(s: &SpanNode) -> Value {
    Value::obj([
        ("name".to_string(), Value::from(s.name.as_str())),
        ("calls".to_string(), Value::from(s.calls)),
        ("total_ns".to_string(), Value::from(s.total_ns)),
        (
            "children".to_string(),
            Value::Arr(s.children.iter().map(span_to_json).collect()),
        ),
    ])
}

fn histogram_to_json(h: &HistogramSnapshot) -> Value {
    let mut pairs = vec![
        ("count".to_string(), Value::from(h.count)),
        ("sum".to_string(), Value::from(h.sum)),
        (
            "buckets".to_string(),
            Value::Arr(
                h.buckets
                    .iter()
                    .map(|&(le, c)| {
                        Value::obj([
                            // The overflow bucket's bound is u64::MAX,
                            // which f64 cannot hold exactly; export as
                            // null (conventional "+Inf" bucket).
                            (
                                "le".to_string(),
                                if le == u64::MAX {
                                    Value::Null
                                } else {
                                    Value::from(le)
                                },
                            ),
                            ("count".to_string(), Value::from(c)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(min) = h.min {
        pairs.push(("min".to_string(), Value::from(min)));
    }
    if let Some(max) = h.max {
        pairs.push(("max".to_string(), Value::from(max)));
    }
    if let Some(mean) = h.mean() {
        pairs.push(("mean".to_string(), Value::from(mean)));
    }
    Value::obj(pairs)
}

/// Converts a snapshot into a JSON value:
/// `{"counters": {...}, "histograms": {...}, "spans": [...]}`.
pub fn snapshot_to_json(snap: &Snapshot) -> Value {
    Value::obj([
        (
            "counters".to_string(),
            Value::Obj(
                snap.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::from(v)))
                    .collect(),
            ),
        ),
        (
            "histograms".to_string(),
            Value::Obj(
                snap.histograms
                    .iter()
                    .map(|(k, h)| (k.clone(), histogram_to_json(h)))
                    .collect(),
            ),
        ),
        (
            "spans".to_string(),
            Value::Arr(snap.spans.iter().map(span_to_json).collect()),
        ),
    ])
}

/// The snapshot as one JSON document (no trailing newline).
pub fn snapshot_json_string(snap: &Snapshot) -> String {
    snapshot_to_json(snap).to_string()
}

/// Whether `name` names a *timing* quantity — one that legitimately
/// varies between runs, machines, or worker counts, and therefore must
/// not appear in committed baselines or byte-compared artifacts:
///
/// - `par.*` counters describe scheduling (tasks stolen, workers parked),
///   which depends on the thread count and the OS scheduler;
/// - `*.ns` histograms record wall time.
///
/// Everything else in this workspace is a pure function of the seed.
/// (Span trees are always timing: their payload is `total_ns`, and their
/// shape depends on which thread ran which task.)
pub fn is_timing_key(name: &str) -> bool {
    name.starts_with("par.") || name.ends_with(".ns")
}

/// Splits a snapshot into `(deterministic, timing)` halves: counters and
/// histograms partitioned by [`is_timing_key`], and every span assigned
/// to the timing half. The deterministic half is byte-stable for a fixed
/// seed at any worker count — it is what CI compares and what `--baseline`
/// commits; the timing half is diagnostic.
pub fn split_deterministic(snap: &Snapshot) -> (Snapshot, Snapshot) {
    let mut deterministic = Snapshot {
        counters: Default::default(),
        histograms: Default::default(),
        spans: Vec::new(),
    };
    let mut timing = Snapshot {
        counters: Default::default(),
        histograms: Default::default(),
        spans: snap.spans.clone(),
    };
    for (name, &value) in &snap.counters {
        let side = if is_timing_key(name) {
            &mut timing
        } else {
            &mut deterministic
        };
        side.counters.insert(name.clone(), value);
    }
    for (name, hist) in &snap.histograms {
        let side = if is_timing_key(name) {
            &mut timing
        } else {
            &mut deterministic
        };
        side.histograms.insert(name.clone(), hist.clone());
    }
    (deterministic, timing)
}

/// The schema tag of every metrics document the tools write.
pub const METRICS_SCHEMA: &str = "locert-trace/v2";

/// Builds a `locert-trace/v2` metrics document from labeled sections
/// `(id, wall seconds, snapshot)`.
///
/// Each snapshot is split by [`split_deterministic`]: the
/// seed-deterministic half goes under `experiments` (byte-stable at any
/// thread count), the run-varying half plus `wall_s` under `timings`.
/// With a journal snapshot, a `journal` section records the ring's
/// capacity, entry count, and drop count, so a truncated journal is
/// visible without parsing the JSONL.
pub fn metrics_v2(
    quick: bool,
    sections: &[(String, f64, Snapshot)],
    journal: Option<&crate::journal::JournalSnapshot>,
) -> Value {
    let mut experiments = Vec::new();
    let mut timings = Vec::new();
    for (id, wall_s, snap) in sections {
        let (deterministic, timing) = split_deterministic(snap);
        experiments.push(Value::obj([
            ("id".to_string(), Value::from(id.as_str())),
            ("telemetry".to_string(), snapshot_to_json(&deterministic)),
        ]));
        timings.push(Value::obj([
            ("id".to_string(), Value::from(id.as_str())),
            ("wall_s".to_string(), Value::Num(*wall_s)),
            ("telemetry".to_string(), snapshot_to_json(&timing)),
        ]));
    }
    let mut fields = vec![
        ("schema".to_string(), Value::from(METRICS_SCHEMA)),
        ("quick".to_string(), Value::Bool(quick)),
        ("experiments".to_string(), Value::Arr(experiments)),
        ("timings".to_string(), Value::Arr(timings)),
    ];
    if let Some(snap) = journal {
        let capacity = crate::journal::capacity() as u64;
        fields.push((
            "journal".to_string(),
            Value::obj([
                ("capacity".to_string(), Value::from(capacity)),
                ("dropped".to_string(), Value::from(snap.dropped)),
                (
                    "entries".to_string(),
                    Value::from(snap.entries.len() as u64),
                ),
            ]),
        ));
    }
    Value::obj(fields)
}

/// The `journal` section of a `locert-trace/v2` document as
/// `(capacity, dropped, entries)`; `Ok(None)` when the section is absent,
/// an error when a field is missing or not a non-negative integer.
pub fn journal_section(doc: &Value) -> Result<Option<(u64, u64, u64)>, String> {
    let Some(j) = doc.get("journal") else {
        return Ok(None);
    };
    let field = |name: &str| {
        j.get(name)
            .and_then(Value::as_num)
            .filter(|v| v.fract() == 0.0 && *v >= 0.0)
            .map(|v| v as u64)
            .ok_or_else(|| format!("journal section has no integer \"{name}\""))
    };
    Ok(Some((
        field("capacity")?,
        field("dropped")?,
        field("entries")?,
    )))
}

/// The deterministic section of a `locert-trace/v2` document (`quick`
/// plus `experiments`), re-serialized with sorted keys so only content
/// matters. Two runs of the same seeded command at any thread count must
/// project to the same string.
pub fn deterministic_section(doc: &Value) -> Result<String, String> {
    let field = |key: &str| {
        doc.get(key)
            .cloned()
            .ok_or_else(|| format!("missing \"{key}\""))
    };
    Ok(Value::obj([
        ("quick".to_string(), field("quick")?),
        ("experiments".to_string(), field("experiments")?),
    ])
    .to_string())
}

fn chrome_event(name: &str, ts_us: f64, dur_us: f64, calls: u64) -> Value {
    Value::obj([
        ("name".to_string(), Value::from(name)),
        ("cat".to_string(), Value::from("span")),
        ("ph".to_string(), Value::from("X")),
        ("ts".to_string(), Value::from(ts_us)),
        ("dur".to_string(), Value::from(dur_us)),
        ("pid".to_string(), Value::from(0u64)),
        ("tid".to_string(), Value::from(0u64)),
        (
            "args".to_string(),
            Value::obj([("calls".to_string(), Value::from(calls))]),
        ),
    ])
}

/// Emits `span` as a complete ("X") event starting at `start_us`, lays
/// its children out sequentially from the same instant, and returns the
/// span's end time.
fn emit_chrome_span(events: &mut Vec<Value>, span: &SpanNode, start_us: f64) -> f64 {
    let dur_us = span.total_ns as f64 / 1e3;
    events.push(chrome_event(&span.name, start_us, dur_us, span.calls));
    let mut cursor = start_us;
    for child in &span.children {
        cursor = emit_chrome_span(events, child, cursor);
    }
    start_us + dur_us
}

/// Renders one or more labeled snapshots as a Chrome trace-event
/// document (`chrome://tracing` / Perfetto, "X" complete events).
///
/// The aggregated span forest carries durations but no timestamps, so a
/// timeline is *synthesized*: sections (and sibling spans within a
/// section) are laid out back to back, children start where their
/// parent starts. Each section gets a wrapper event named after its
/// label. The result depends only on the snapshot contents — a
/// seed-deterministic run exports a byte-identical trace.
pub fn chrome_trace_json(sections: &[(&str, &Snapshot)]) -> Value {
    let mut events = Vec::new();
    let mut cursor = 0.0f64;
    for (label, snap) in sections {
        let section_dur: f64 = snap.spans.iter().map(|s| s.total_ns as f64 / 1e3).sum();
        events.push(chrome_event(label, cursor, section_dur, 1));
        for span in &snap.spans {
            cursor = emit_chrome_span(&mut events, span, cursor);
        }
    }
    Value::obj([
        ("traceEvents".to_string(), Value::Arr(events)),
        ("displayTimeUnit".to_string(), Value::from("ms")),
    ])
}

/// [`chrome_trace_json`] as one JSON document (no trailing newline).
pub fn chrome_trace_string(sections: &[(&str, &Snapshot)]) -> String {
    chrome_trace_json(sections).to_string()
}

fn push_span_rows(out: &mut String, span: &SpanNode, depth: usize) {
    let indent = "··".repeat(depth);
    let mean_us = span.total_ns as f64 / 1e3 / span.calls.max(1) as f64;
    let _ = writeln!(
        out,
        "| {}{} | {} | {:.2} | {:.1} |",
        indent,
        span.name.replace('|', "\\|"),
        span.calls,
        span.total_ns as f64 / 1e6,
        mean_us
    );
    for child in &span.children {
        push_span_rows(out, child, depth + 1);
    }
}

/// Renders the snapshot as a markdown summary: a span-tree table, a
/// counter table, and a histogram table.
pub fn snapshot_markdown(snap: &Snapshot) -> String {
    let mut out = String::new();
    if !snap.spans.is_empty() {
        let _ = writeln!(out, "| span | calls | total [ms] | mean [µs/call] |");
        let _ = writeln!(out, "|---|---|---|---|");
        for span in &snap.spans {
            push_span_rows(&mut out, span, 0);
        }
        let _ = writeln!(out);
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "| counter | value |");
        let _ = writeln!(out, "|---|---|");
        for (name, value) in &snap.counters {
            let _ = writeln!(out, "| {} | {} |", name.replace('|', "\\|"), value);
        }
        let _ = writeln!(out);
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(out, "| histogram | count | min | mean | max |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {:.2} | {} |",
                name.replace('|', "\\|"),
                h.count,
                h.min.unwrap_or(0),
                h.mean().unwrap_or(0.0),
                h.max.unwrap_or(0)
            );
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn export_roundtrips_through_json() {
        let _g = crate::tests::serial();
        crate::disable();
        crate::reset();
        crate::enable();
        {
            let _s = crate::span!("export.test.outer");
            let _i = crate::span!("export.test.inner");
            crate::add("export.test.counter", 41);
            crate::record("export.test.histogram", 12);
            crate::record("export.test.histogram", 3);
        }
        crate::disable();
        let snap = crate::snapshot();
        crate::reset();

        let text = snapshot_json_string(&snap);
        let parsed = json::parse(&text).expect("export parses back");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("export.test.counter"))
                .and_then(json::Value::as_num),
            Some(41.0)
        );
        let hist = parsed
            .get("histograms")
            .and_then(|h| h.get("export.test.histogram"))
            .expect("histogram exported");
        assert_eq!(hist.get("count").and_then(json::Value::as_num), Some(2.0));
        assert_eq!(hist.get("sum").and_then(json::Value::as_num), Some(15.0));
        let spans = parsed
            .get("spans")
            .and_then(json::Value::as_arr)
            .expect("spans");
        let outer = spans
            .iter()
            .find(|s| s.get("name").and_then(json::Value::as_str) == Some("export.test.outer"))
            .expect("outer span exported");
        let children = outer
            .get("children")
            .and_then(json::Value::as_arr)
            .expect("children");
        assert_eq!(
            children[0].get("name").and_then(json::Value::as_str),
            Some("export.test.inner")
        );
    }

    #[test]
    fn markdown_mentions_every_section() {
        let _g = crate::tests::serial();
        crate::disable();
        crate::reset();
        crate::enable();
        {
            let _s = crate::span!("md.test.span");
            crate::add("md.test.counter", 1);
            crate::record("md.test.histogram", 2);
        }
        crate::disable();
        let snap = crate::snapshot();
        crate::reset();
        let md = snapshot_markdown(&snap);
        assert!(md.contains("md.test.span"));
        assert!(md.contains("md.test.counter"));
        assert!(md.contains("md.test.histogram"));
        assert!(md.contains("| span | calls |"));
    }

    #[test]
    fn chrome_trace_synthesizes_a_nested_timeline() {
        let _g = crate::tests::serial();
        crate::disable();
        crate::reset();
        crate::enable();
        {
            let _s = crate::span!("chrome.test.outer");
            let _i = crate::span!("chrome.test.inner");
        }
        crate::disable();
        let snap = crate::snapshot();
        crate::reset();

        let text = chrome_trace_string(&[("e1", &snap)]);
        let parsed = json::parse(&text).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents array");
        // Section wrapper + outer + inner (at least).
        assert!(events.len() >= 3, "got {} events", events.len());
        let by_name = |n: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(json::Value::as_str) == Some(n))
                .unwrap_or_else(|| panic!("event {n} present"))
        };
        let outer = by_name("chrome.test.outer");
        let inner = by_name("chrome.test.inner");
        for e in [outer, inner, by_name("e1")] {
            assert_eq!(e.get("ph").and_then(json::Value::as_str), Some("X"));
            assert!(e.get("ts").and_then(json::Value::as_num).is_some());
            assert!(e.get("dur").and_then(json::Value::as_num).is_some());
        }
        // The child starts where its parent starts and fits inside it.
        let ts = |e: &json::Value| e.get("ts").and_then(json::Value::as_num).expect("ts");
        let dur = |e: &json::Value| e.get("dur").and_then(json::Value::as_num).expect("dur");
        assert_eq!(ts(outer), ts(inner));
        assert!(dur(inner) <= dur(outer));
    }

    #[test]
    fn chrome_trace_lays_sections_back_to_back() {
        let mk = |ns: u64| Snapshot {
            counters: Default::default(),
            histograms: Default::default(),
            spans: vec![SpanNode {
                name: "s".into(),
                calls: 1,
                total_ns: ns,
                children: Vec::new(),
            }],
        };
        let (a, b) = (mk(2_000), mk(3_000));
        let parsed = json::parse(&chrome_trace_string(&[("first", &a), ("second", &b)]))
            .expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents");
        let find = |n: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(json::Value::as_str) == Some(n))
                .expect("section event")
                .get("ts")
                .and_then(json::Value::as_num)
                .expect("ts")
        };
        assert_eq!(find("first"), 0.0);
        // Second section starts after the first's 2 µs of spans.
        assert_eq!(find("second"), 2.0);
    }

    #[test]
    fn chrome_trace_escapes_hostile_span_names() {
        // Span names come from `span!` literals today, but the export
        // format must survive anything a future dynamic source puts in
        // a SpanNode: quotes, backslashes, newlines, non-ASCII.
        let hostile = [
            "with \"quotes\"",
            "back\\slash\\path",
            "tab\there",
            "line\nbreak",
            "π-treewidth ≤ 3 → 日本語",
            "control\u{1}char",
        ];
        let snap = Snapshot {
            counters: Default::default(),
            histograms: Default::default(),
            spans: hostile
                .iter()
                .map(|&name| SpanNode {
                    name: name.to_string(),
                    calls: 1,
                    total_ns: 1_000,
                    children: Vec::new(),
                })
                .collect(),
        };
        let text = chrome_trace_string(&[("sect \"x\" \\ ümlaut", &snap)]);
        let parsed = json::parse(&text).expect("escaped output parses back");
        let events = parsed
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(json::Value::as_str))
            .collect();
        assert_eq!(names[0], "sect \"x\" \\ ümlaut");
        for name in hostile {
            assert!(
                names.contains(&name),
                "name {name:?} lost in the round trip (got {names:?})"
            );
        }
    }

    #[test]
    fn chrome_trace_event_order_is_stable() {
        // Events must come out in deterministic depth-first order —
        // sections in argument order, siblings in snapshot order,
        // parent before children — and re-exporting must be
        // byte-identical (CI compares these artifacts).
        let child = |n: &str| SpanNode {
            name: n.to_string(),
            calls: 1,
            total_ns: 500,
            children: Vec::new(),
        };
        let snap_a = Snapshot {
            counters: Default::default(),
            histograms: Default::default(),
            spans: vec![
                SpanNode {
                    name: "a.outer".into(),
                    calls: 1,
                    total_ns: 2_000,
                    children: vec![child("a.inner1"), child("a.inner2")],
                },
                child("a.second-root"),
            ],
        };
        let snap_b = Snapshot {
            counters: Default::default(),
            histograms: Default::default(),
            spans: vec![child("b.only")],
        };
        let sections: &[(&str, &Snapshot)] = &[("first", &snap_a), ("second", &snap_b)];
        let text = chrome_trace_string(sections);
        assert_eq!(
            text,
            chrome_trace_string(sections),
            "re-export must be byte-identical"
        );
        let parsed = json::parse(&text).expect("parses");
        let names: Vec<String> = parsed
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents")
            .iter()
            .filter_map(|e| e.get("name").and_then(json::Value::as_str))
            .map(str::to_string)
            .collect();
        assert_eq!(
            names,
            vec![
                "first",
                "a.outer",
                "a.inner1",
                "a.inner2",
                "a.second-root",
                "second",
                "b.only",
            ],
            "wrapper first, then depth-first spans; sections in argument order"
        );
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let snap = Snapshot {
            counters: Default::default(),
            histograms: Default::default(),
            spans: Vec::new(),
        };
        assert_eq!(snapshot_markdown(&snap), "");
        let parsed = json::parse(&snapshot_json_string(&snap)).expect("parses");
        assert_eq!(
            parsed
                .get("spans")
                .and_then(json::Value::as_arr)
                .map(<[json::Value]>::len),
            Some(0)
        );
    }

    #[test]
    fn v2_document_projects_and_reports_its_journal() {
        let mut snap = Snapshot {
            counters: Default::default(),
            histograms: Default::default(),
            spans: Vec::new(),
        };
        snap.counters.insert("core.x".to_string(), 3);
        snap.counters.insert("par.worker.steals".to_string(), 9);
        let journal = crate::journal::JournalSnapshot {
            entries: Vec::new(),
            dropped: 0,
        };
        let doc = metrics_v2(true, &[("e1".to_string(), 0.5, snap)], Some(&journal));
        let section = deterministic_section(&doc).expect("v2 has both keys");
        assert!(section.contains("core.x") && !section.contains("par.worker.steals"));
        let (capacity, dropped, entries) = journal_section(&doc).unwrap().expect("journal");
        assert_eq!((dropped, entries), (0, 0));
        assert!(capacity >= 1);

        let no_quick = json::parse(r#"{"experiments":[]}"#).unwrap();
        assert_eq!(
            deterministic_section(&no_quick),
            Err("missing \"quick\"".to_string())
        );
        assert_eq!(journal_section(&no_quick), Ok(None));
        let bad = json::parse(r#"{"journal":{"capacity":-1,"dropped":0,"entries":0}}"#).unwrap();
        assert!(journal_section(&bad).is_err());
    }
}
