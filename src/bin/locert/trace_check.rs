//! `locert trace-check` — the gate for telemetry artifacts.
//!
//! The single-file mode finds a problem unless the file parses as a
//! `locert-trace/v2` document (the shape every `--metrics`/`--out`
//! metrics file has) with a non-empty `experiments` array (per entry:
//! `id` + non-empty deterministic counters) and a matching `timings`
//! array (per entry: `id` + `wall_s` + span tree). The optional
//! `journal` section must carry consistent ring-buffer accounting:
//! `capacity` ≥ 1, `entries` ≤ `capacity`, and a `dropped` count —
//! reported in the OK line so a truncated journal is visible at a glance.
//!
//! `--compare` checks that two dumps have byte-identical deterministic
//! sections (`export::deterministic_section`) — the CI determinism gate
//! between runs at 1 and 4 threads. The `timings` sections are expected
//! to differ and are ignored.

use locert_par::run::{Outcome, Run, Verdict};
use locert_trace::export::{deterministic_section, journal_section, METRICS_SCHEMA};
use locert_trace::json::{self, Value};

pub const USAGE: &str = "\
usage: locert trace-check METRICS_JSON
       locert trace-check --compare A_JSON B_JSON";

pub fn main(run: &mut Run) -> Outcome {
    let result = if run.take_flag("--compare") {
        let [a, b] = run.exactly("A_JSON and B_JSON")?;
        compare(&Run::read(&a)?, &a, &Run::read(&b)?, &b)
    } else {
        let [path] = run.exactly("one METRICS_JSON path")?;
        check(&Run::read(&path)?, &path)
    };
    match result {
        Ok(msg) => {
            println!("{msg}");
            Ok(Verdict::Pass)
        }
        Err(msg) => {
            eprintln!("trace-check: {msg}");
            Ok(Verdict::Finding)
        }
    }
}

/// The OK line for a valid document, or the finding.
fn check(text: &str, path: &str) -> Result<String, String> {
    let doc = json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    let (experiments, journal_note) = check_doc(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok(format!(
        "{path}: OK ({METRICS_SCHEMA}, {experiments} experiments, {} bytes{journal_note})",
        text.len()
    ))
}

/// Validates a v2 document; returns the experiment count and the
/// journal note of the OK line.
fn check_doc(doc: &Value) -> Result<(usize, String), String> {
    let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != METRICS_SCHEMA {
        return Err(format!("unknown schema {schema:?}"));
    }
    let experiments = doc
        .get("experiments")
        .and_then(Value::as_arr)
        .ok_or("missing top-level \"experiments\" array")?;
    if experiments.is_empty() {
        return Err("\"experiments\" is empty".to_string());
    }
    for (i, exp) in experiments.iter().enumerate() {
        let id = exp
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("experiments[{i}] has no \"id\""))?;
        match exp.get("telemetry").and_then(|t| t.get("counters")) {
            Some(Value::Obj(counters)) if !counters.is_empty() => {}
            _ => return Err(format!("experiment {id} recorded no counters")),
        }
    }
    let timings = doc
        .get("timings")
        .and_then(Value::as_arr)
        .ok_or("missing top-level \"timings\" array")?;
    if timings.len() != experiments.len() {
        return Err(format!(
            "timings has {} entries, experiments {}",
            timings.len(),
            experiments.len()
        ));
    }
    for (i, t) in timings.iter().enumerate() {
        let id = t
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("timings[{i}] has no \"id\""))?;
        if t.get("wall_s").and_then(Value::as_num).is_none() {
            return Err(format!("timing {id} has no wall_s"));
        }
        let spans = t
            .get("telemetry")
            .and_then(|tel| tel.get("spans"))
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("timing {id} has no span tree"))?;
        if spans.is_empty() {
            return Err(format!("timing {id} recorded no spans"));
        }
    }
    let journal_note = match journal_section(doc)? {
        None => String::new(),
        Some((capacity, dropped, entries)) => {
            if capacity == 0 {
                return Err("journal capacity must be at least 1".to_string());
            }
            if entries > capacity {
                return Err(format!(
                    "journal claims {entries} entries in a ring of {capacity}"
                ));
            }
            if dropped > 0 && entries < capacity {
                return Err(format!(
                    "journal dropped {dropped} events but the ring is not full \
                     ({entries} of {capacity})"
                ));
            }
            format!(", journal {entries}/{capacity} events, {dropped} dropped")
        }
    };
    Ok((experiments.len(), journal_note))
}

fn compare(text_a: &str, a: &str, text_b: &str, b: &str) -> Result<String, String> {
    let section = |text: &str, path: &str| {
        json::parse(text)
            .map_err(|e| e.to_string())
            .and_then(|doc| deterministic_section(&doc))
            .map_err(|e| format!("{path}: {e}"))
    };
    let sa = section(text_a, a)?;
    let sb = section(text_b, b)?;
    if sa == sb {
        return Ok(format!(
            "deterministic sections identical ({a} vs {b}, {} bytes)",
            sa.len()
        ));
    }
    // Locate the first divergence for the diagnostic.
    let at = sa
        .bytes()
        .zip(sb.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| sa.len().min(sb.len()));
    let ctx = |s: &str| {
        let start = at.saturating_sub(40);
        let end = (at + 40).min(s.len());
        s.get(start..end)
            .unwrap_or("<non-utf8 boundary>")
            .to_string()
    };
    Err(format!(
        "deterministic sections differ at byte {at}:\n  {a}: …{}…\n  {b}: …{}…",
        ctx(&sa),
        ctx(&sb)
    ))
}
