//! `locert bench_diff` — the regression gate over committed benchmark
//! baselines.
//!
//! Compares two benchmark artifacts and finds a regression when any
//! entry in CURRENT is slower than its BASELINE counterpart by the noise
//! threshold or more (default 1.5x). Three artifact schemas are
//! auto-detected:
//!
//! - `locert-criterion/v1` (`BENCH_*.json` from the vendored criterion
//!   stub): compares `median_ns` per benchmark name;
//! - `locert-trace/v2` (`metrics.json`): compares `wall_s` per
//!   experiment id from the `timings` section — the deterministic
//!   `experiments` section carries no wall-clock by design;
//! - `locert-serve/v1` (`loadgen-latency.json` from the serve load
//!   generator): compares `p50_ns` and `p99_ns` per latency entry,
//!   flattened to `<name>/p50` and `<name>/p99` rows.
//!
//! Entries present in only one file are reported but never fail the gate
//! (benchmarks come and go; the gate is about the ones that persist). A
//! markdown delta table goes to stdout so CI logs double as a report.
//!
//! `scale` multiplies every metric in IN by FACTOR and writes OUT — CI
//! uses it to synthesize a known 2x regression and assert the gate trips.

use locert_par::run::{io_error, usage, Failure, Outcome, Run, Verdict};
use locert_trace::export::journal_section;
use locert_trace::json::{parse, Value};

/// Noise tolerance: current/baseline ratios strictly below this factor pass.
const DEFAULT_THRESHOLD: f64 = 1.5;

pub const USAGE: &str = "\
usage: locert bench_diff BASELINE CURRENT [--threshold FACTOR]
       locert bench_diff scale FACTOR IN OUT

Compares two benchmark artifacts (BENCH_*.json with schema
locert-criterion/v1, metrics.json with schema locert-trace/v2 — its
wall-clock lives in the \"timings\" section — or loadgen-latency.json
with schema locert-serve/v1, whose p50/p99 nanoseconds are compared
per entry), prints a markdown delta table, and exits 1 if any shared
entry in CURRENT reaches or exceeds BASELINE times FACTOR (default 1.5).

The scale form multiplies every metric in IN by FACTOR and writes
OUT; CI uses it to inject a synthetic regression.";

/// One comparable entry extracted from an artifact: a name and a metric.
struct Entry {
    name: String,
    value: f64,
}

/// Which schema an artifact declared, and the unit its metric carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Criterion,
    Metrics,
    Serve,
}

impl Kind {
    fn unit(self) -> &'static str {
        match self {
            Kind::Criterion => "median ns",
            Kind::Metrics => "wall s",
            Kind::Serve => "latency ns",
        }
    }

    /// The array holding the entries, and each entry's metric keys.
    fn layout(self) -> (&'static str, &'static [&'static str]) {
        match self {
            Kind::Criterion => ("benchmarks", &["median_ns"]),
            Kind::Metrics => ("timings", &["wall_s"]),
            Kind::Serve => ("latency", &["p50_ns", "p99_ns"]),
        }
    }
}

/// A v2 `journal` section's ring accounting: (capacity, dropped, entries).
type JournalMeta = (u64, u64, u64);

fn load_doc(path: &str) -> Result<Value, Failure> {
    parse(&Run::read(path)?).map_err(|e| io_error(format!("{path}: {e}")))
}

/// Reads and parses one artifact into its kind, entry list, and
/// (for v2 metrics dumps) journal ring accounting.
fn load(path: &str) -> Result<(Kind, Vec<Entry>, Option<JournalMeta>), Failure> {
    let doc = load_doc(path)?;
    let (kind, entries) = extract(&doc).map_err(|e| io_error(format!("{path}: {e}")))?;
    // Report-only: a malformed journal section is trace-check's business.
    Ok((kind, entries, journal_section(&doc).ok().flatten()))
}

fn kind_of(doc: &Value) -> Result<Kind, String> {
    match doc.get("schema").and_then(Value::as_str) {
        None => Err("missing \"schema\" key".to_string()),
        Some("locert-criterion/v1") => Ok(Kind::Criterion),
        Some("locert-trace/v2") => Ok(Kind::Metrics),
        Some("locert-serve/v1") => Ok(Kind::Serve),
        Some(other) => Err(format!("unknown schema {other:?}")),
    }
}

fn extract(doc: &Value) -> Result<(Kind, Vec<Entry>), String> {
    let kind = kind_of(doc)?;
    let (list_key, metric_keys) = kind.layout();
    let name_key = match kind {
        Kind::Metrics => "id",
        Kind::Criterion | Kind::Serve => "name",
    };
    let items = doc
        .get(list_key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing \"{list_key}\" array"))?;
    let mut entries = Vec::new();
    for item in items {
        let name = item
            .get(name_key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{list_key} entry without \"{name_key}\""))?;
        for metric_key in metric_keys {
            let value = item
                .get(metric_key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("{list_key} entry without \"{metric_key}\""))?;
            // Each serve latency entry carries two comparable quantiles;
            // flatten them into independent rows so a p99-only
            // regression is its own line in the delta table.
            let name = match kind {
                Kind::Serve => format!("{name}/{}", metric_key.trim_end_matches("_ns")),
                Kind::Criterion | Kind::Metrics => name.to_string(),
            };
            entries.push(Entry { name, value });
        }
    }
    Ok((kind, entries))
}

/// Multiplies every metric in the artifact by `factor`, in place.
fn scale_doc(doc: &mut Value, factor: f64) -> Result<(), String> {
    let (kind, _) = extract(doc)?;
    let (list_key, metric_keys) = kind.layout();
    let Value::Obj(map) = doc else {
        unreachable!("extract checked")
    };
    let Some(Value::Arr(items)) = map.get_mut(list_key) else {
        unreachable!("extract checked")
    };
    for item in items {
        if let Value::Obj(fields) = item {
            for metric_key in metric_keys {
                if let Some(Value::Num(v)) = fields.get_mut(*metric_key) {
                    *v *= factor;
                }
            }
        }
    }
    Ok(())
}

fn run_scale(factor_s: &str, input: &str, output: &str) -> Outcome {
    let factor: f64 = factor_s
        .parse()
        .map_err(|_| usage(format!("bad scale factor {factor_s:?}")))?;
    let mut doc = load_doc(input)?;
    scale_doc(&mut doc, factor).map_err(|e| io_error(format!("{input}: {e}")))?;
    Run::write_artifact(output, &format!("{doc}\n"))?;
    println!("scaled {input} by {factor} -> {output}");
    Ok(Verdict::Pass)
}

/// Formats a metric for the table: ns as integers, seconds with precision.
fn fmt_value(kind: Kind, v: f64) -> String {
    match kind {
        Kind::Criterion | Kind::Serve => format!("{v:.0}"),
        Kind::Metrics => format!("{v:.3}"),
    }
}

fn run_diff(baseline_path: &str, current_path: &str, threshold: f64) -> Outcome {
    let (base_kind, base, base_journal) = load(baseline_path)?;
    let (cur_kind, cur, cur_journal) = load(current_path)?;
    if base_kind != cur_kind {
        return Err(io_error(format!(
            "schema mismatch: {baseline_path} is {base_kind:?}, {current_path} is {cur_kind:?}"
        )));
    }

    println!("## bench-diff: {baseline_path} vs {current_path}");
    println!();
    println!("Threshold: current/baseline >= {threshold:.2} on any shared entry fails the gate.");
    println!();
    // Journal ring accounting (report-only, never gates): a truncated
    // journal means wall-clock entries were produced under different
    // recording pressure, worth seeing next to the deltas.
    for (label, meta) in [("baseline", &base_journal), ("current", &cur_journal)] {
        if let Some((capacity, dropped, entries)) = meta {
            let note = if *dropped > 0 {
                " — **truncated**"
            } else {
                ""
            };
            println!("Journal ({label}): {entries}/{capacity} events, {dropped} dropped{note}.");
        }
    }
    if base_journal.is_some() || cur_journal.is_some() {
        println!();
    }
    println!(
        "| benchmark | baseline ({u}) | current ({u}) | ratio | status |",
        u = base_kind.unit()
    );
    println!("|---|---:|---:|---:|---|");

    let mut regressions = Vec::new();
    let mut shared = 0usize;
    for b in &base {
        let Some(c) = cur.iter().find(|c| c.name == b.name) else {
            println!(
                "| {} | {} | — | — | removed |",
                b.name,
                fmt_value(base_kind, b.value)
            );
            continue;
        };
        shared += 1;
        // A zero baseline can't define a ratio; treat any nonzero current
        // value as within noise rather than dividing by zero.
        let ratio = if b.value == 0.0 {
            1.0
        } else {
            c.value / b.value
        };
        // A regression exactly at the threshold counts: the gate promises
        // "ratios up to FACTOR pass", so landing on the factor fails. The
        // `ratio > 1.0` guard keeps identical inputs green at threshold 1.
        let status = if ratio >= threshold && ratio > 1.0 {
            regressions.push(b.name.clone());
            "**REGRESSION**"
        } else if ratio < 1.0 / threshold {
            "improved"
        } else {
            "ok"
        };
        println!(
            "| {} | {} | {} | {ratio:.2} | {status} |",
            b.name,
            fmt_value(base_kind, b.value),
            fmt_value(base_kind, c.value),
        );
    }
    for c in &cur {
        if !base.iter().any(|b| b.name == c.name) {
            println!(
                "| {} | — | {} | — | added |",
                c.name,
                fmt_value(base_kind, c.value)
            );
        }
    }

    println!();
    if regressions.is_empty() {
        println!("No regressions across {shared} shared entries.");
    } else {
        println!(
            "{} regression(s) at or beyond {threshold:.2}x: {}",
            regressions.len(),
            regressions.join(", ")
        );
    }
    Ok(Verdict::from_clean(regressions.is_empty()))
}

pub fn main(run: &mut Run) -> Outcome {
    let threshold = match run.take_opt("--threshold")? {
        None => DEFAULT_THRESHOLD,
        Some(v) => match v.parse::<f64>() {
            Ok(t) if t >= 1.0 => t,
            _ => return Err(usage(format!("bad threshold {v:?} (need a number >= 1)"))),
        },
    };
    let args = run.positional()?;
    match args.as_slice() {
        [cmd, factor, input, output] if cmd == "scale" => run_scale(factor, input, output),
        [cmd, ..] if cmd == "scale" => Err(usage("scale takes exactly FACTOR IN OUT")),
        [baseline, current] => run_diff(baseline, current, threshold),
        _ => Err(usage("expected exactly BASELINE and CURRENT paths")),
    }
}
