//! `locert tracescope` — query, explain, diff, window, flame, tail, and
//! serve locert journals and metrics.
//!
//! Exit codes follow the shared contract: 0 success (for `diff`:
//! identical; for `why`: fully resolved), 1 finding (divergence /
//! unresolved detection), 2 usage or IO error.

use locert_par::run::{io_error, usage, Failure, Outcome, Run, Verdict};
use locert_scope::{causal, diff, flame, http, query, window};
use locert_trace::journal::{self, JournalSnapshot};
use locert_trace::json;

pub const USAGE: &str = "\
usage: locert tracescope <command> …
  query   JOURNAL [--kind K]… [--vertex V] [--name N] [--round R]
                  [--scope S] [--limit N] [--count]
  why     JOURNAL [--vertex V]         causal chains (all detections when
                                       no vertex; exit 1 if any detection
                                       is unresolved)
  diff    LEFT RIGHT                   first divergence (exit 1) or
                                       identical (exit 0)
  windows JOURNAL [--scope S] [--interval N]
                                       per-window event counts over
                                       logical rounds (default interval 1)
  flame   METRICS_JSON [--out PATH]    collapsed-stack flamegraph export
  tail    JOURNAL [-n N]               newest N entries as JSONL
  serve   [JOURNAL] [--addr HOST:PORT] [--max-requests N]
                                       HTTP exporter: /metrics /healthz
                                       /journal/tail?n=";

pub fn main(run: &mut Run) -> Outcome {
    match run.shift().as_deref() {
        Some("query") => cmd_query(run),
        Some("why") => cmd_why(run),
        Some("diff") => cmd_diff(run),
        Some("windows") => cmd_windows(run),
        Some("flame") => cmd_flame(run),
        Some("tail") => cmd_tail(run),
        Some("serve") => cmd_serve(run),
        Some(other) => Err(usage(format!("unknown command {other:?}"))),
        None => Err(usage("missing command")),
    }
}

fn load_journal(path: &str) -> Result<JournalSnapshot, Failure> {
    journal::from_jsonl(&Run::read(path)?).map_err(|e| io_error(format!("{path}: {e}")))
}

fn cmd_query(run: &mut Run) -> Outcome {
    let mut q = query::Query::default();
    while let Some(kind) = run.take_opt("--kind")? {
        q.kinds.push(kind);
    }
    q.vertex = run.take_parsed("--vertex")?;
    q.name = run.take_opt("--name")?;
    q.round = run.take_parsed("--round")?;
    q.scope = run.take_opt("--scope")?;
    let limit: Option<usize> = run.take_parsed("--limit")?;
    let count_only = run.take_flag("--count");
    let [path] = run.exactly("one JOURNAL path")?;
    let snap = load_journal(&path)?;
    let hits = query::run(&snap, &q);
    if count_only {
        println!("{}", hits.len());
        return Ok(Verdict::Pass);
    }
    for entry in hits.iter().take(limit.unwrap_or(usize::MAX)) {
        println!("{}", journal::entry_to_jsonl_line(entry));
    }
    if let Some(limit) = limit {
        if hits.len() > limit {
            eprintln!("… {} more (raise --limit)", hits.len() - limit);
        }
    }
    Ok(Verdict::Pass)
}

fn cmd_why(run: &mut Run) -> Outcome {
    let vertex: Option<u64> = run.take_parsed("--vertex")?;
    let [path] = run.exactly("one JOURNAL path")?;
    let snap = load_journal(&path)?;
    let report = causal::resolve(&snap);
    let chains: Vec<&causal::CausalChain> = report
        .chains
        .iter()
        .filter(|c| vertex.is_none_or(|v| c.detector == v))
        .collect();
    for c in &chains {
        let round = c.round.map_or_else(|| "-".to_string(), |r| r.to_string());
        let distance = c
            .distance
            .map_or_else(|| "unreachable".to_string(), |d| format!("distance {d}"));
        let verdict = c
            .verdict_seq
            .map_or_else(String::new, |s| format!(" -> verdict seq {s}"));
        println!(
            "vertex {} rejected ({}) in round {round}: {} fault injected at site {} \
             (seq {}, effective {}) -> detection seq {} at {distance}{verdict}",
            c.detector, c.reason, c.model, c.site, c.injection_seq, c.effective, c.detection_seq
        );
    }
    if chains.is_empty() {
        println!(
            "no causal chains{}",
            vertex.map_or_else(String::new, |v| format!(" for vertex {v}"))
        );
    }
    let unresolved: Vec<_> = report
        .unresolved
        .iter()
        .filter(|u| vertex.is_none_or(|v| u.detector == v))
        .collect();
    for u in &unresolved {
        eprintln!(
            "UNRESOLVED: detection seq {} (detector {}, claimed site {}) has no \
             matching injection{}",
            u.detection_seq,
            u.detector,
            u.site,
            if snap.dropped > 0 {
                format!(" — journal dropped {} events", snap.dropped)
            } else {
                String::new()
            }
        );
    }
    Ok(Verdict::from_clean(unresolved.is_empty()))
}

fn cmd_diff(run: &mut Run) -> Outcome {
    let [left_path, right_path] = run.exactly("LEFT and RIGHT journal paths")?;
    let left = Run::read(&left_path)?;
    let right = Run::read(&right_path)?;
    match diff::first_divergence(&left, &right) {
        None => {
            println!("identical: {left_path} == {right_path}");
            Ok(Verdict::Pass)
        }
        Some(d) => {
            print!("{d}");
            Ok(Verdict::Finding)
        }
    }
}

fn cmd_windows(run: &mut Run) -> Outcome {
    let scope = run.take_opt("--scope")?;
    let interval: u64 = run.take_parsed("--interval")?.unwrap_or(1);
    let [path] = run.exactly("one JOURNAL path")?;
    let snap = load_journal(&path)?;
    let windows = window::journal_windows(&snap, scope.as_deref(), interval);
    if windows.is_empty() {
        println!("no windowed rounds (journal has no round marks in scope)");
        return Ok(Verdict::Pass);
    }
    for w in &windows {
        let counts: Vec<String> = w
            .counters
            .iter()
            .map(|(k, v)| format!("{}={v}", k.trim_start_matches("events.")))
            .collect();
        println!(
            "window {} (rounds {}..{}): {}",
            w.window,
            w.start_round,
            w.end_round,
            counts.join(" ")
        );
    }
    Ok(Verdict::Pass)
}

fn cmd_flame(run: &mut Run) -> Outcome {
    let out_path = run.take_opt("--out")?;
    let [path] = run.exactly("one METRICS_JSON path")?;
    let doc = json::parse(&Run::read(&path)?).map_err(|e| io_error(format!("{path}: {e}")))?;
    let folded = flame::from_metrics_json(&doc).map_err(|e| io_error(format!("{path}: {e}")))?;
    match out_path {
        Some(out) => {
            Run::write_artifact(&out, &folded)?;
            eprintln!("wrote {out} ({} stacks)", folded.lines().count());
        }
        None => print!("{folded}"),
    }
    Ok(Verdict::Pass)
}

fn cmd_tail(run: &mut Run) -> Outcome {
    let n: usize = run.take_parsed("-n")?.unwrap_or(http::DEFAULT_TAIL);
    let [path] = run.exactly("one JOURNAL path")?;
    let snap = load_journal(&path)?;
    let skip = snap.entries.len().saturating_sub(n);
    for entry in &snap.entries[skip..] {
        println!("{}", journal::entry_to_jsonl_line(entry));
    }
    Ok(Verdict::Pass)
}

fn cmd_serve(run: &mut Run) -> Outcome {
    let addr = run
        .take_opt("--addr")?
        .unwrap_or_else(|| "127.0.0.1:9184".to_string());
    let max_requests: Option<usize> = run.take_parsed("--max-requests")?;
    let paths = run.positional()?;
    if paths.len() > 1 {
        return Err(usage("expected at most one JOURNAL path"));
    }
    // Replaying a journal file populates both surfaces: the ring buffer
    // behind /journal/tail, and per-kind counters (plus the recorded
    // drop count) behind /metrics.
    locert_trace::enable();
    if let Some(path) = paths.first() {
        let snap = load_journal(path)?;
        journal::set_capacity(snap.entries.len().max(journal::DEFAULT_CAPACITY));
        journal::enable();
        for entry in &snap.entries {
            locert_trace::add(
                &format!("scope.journal.events.{}", query::kind_of(&entry.event)),
                1,
            );
        }
        locert_trace::add(journal::DROPPED_EVENTS_COUNTER, snap.dropped);
        for entry in snap.entries {
            journal::record_with(|| entry.event);
        }
        eprintln!("replayed {path}");
    } else {
        journal::enable();
    }
    let mut server = http::ScopeServer::serve(&addr, max_requests)
        .map_err(|e| io_error(format!("cannot bind {addr}: {e}")))?;
    println!("listening on http://{}", server.addr());
    if max_requests.is_some() {
        server.join();
    } else {
        // Serve until killed.
        loop {
            std::thread::park();
        }
    }
    Ok(Verdict::Pass)
}
