//! `locert experiments` — regenerates `EXPERIMENTS.md`: runs every
//! experiment of the DESIGN.md index and writes the paper-vs-measured
//! report.
//!
//! Every deterministic artifact (journal, the metrics dump's
//! `experiments` section, report tables) is byte-identical at any
//! `--threads`. The metrics dump (`locert-trace/v2`) keeps
//! seed-deterministic telemetry in `experiments` and run-varying
//! telemetry (wall time, `par.*` counters, `.ns` histograms, span trees)
//! in `timings`.

use locert_bench::*;
use locert_par::run::{usage, Outcome, Run, Verdict};
use std::fmt::Write as _;

/// Every experiment id the command knows how to run, in report order.
const KNOWN_IDS: [&str; 18] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "f1", "f4", "p34", "a1", "s1", "s2",
    "s3", "s4", "s5",
];

pub const USAGE: &str = "\
usage: locert experiments [--out PATH] [--quick] [--threads N] [--metrics [PATH]]
                          [--baseline] [--journal [PATH]] [--journal-capacity N]
                          [--chrome-trace [PATH]] [only-ids…]

  --out PATH            report destination (default EXPERIMENTS.md)
  --quick               shrink size grids for a fast smoke run
  --threads N           worker count for the locert-par pool (default:
                        LOCERT_THREADS env, then available parallelism);
                        deterministic artifacts are byte-identical at any N
  --metrics [PATH]      record spans/counters/histograms via locert-trace
                        and write them as JSON (default
                        target/metrics.json); also appends a Telemetry
                        appendix to the report
  --baseline            write the telemetry dump to the committed
                        workspace-root metrics.json (baseline
                        regeneration; implies --metrics metrics.json)
  --journal [PATH]      record the replayable verification journal and
                        stream it out as JSONL (default
                        target/journal.jsonl)
  --journal-capacity N  ring-buffer capacity in events (default 65536);
                        overflow evicts oldest-first, counted in
                        journal.dropped_events and the metrics journal
                        section
  --chrome-trace [PATH] export the span tree as Chrome trace events
                        (default target/trace.json)
  --help                print this message
  only-ids…             run only the listed experiments (e1 e2 e3 e4 e5 e6
                        e7 e8 e9 f1 f4 p34 a1 s1 s2 s3 s4 s5)";

fn is_id(arg: &str) -> bool {
    KNOWN_IDS.contains(&arg.to_ascii_lowercase().as_str())
}

pub fn main(run: &mut Run) -> Outcome {
    // The path operand of --metrics/--journal/--chrome-trace is optional:
    // the next argument is consumed unless it is a flag or an experiment id.
    let path_arg = |run: &mut Run, flag: &str, default: &str| {
        run.take_optional(flag, |a| !a.starts_with("--") && !is_id(a))
            .map(|p| p.unwrap_or_else(|| default.to_string()))
    };
    let out_path = run
        .take_opt("--out")?
        .unwrap_or_else(|| "EXPERIMENTS.md".to_string());
    let quick = run.take_flag("--quick");
    run.threads()?;
    let mut metrics_path = path_arg(run, "--metrics", "target/metrics.json");
    if run.take_flag("--baseline") {
        metrics_path = Some("metrics.json".to_string());
    }
    let journal_path = path_arg(run, "--journal", "target/journal.jsonl");
    let chrome_path = path_arg(run, "--chrome-trace", "target/trace.json");
    match run.take_parsed::<usize>("--journal-capacity")? {
        Some(0) => return Err(usage("--journal-capacity must be at least 1")),
        Some(n) => locert_trace::journal::set_capacity(n),
        None => {}
    }
    let mut only = Vec::new();
    for id in run.positional()? {
        if !is_id(&id) {
            return Err(usage(format!("unknown experiment id {id:?}")));
        }
        only.push(id.to_ascii_lowercase());
    }

    let want = |id: &str| only.is_empty() || only.iter().any(|o| o == id);
    let tracing = metrics_path.is_some() || chrome_path.is_some();
    if tracing {
        locert_trace::enable();
    }
    if journal_path.is_some() {
        locert_trace::journal::enable();
    }

    let (small, medium, large): (Vec<usize>, Vec<usize>, Vec<usize>) = if quick {
        (vec![16, 64], vec![32, 128], vec![64, 256])
    } else {
        (
            vec![16, 64, 256, 1024, 4096],
            vec![64, 256, 1024, 4096],
            vec![256, 1024, 4096, 16384, 32768],
        )
    };

    let mut tables: Vec<Table> = Vec::new();
    let mut timings: Vec<(String, f64)> = Vec::new();
    let mut telemetry: Vec<(String, f64, locert_trace::Snapshot)> = Vec::new();
    macro_rules! run_exp {
        ($id:expr, $body:expr) => {
            if want($id) {
                eprintln!("running {} …", $id);
                if tracing {
                    locert_trace::reset();
                }
                locert_trace::journal::record_with(|| locert_trace::journal::Event::Marker {
                    label: $id.to_string(),
                });
                let start = std::time::Instant::now();
                let produced: Vec<Table> = {
                    let _span = locert_trace::span($id);
                    $body
                };
                let secs = start.elapsed().as_secs_f64();
                if tracing {
                    telemetry.push(($id.to_string(), secs, locert_trace::snapshot()));
                }
                timings.push(($id.to_string(), secs));
                for t in produced {
                    println!("{}", t.markdown());
                    tables.push(t);
                }
            }
        };
    }

    run_exp!(
        "e1",
        vec![
            e1_mso_trees::run(&small),
            e1_mso_trees::run_compiled(&small)
        ]
    );
    run_exp!("e2", {
        let count_sizes: Vec<usize> = if quick {
            vec![16, 64]
        } else {
            vec![16, 64, 256, 512]
        };
        vec![
            e2_automorphism::run_counting(&count_sizes),
            e2_automorphism::run_depth2(&[8, 16, 32, 64]),
            e2_automorphism::run_upper_vs_lower(if quick { &[2, 4] } else { &[2, 4, 8, 12] }),
            e2_automorphism::run_dichotomy(if quick { 2 } else { 4 }),
        ]
    });
    run_exp!("e3", {
        let ts = [2usize, 3, 4, 6, 8];
        vec![e3_treedepth::run(&ts, &large, 0xE3)]
    });
    run_exp!("e4", {
        let rate_sizes: Vec<usize> = if quick {
            vec![8, 64]
        } else {
            vec![8, 32, 128, 512, 2048]
        };
        vec![
            e4_treedepth_lb::run_dichotomy(),
            e4_treedepth_lb::run_rates(&rate_sizes),
        ]
    });
    run_exp!("e5", {
        vec![
            e5_kernel::run(&medium, 0xE5),
            e5_kernel::run_global_split(&medium),
            e5_kernel::run_ef_validation(if quick { 2 } else { 5 }, 0x5E),
        ]
    });
    run_exp!("e6", {
        vec![
            e6_minor_free::run_paths(&[4, 6], &medium),
            e6_minor_free::run_cycles(&[4, 16, 64, 256]),
        ]
    });
    run_exp!("e7", {
        vec![
            e7_fo_fragments::run_existential(&medium),
            e7_fo_fragments::run_depth2(&medium),
        ]
    });
    run_exp!("e8", vec![e8_words::run(&small)]);
    run_exp!("e9", e9_bounds::run(quick));
    run_exp!("f1", vec![f1_figure1::run(if quick { 6 } else { 12 })]);
    run_exp!("f4", vec![f4_cops::run()]);
    run_exp!("p34", vec![p34_spanning_tree::run(&medium, 0x34)]);
    run_exp!("a1", vec![a1_radius::run(&small)]);
    run_exp!("s1", {
        let rounds = if quick { 60 } else { 300 };
        vec![
            s1_soundness::run(12, rounds, 0x51),
            s1_soundness::run_exhaustive(),
        ]
    });
    run_exp!("s2", {
        let runs = if quick { 40 } else { 200 };
        let (rates, provenance) = s2_faults::run_with_provenance(12, runs, 0x52);
        vec![rates, provenance]
    });
    run_exp!("s3", vec![s3_oracle::run(quick, 0x53)]);
    run_exp!("s4", vec![s4_net::run(quick, 0x54)]);
    run_exp!("s5", s5_serve::run(quick));

    // Assemble the report.
    let mut md = String::new();
    let _ = writeln!(md, "# EXPERIMENTS — paper vs. measured");
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "Regenerated by `locert experiments`. \
         Each section records the paper claim, the shape criterion we check \
         (absolute constants are ours — the substrate is a simulator, not the \
         authors' model — but who wins, the growth rates, and the dichotomies \
         must match), and the measured table."
    );
    let _ = writeln!(md);
    let _ = writeln!(md, "## Experiment index");
    let _ = writeln!(md);
    let _ = writeln!(md, "| id | title | wall time [s] |");
    let _ = writeln!(md, "|---|---|---|");
    for (id, secs) in &timings {
        let title = tables
            .iter()
            .find(|t| t.id.to_ascii_lowercase().starts_with(id.as_str()))
            .map(|t| t.title.clone())
            .unwrap_or_default();
        let _ = writeln!(md, "| {id} | {title} | {secs:.2} |");
    }
    let _ = writeln!(md);
    if let Some(path) = &metrics_path {
        let _ = writeln!(
            md,
            "Telemetry for this run (spans, counters, histograms) is in the \
             [appendix](#telemetry-appendix) and, machine-readable, in \
             `{path}`."
        );
        let _ = writeln!(md);
    }
    for t in &tables {
        let _ = writeln!(md, "{}", t.markdown());
    }
    // Snapshot the journal once: the metrics dump's `journal` section
    // and the JSONL artifact must describe the same state.
    let journal_snap = journal_path
        .as_ref()
        .map(|_| locert_trace::journal::snapshot());
    if let Some(path) = &metrics_path {
        let _ = writeln!(md, "## Telemetry appendix");
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "Recorded by the `locert-trace` subscriber (`--metrics`). Metric \
             names follow `layer.component.metric` (DESIGN.md §Observability); \
             `.ns` histograms are wall-time and vary between runs, counters \
             are deterministic for fixed seeds."
        );
        for (id, secs, snap) in &telemetry {
            let _ = writeln!(md);
            let _ = writeln!(md, "### {id} ({secs:.2} s)");
            let _ = writeln!(md);
            let _ = writeln!(md, "{}", locert_trace::export::snapshot_markdown(snap));
        }
        Run::write_metrics(path, quick, &telemetry, journal_snap.as_ref())?;
        eprintln!("wrote {path} ({} experiments)", telemetry.len());
    }
    if let Some(path) = &chrome_path {
        let sections: Vec<(&str, &locert_trace::Snapshot)> = telemetry
            .iter()
            .map(|(id, _, snap)| (id.as_str(), snap))
            .collect();
        Run::write_artifact(path, &locert_trace::export::chrome_trace_string(&sections))?;
        eprintln!("wrote {path} ({} sections)", sections.len());
    }
    if let (Some(path), Some(snap)) = (&journal_path, &journal_snap) {
        Run::write_journal(path, snap)?;
        eprintln!(
            "wrote {path} ({} events, {} dropped)",
            snap.entries.len(),
            snap.dropped
        );
    }
    Run::write_artifact(&out_path, &md)?;
    eprintln!("wrote {out_path} ({} tables)", tables.len());
    Ok(Verdict::Pass)
}
