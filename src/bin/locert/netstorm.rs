//! `locert netstorm` — the network fault-grid campaign.
//!
//! Drives every catalogued (scheme, yes-instance) target through the
//! fault grid — packet loss, duplication, delay, transit corruption,
//! stored-certificate corruption, crash-restart, healing partitions —
//! and prints one row per (target, point): detection rate over effective
//! runs, false-reject and false-inconclusive tallies, mean time to
//! detection, and transport cost. Passes when the acceptance grid holds
//! (benign points never reject, corrupting points always detect,
//! reliable points always complete).
//!
//! Output is deterministic for a fixed seed at any thread count — the
//! simulator has no wall clock and the journal is flushed in task
//! order. With `--out DIR` the run writes the replayable
//! `net-journal.jsonl` and a `locert-trace/v2` `net-metrics.json`.

use locert_net::campaign::{fault_grid, run_net_campaign, CampaignConfig};
use locert_net::catalogue::catalogue;
use locert_par::run::{usage, Outcome, Run, Verdict};
use locert_trace::journal;
use std::path::Path;

pub const USAGE: &str = "\
usage: locert netstorm [--seed N] [--quick] [--threads N] [--runs N] [--size N]
                       [--journal-capacity N] [--out DIR] [--list]

Seeded, deterministic message-passing simulation of every catalogued
certification scheme under a grid of network faults: loss, duplication,
reordering delay, in-transit and stored-certificate corruption,
crash-restart with certificate loss, and healing partitions.

  --seed N     base RNG seed; every run derives its own (default 1)
  --quick      2 runs per point on ~8-vertex instances (CI smoke mode)
  --threads N  worker threads (also honours LOCERT_THREADS; must be >= 1)
  --runs N     seeded runs per (target, point) cell
  --size N     approximate instance size in vertices (>= 7)
  --journal-capacity N
               journal ring-buffer capacity in events (default 1048576);
               overflow evicts oldest-first, counted in
               journal.dropped_events and net-metrics.json's journal
               section
  --out DIR    write net-journal.jsonl and net-metrics.json
  --list       print the target catalogue and fault grid, then exit";

pub fn main(run: &mut Run) -> Outcome {
    let seed: u64 = run.take_parsed("--seed")?.unwrap_or(1);
    let quick = run.take_flag("--quick");
    run.threads()?;
    let runs: Option<usize> = run.take_parsed("--runs")?;
    if runs == Some(0) {
        return Err(usage("--runs must be at least 1"));
    }
    let size: Option<usize> = run.take_parsed("--size")?;
    if size.is_some_and(|n| n < 7) {
        return Err(usage("--size must be at least 7"));
    }
    let journal_capacity: usize = run.take_parsed("--journal-capacity")?.unwrap_or(1 << 20);
    if journal_capacity == 0 {
        return Err(usage("--journal-capacity must be at least 1"));
    }
    let out = run.take_opt("--out")?;
    let list = run.take_flag("--list");
    run.done()?;
    if list {
        for target in catalogue(size.unwrap_or(12)) {
            println!(
                "target {:<22} {:>3} vertices",
                target.name,
                target.graph.num_nodes()
            );
        }
        for point in fault_grid() {
            let class = if point.corrupting {
                "corrupting"
            } else if point.benign {
                "benign"
            } else {
                "measured"
            };
            println!("point  {:<22} [{class}]", point.name);
        }
        return Ok(Verdict::Pass);
    }
    journal::set_capacity(journal_capacity);
    journal::enable();
    locert_trace::enable();
    let mut cfg = if quick {
        CampaignConfig::quick(seed)
    } else {
        CampaignConfig::new(seed)
    };
    if let Some(runs) = runs {
        cfg.runs_per_point = runs;
    }
    if let Some(size) = size {
        cfg.target_size = size;
    }
    println!(
        "netstorm: {} targets x {} fault points x {} runs (seed {}, ~{} vertices)",
        catalogue(cfg.target_size).len(),
        fault_grid().len(),
        cfg.runs_per_point,
        cfg.seed,
        cfg.target_size
    );
    let start = std::time::Instant::now();
    let rows = run_net_campaign(&cfg);
    let wall_s = start.elapsed().as_secs_f64();
    let mut violations = 0usize;
    for row in &rows {
        let ttd = row
            .mean_detection_time()
            .map(|t| format!("{t:.1}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<22} {:<20} runs {:>3}  effective {:>3}  detected {:>3}  inconclusive {:>3}  \
             msgs/run {:>7.1}  retries/run {:>6.1}  mean-ttd {ttd}",
            row.scheme,
            row.point,
            row.runs,
            row.effective,
            row.detected,
            row.inconclusive,
            row.mean_messages(),
            row.mean_retries(),
        );
        if row.benign && row.detected > 0 {
            violations += 1;
            println!(
                "VIOLATION {}/{}: false reject on a yes-instance under a benign fault",
                row.scheme, row.point
            );
        }
        if row.corrupting && row.detected < row.effective {
            violations += 1;
            println!(
                "VIOLATION {}/{}: detection rate {:.2} ({} of {} effective runs)",
                row.scheme,
                row.point,
                row.detection_rate(),
                row.detected,
                row.effective
            );
        }
        if row.expect_complete && row.inconclusive > 0 {
            violations += 1;
            println!(
                "VIOLATION {}/{}: false inconclusive under reliable delivery",
                row.scheme, row.point
            );
        }
    }
    if let Some(dir) = &out {
        let dir = Path::new(dir);
        let journal_snap = journal::snapshot();
        Run::write_journal(dir.join("net-journal.jsonl"), &journal_snap)?;
        let sections = [("s4".to_string(), wall_s, locert_trace::snapshot())];
        Run::write_metrics(
            dir.join("net-metrics.json"),
            quick,
            &sections,
            Some(&journal_snap),
        )?;
        println!("artifacts written to {}", dir.display());
    }
    if violations == 0 {
        println!("netstorm: clean ({} rows)", rows.len());
    } else {
        println!("netstorm: {violations} violation(s)");
    }
    Ok(Verdict::from_clean(violations == 0))
}
