//! `locert diffhunt` — the differential oracle.
//!
//! Runs the full oracle sweep (every catalogue case × the seeded graph
//! family) and finds a problem on any disagreement or escaped mutant.
//! Output is deterministic for a fixed seed at any thread count — no
//! wall-clock, no unordered iteration — so CI byte-compares runs at 1
//! and 4 threads.
//!
//! With `--out DIR` the run writes a replayable `locert-journal/v1`
//! artifact (`oracle-journal.jsonl`) and one minimal `.graph` repro per
//! shrunk disagreement. With `--mutants` it runs the self-test instead:
//! every injected scheme bug must be detected with a witness of at most
//! 12 vertices.

use locert_oracle::{cases, harness, mutants};
use locert_par::run::{Failure, Outcome, Run, Verdict};
use locert_trace::journal;
use std::path::Path;

pub const USAGE: &str = "\
usage: locert diffhunt [--seed N] [--quick] [--threads N] [--out DIR] [--mutants] [--list]

Differential + metamorphic oracle over every catalogued certification
scheme: honest runs are cross-checked against exact oracles and sibling
schemes, no-instances are attacked adversarially, and each disagreement
is shrunk to a minimal repro.

  --seed N     RNG seed for the graph family and attacks (default 1)
  --quick      smaller random family (CI smoke mode)
  --threads N  worker threads (also honours LOCERT_THREADS)
  --out DIR    write oracle-journal.jsonl and shrunk .graph repros
  --mutants    mutation self-test
  --list       print the case catalogue and exit";

pub fn main(run: &mut Run) -> Outcome {
    let seed: u64 = run.take_parsed("--seed")?.unwrap_or(1);
    let quick = run.take_flag("--quick");
    run.threads()?;
    let out = run.take_opt("--out")?;
    let mutants = run.take_flag("--mutants");
    let list = run.take_flag("--list");
    run.done()?;
    if list {
        for case in cases::catalogue() {
            println!("{:<22} [{}]", case.name, case.group);
        }
        return Ok(Verdict::Pass);
    }
    journal::set_capacity(1 << 20);
    journal::enable();
    let (summary, clean, disagreements) = if mutants {
        run_mutants(seed)
    } else {
        run_sweep(seed, quick)
    };
    if let Some(dir) = &out {
        write_artifacts(Path::new(dir), &disagreements)?;
        println!("artifacts written to {dir}");
    }
    println!("{summary}");
    Ok(Verdict::from_clean(clean))
}

/// What a run reports: its closing line, whether it is clean, and the
/// disagreements to write as repros.
type Report = (String, bool, Vec<harness::Disagreement>);

fn write_artifacts(dir: &Path, disagreements: &[harness::Disagreement]) -> Result<(), Failure> {
    Run::write_journal(dir.join("oracle-journal.jsonl"), &journal::snapshot())?;
    for (i, d) in disagreements.iter().enumerate() {
        let slug: String = d
            .relation
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        Run::write_artifact(
            dir.join(format!("{}-{slug}-{i}.graph", d.case)),
            &locert_graph::io::to_edge_list(&d.graph),
        )?;
    }
    Ok(())
}

fn run_sweep(seed: u64, quick: bool) -> Report {
    let cases = cases::catalogue();
    let graphs = harness::family(quick, seed);
    let rounds = if quick { 20 } else { 60 };
    println!(
        "diffhunt: {} cases x {} graphs (seed {seed}, {rounds} attack rounds)",
        cases.len(),
        graphs.len(),
    );
    let report = harness::run_oracle(&cases, &graphs, seed, rounds);
    for stat in &report.stats {
        println!(
            "case {:<22} [{:<10}] checked {:>3}  skipped {:>3}  disagreements {}",
            stat.name, stat.group, stat.checked, stat.skipped, stat.disagreements
        );
    }
    for d in &report.disagreements {
        println!(
            "DISAGREEMENT {} / {}: {} ({} vertices shrunk)",
            d.case,
            d.relation,
            d.detail,
            d.graph.num_nodes()
        );
    }
    let summary = if report.clean() {
        "diffhunt: clean".to_string()
    } else {
        format!("diffhunt: {} disagreement(s)", report.disagreements.len())
    };
    (summary, report.clean(), report.disagreements)
}

fn run_mutants(seed: u64) -> Report {
    let graphs = harness::family(true, seed);
    let mut escaped = 0usize;
    let mut all = Vec::new();
    for mutant in mutants::mutants() {
        let cases = mutants::apply(&mutant);
        let report = harness::run_oracle(&cases, &graphs, seed, 20);
        let found: Vec<_> = report
            .disagreements
            .into_iter()
            .filter(|d| d.case == mutant.case)
            .collect();
        match found.iter().map(|d| d.graph.num_nodes()).min() {
            Some(min) if min <= 12 => {
                println!(
                    "mutant {:<22} detected ({} relation(s), smallest witness {} vertices)",
                    mutant.name,
                    found.len(),
                    min
                );
            }
            Some(min) => {
                escaped += 1;
                println!(
                    "mutant {:<22} DETECTED BUT UNSHRUNK (smallest witness {} vertices)",
                    mutant.name, min
                );
            }
            None => {
                escaped += 1;
                println!("mutant {:<22} ESCAPED", mutant.name);
            }
        }
        all.extend(found);
    }
    let summary = if escaped == 0 {
        "diffhunt: all mutants detected".to_string()
    } else {
        format!("diffhunt: {escaped} mutant(s) escaped")
    };
    (summary, escaped == 0, all)
}
