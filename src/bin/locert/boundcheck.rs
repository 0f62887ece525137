//! `locert boundcheck` — the asymptotic-bound conformance gate.
//!
//! Sweeps every catalogue scheme over its growing instance family under
//! a bit-ledger capture (see `locert_bench::e9_bounds`) and finds a
//! violation when
//!
//! 1. any certificate bit is unattributed (the ledger must tile),
//! 2. the measured size curve grows faster than the scheme's declared
//!    asymptotic bound (least-squares slope tolerance), or
//! 3. the numbers drift off the committed `BOUNDS_baseline.json` —
//!    per-point sizes and declared families exactly, component shares
//!    within half a percentage point.
//!
//! `--baseline` regenerates the committed baseline instead of gating;
//! `--mutants` self-tests the gate by poisoning catalogue targets with
//! known size bugs and demanding every one is caught.

use locert_bench::e9_bounds::{self, baseline, fit_sweep, DEFAULT_TOLERANCE};
use locert_par::run::{io_error, Outcome, Run, Verdict};
use locert_trace::json;

const DEFAULT_BASELINE: &str = "BOUNDS_baseline.json";

pub const USAGE: &str = "\
usage: locert boundcheck [--baseline [PATH]] [--compare PATH] [--tolerance X]
                         [--threads N] [--quick] [--mutants] [--list]

  --baseline [PATH]  write the bounds baseline (default BOUNDS_baseline.json)
                     instead of gating against it
  --compare PATH     gate against PATH instead of BOUNDS_baseline.json
  --tolerance X      least-squares slope tolerance for the conformance
                     fit (default 0.15)
  --threads N        worker count for the locert-par pool (default:
                     LOCERT_THREADS env, then available parallelism)
  --quick            shrink the size grids (smoke mode; skips the
                     baseline compare, whose grids are full-size)
  --mutants          self-test: poison targets with known size bugs and
                     verify the gate catches every one
  --list             list sweep targets with grids and declared bounds
  --help             print this message";

pub fn main(run: &mut Run) -> Outcome {
    let write_baseline = run
        .take_optional("--baseline", |a| !a.starts_with("--"))
        .map(|p| p.unwrap_or_else(|| DEFAULT_BASELINE.to_string()));
    let compare_path = run
        .take_opt("--compare")?
        .unwrap_or_else(|| DEFAULT_BASELINE.to_string());
    let tolerance = run.take_parsed("--tolerance")?.unwrap_or(DEFAULT_TOLERANCE);
    run.threads()?;
    let quick = run.take_flag("--quick");
    let mutants = run.take_flag("--mutants");
    let list = run.take_flag("--list");
    run.done()?;

    if list {
        list_targets();
        return Ok(Verdict::Pass);
    }
    if mutants {
        return run_mutants(tolerance, &read_committed(&compare_path)?);
    }
    let results = e9_bounds::sweep_all(quick, true);
    if let Some(path) = write_baseline {
        Run::write_artifact(&path, &format!("{}\n", baseline::to_json(&results)))?;
        println!(
            "wrote {path} ({} schemes, {} points)",
            results.len(),
            results.iter().map(|r| r.points.len()).sum::<usize>()
        );
        return Ok(Verdict::Pass);
    }
    // Quick grids don't match the committed full-size baseline.
    let committed = if quick {
        None
    } else {
        Some(read_committed(&compare_path)?)
    };
    let violations = gate(&results, tolerance, committed.as_ref());
    for v in &violations {
        eprintln!("boundcheck: {v}");
    }
    if violations.is_empty() {
        println!(
            "bounds conform: {} schemes, tolerance {tolerance}, baseline {}",
            results.len(),
            if quick {
                "skipped (quick)"
            } else {
                &compare_path
            }
        );
    } else {
        eprintln!("boundcheck: {} violation(s)", violations.len());
    }
    Ok(Verdict::from_clean(violations.is_empty()))
}

fn list_targets() {
    for target in e9_bounds::targets() {
        let (point, declared) = e9_bounds::measure(&target, 16, false);
        println!(
            "{:24} declared {:14} components at n=16: {}",
            target.name,
            declared.family(),
            point
                .components
                .keys()
                .copied()
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
}

/// Gates one sweep set: attribution + fit (+ optional baseline
/// compare). Returns violations.
fn gate(
    results: &[e9_bounds::SweepResult],
    tolerance: f64,
    committed: Option<&json::Value>,
) -> Vec<String> {
    let mut violations = Vec::new();
    for r in results {
        for p in &r.points {
            if !p.fully_attributed {
                violations.push(format!(
                    "{}: unattributed certificate bits at n = {}",
                    r.name, p.n_actual
                ));
            }
        }
        let fit = fit_sweep(r, tolerance);
        if !fit.conforms {
            violations.push(format!(
                "{}: measured growth exceeds declared {} (rel slope {:+.3} > {:.3})",
                r.name,
                r.declared.family(),
                fit.rel_slope,
                tolerance
            ));
        }
    }
    if let Some(committed) = committed {
        violations.extend(baseline::compare(results, committed));
    }
    violations
}

fn run_mutants(tolerance: f64, committed: &json::Value) -> Outcome {
    let mut escaped = 0usize;
    for mutant in e9_bounds::mutants::mutants() {
        let targets = e9_bounds::mutants::apply(&mutant);
        // Mutant verifiers are vacuous; sweep provers only.
        let results: Vec<_> = targets
            .iter()
            .map(|t| e9_bounds::sweep(t, false, false))
            .collect();
        // The honest sweep verifies read amplification; the mutant sweep
        // does not, so exempt read-amp from the compare by gating the
        // poisoned case's size data only.
        let violations: Vec<String> = gate(&results, tolerance, Some(committed))
            .into_iter()
            .filter(|v| v.starts_with(mutant.case) && !v.contains("read amplification"))
            .collect();
        let caught = !violations.is_empty();
        let fit_failed = violations.iter().any(|v| v.contains("exceeds declared"));
        println!(
            "mutant {:16} on {:16} {} ({})",
            mutant.name,
            mutant.case,
            if caught { "caught" } else { "ESCAPED" },
            violations
                .first()
                .map_or_else(|| "no violation".to_string(), Clone::clone)
        );
        if !caught || (mutant.caught_by_fit && !fit_failed) {
            escaped += 1;
        }
    }
    if escaped > 0 {
        eprintln!("boundcheck: {escaped} mutant(s) escaped the gate");
    } else {
        println!("all mutants caught");
    }
    Ok(Verdict::from_clean(escaped == 0))
}

fn read_committed(path: &str) -> Result<json::Value, locert_par::run::Failure> {
    json::parse(&Run::read(path)?).map_err(|e| io_error(format!("parsing {path}: {e}")))
}
