//! `locert loadgen` — seeded load generator for a live `locert-serve`
//! daemon.
//!
//! Replays the two-phase seeded workload (fresh instances, then a
//! repeated pool exercising the certificate cache), cross-checks every
//! verdict locally, and prints one summary line per phase. With
//! `--out DIR` writes `loadgen-deterministic.txt` (the byte-comparable
//! counter lines), `loadgen-metrics.json` (a `locert-trace/v2` document
//! splitting counts from wall-clock timings), and `loadgen-latency.json`
//! (a `locert-serve/v1` document for `bench_diff`). Passes when every
//! gate holds — zero unexpected errors, zero verdict mismatches, and the
//! phase-2 hit rate at or above `--min-hit-rate`.

use locert_par::run::{io_error, usage, Failure, Outcome, Run, Verdict};
use locert_serve::loadgen::{run_loadgen, LoadgenConfig, Report};
use locert_serve::Mode;
use locert_trace::json::Value;
use std::path::Path;

pub const USAGE: &str = "\
usage: locert loadgen --addr HOST:PORT [--seed N] [--unique N] [--distinct N]
                      [--repeats N] [--concurrency N] [--qps N] [--schemes a,b,c]
                      [--inject-errors N] [--mode prove|verify|roundtrip]
                      [--min-hit-rate F] [--out DIR] [--shutdown]

Seeded two-phase workload against a live locert-serve daemon, with
local verdict cross-checks and cache-hit accounting.

  --addr HOST:PORT   daemon protocol address (required)
  --seed N           workload seed (default 1)
  --unique N         phase-1 fresh-instance requests (default 30)
  --distinct N       phase-2 distinct instances (default 5)
  --repeats N        phase-2 total requests (default 60)
  --concurrency N    worker connections; 1 = deterministic (default 1)
  --qps N            pace across workers; 0 = unpaced (default 0)
  --schemes a,b,c    scheme mix (default spanning-tree,acyclicity,
                     mso-perfect-matching)
  --inject-errors N  unknown-scheme probes expecting that exact code
  --mode M           prove | verify-less roundtrip (default roundtrip)
  --min-hit-rate F   phase-2 hit-rate gate (default 0.9; 0 disables)
  --out DIR          write loadgen-deterministic.txt,
                     loadgen-metrics.json and loadgen-latency.json
  --shutdown         send the drain opcode after the workload";

fn parse_config(run: &mut Run) -> Result<LoadgenConfig, Failure> {
    let mut config = LoadgenConfig::default();
    let addr = run
        .take_opt("--addr")?
        .ok_or_else(|| usage("--addr is required"))?;
    config.addr = std::net::ToSocketAddrs::to_socket_addrs(&addr)
        .ok()
        .and_then(|mut addrs| addrs.next())
        .ok_or_else(|| usage(format!("cannot resolve {addr:?}")))?;
    if let Some(seed) = run.take_parsed("--seed")? {
        config.seed = seed;
    }
    if let Some(unique) = run.take_parsed("--unique")? {
        config.unique = unique;
    }
    if let Some(distinct) = run.take_parsed("--distinct")? {
        config.distinct = distinct;
    }
    if config.distinct == 0 {
        return Err(usage("--distinct must be at least 1"));
    }
    if let Some(repeats) = run.take_parsed("--repeats")? {
        config.repeats = repeats;
    }
    if let Some(concurrency) = run.take_parsed("--concurrency")? {
        config.concurrency = concurrency;
    }
    if config.concurrency == 0 {
        return Err(usage("--concurrency must be at least 1"));
    }
    if let Some(qps) = run.take_parsed("--qps")? {
        config.qps = qps;
    }
    if let Some(inject) = run.take_parsed("--inject-errors")? {
        config.inject_errors = inject;
    }
    if let Some(v) = run.take_opt("--schemes")? {
        config.schemes = v.split(',').map(|s| s.trim().to_string()).collect();
        if config.schemes.iter().any(String::is_empty) {
            return Err(usage(format!("empty scheme id in {v:?}")));
        }
    }
    if let Some(mode) = run.take_opt("--mode")? {
        config.mode = match mode.as_str() {
            "prove" => Mode::Prove,
            "roundtrip" => Mode::Roundtrip,
            "verify" => return Err(usage("verify mode needs certificates; use roundtrip")),
            _ => return Err(usage(format!("bad mode {mode:?}"))),
        };
    }
    Ok(config)
}

pub fn main(run: &mut Run) -> Outcome {
    let config = parse_config(run)?;
    let min_hit_rate: f64 = run.take_parsed("--min-hit-rate")?.unwrap_or(0.9);
    let out = run.take_opt("--out")?;
    let shutdown = run.take_flag("--shutdown");
    run.done()?;

    locert_trace::enable();
    let report = run_loadgen(&config).map_err(|e| io_error(format!("transport failure: {e}")))?;
    println!(
        "loadgen: {} requests in {:.3}s ({:.0} req/s), ok={} hit={} miss={} bypass={}",
        report.requests,
        report.wall_s,
        report.requests as f64 / report.wall_s.max(1e-9),
        report.ok,
        report.hits,
        report.misses,
        report.bypass,
    );
    println!(
        "loadgen: phase2 hit rate {:.3} ({}/{}), mismatches={}, unexpected={}",
        report.phase2_hit_rate(),
        report.phase2_hits,
        report.phase2_requests,
        report.mismatches,
        report.unexpected,
    );
    println!(
        "loadgen: latency p50={}ns p99={}ns",
        report.latency_quantile_ns(None, 0.5).unwrap_or(0),
        report.latency_quantile_ns(None, 0.99).unwrap_or(0),
    );
    for (code, count) in &report.errors {
        println!("loadgen: error {code}: {count}");
    }
    if shutdown {
        match locert_serve::Client::connect(config.addr).and_then(locert_serve::Client::shutdown) {
            Ok(true) => println!("loadgen: daemon acknowledged drain"),
            Ok(false) => eprintln!("loadgen: daemon closed without a drain ack"),
            Err(e) => eprintln!("loadgen: drain request failed: {e}"),
        }
    }
    if let Some(dir) = &out {
        let dir = Path::new(dir);
        Run::write_artifact(
            dir.join("loadgen-deterministic.txt"),
            &report.deterministic_lines(),
        )?;
        let sections = [(
            "loadgen".to_string(),
            report.wall_s,
            locert_trace::snapshot(),
        )];
        Run::write_metrics(dir.join("loadgen-metrics.json"), false, &sections, None)?;
        Run::write_artifact(dir.join("loadgen-latency.json"), &latency_json(&report))?;
    }
    let hit_rate_ok = min_hit_rate <= 0.0 || report.phase2_hit_rate() >= min_hit_rate;
    let clean = report.mismatches == 0 && report.unexpected == 0 && hit_rate_ok;
    if !clean {
        eprintln!("loadgen: gate violated");
    }
    Ok(Verdict::from_clean(clean))
}

/// Serializes observed latency quantiles as a `locert-serve/v1`
/// document — the schema `bench_diff` compares for the S5 regression
/// gate (per-name `p50_ns`/`p99_ns`, lower is better).
fn latency_json(report: &Report) -> String {
    let entry = |name: &str, phase: Option<u8>| {
        Value::obj([
            ("name".to_string(), Value::from(name)),
            (
                "p50_ns".to_string(),
                Value::from(report.latency_quantile_ns(phase, 0.5).unwrap_or(0)),
            ),
            (
                "p99_ns".to_string(),
                Value::from(report.latency_quantile_ns(phase, 0.99).unwrap_or(0)),
            ),
        ])
    };
    let doc = Value::obj([
        ("schema".to_string(), Value::from("locert-serve/v1")),
        (
            "latency".to_string(),
            Value::Arr(vec![
                entry("request", None),
                entry("request.cold", Some(1)),
                entry("request.repeated", Some(2)),
            ]),
        ),
    ]);
    format!("{doc}\n")
}
