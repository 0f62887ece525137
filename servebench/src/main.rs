//! servebench — end-to-end benchmark of the `locert-serve` daemon.
//!
//! ```text
//! servebench --workload NAME --seed N --seconds S --trace 0|1
//!            [--daemon PATH] [--out DIR]
//! ```
//!
//! `--trace 0` launches the release daemon with default flags (three
//! times, to take the median set-up time; the third daemon is measured),
//! drives the workload closed-loop (two connections, one on
//! `verify-mixed`) for `--seconds`, judges every reply after the clock
//! stops, and prints the end-to-end metrics. `--trace 1` makes the same wire run, then replays the request
//! list in-process under spans and prints the per-layer metrics.
//!
//! The last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it holds the run
//! metadata. Exits 0 on a completed run (even one with failed
//! operations), 1 when the run could not be made, 2 on usage errors.

use servebench::check::{check, Tally};
use servebench::daemon::Daemon;
use servebench::drive;
use servebench::replay;
use servebench::session::{self, median, quantile};
use servebench::workload::{Kind, Scale, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut daemon = Path::new(&target).join("release").join("locert-serve");
    let mut out = PathBuf::from("servebench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--daemon" => daemon = PathBuf::from(value()?),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        daemon,
        out,
    })
}

/// Upper bound on timed requests per second, per workload: the timed
/// list is this long times `--seconds`, comfortably more than a run
/// sends (the metadata records `exhausted` if one ever runs out).
fn max_rate(kind: Kind) -> f64 {
    match kind {
        Kind::ColdRoundtrip => 120.0,
        Kind::HotProve => 6000.0,
        Kind::VerifyMixed => 4000.0,
    }
}

/// The checkout's commit, read from `.git` without leaving the checkout;
/// `unknown` when it is not a git work tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn phase_json(t: &Tally) -> String {
    format!(
        "{{\"sent\":{},\"succeeded\":{},\"failed\":{}}}",
        t.attempted,
        t.succeeded,
        t.failed.len()
    )
}

/// One wire run: set-ups, timed loop, drain, judgement.
struct WireRun {
    setup_s: Vec<f64>,
    warm: Tally,
    timed: Tally,
    throughput_rps: f64,
    p50_ns: f64,
    p99_ns: f64,
    window_s: f64,
    exhausted: bool,
    rss_mb: f64,
}

fn wire_run(args: &Args, workload: &mut Workload, setups: usize) -> Result<WireRun, String> {
    let mut setup_s = Vec::new();
    let mut warm = Tally::default();
    let mut daemon = None;
    let mut references = Vec::new();
    for _ in 0..setups {
        if let Some(previous) = daemon.take() {
            Daemon::shutdown(previous).map_err(|e| format!("set-up daemon drain: {e}"))?;
        }
        let d = Daemon::launch(&args.daemon)
            .map_err(|e| format!("cannot launch {}: {e}", args.daemon.display()))?;
        let warm_up = session::warm_up(workload, d.addr()).map_err(|e| format!("warm-up: {e}"))?;
        setup_s.push((d.ready_after + warm_up.sending).as_secs_f64());
        warm.absorb(warm_up.tally);
        references = warm_up.references;
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let timed = drive::closed_loop(
        daemon.addr(),
        &workload.frames,
        &references,
        &workload.timed,
        workload.kind.connections(),
        args.seconds,
    )
    .map_err(|e| format!("timed loop: {e}"))?;
    let rss_mb = daemon
        .peak_rss_mb()
        .map_err(|e| format!("daemon RSS: {e}"))?;
    daemon.shutdown().map_err(|e| format!("drain: {e}"))?;
    let tally = check(workload, &workload.timed, &timed.samples, &references);
    let throughput_rps = tally.succeeded as f64 / timed.window_s.max(1e-9);
    let mut latencies: Vec<u64> = timed.samples.iter().map(|s| s.latency_ns).collect();
    Ok(WireRun {
        setup_s,
        warm,
        timed: tally,
        throughput_rps,
        p50_ns: quantile(&mut latencies, 0.50) as f64,
        p99_ns: quantile(&mut latencies, 0.99) as f64,
        window_s: timed.window_s,
        exhausted: timed.exhausted,
        rss_mb,
    })
}

fn run(args: &Args) -> Result<String, String> {
    if !args.daemon.is_file() {
        return Err(format!(
            "no daemon binary at {} (build it with `cargo build --release -p locert-serve`)",
            args.daemon.display()
        ));
    }
    let timed_len = (max_rate(args.kind) * args.seconds).ceil() as usize;
    let mut workload = Workload::build(args.kind, args.seed, Scale::Full, timed_len);
    let wire = wire_run(args, &mut workload, if args.trace { 1 } else { SETUPS })?;

    let (p50_ns, p99_ns) = (wire.p50_ns, wire.p99_ns);
    let mut metrics: BTreeMap<String, (f64, &str)> = BTreeMap::new();
    let mut replay_meta = String::new();
    let mut correct = wire.warm.failed.is_empty() && wire.timed.failed.is_empty();
    if args.trace {
        let sent = wire.timed.attempted as usize;
        // Half the timed window: enough replayed requests for medians (and,
        // on `cold-roundtrip`, to fill the cache and evict) within the run.
        let replay = replay::replay(&workload, sent, Duration::from_secs_f64(args.seconds / 2.0));
        correct &= replay.failed == 0;
        std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
        let spans_path = args.out.join(format!(
            "spans-{}-seed{}.jsonl",
            args.kind.name(),
            args.seed
        ));
        let file = std::fs::File::create(&spans_path).map_err(|e| e.to_string())?;
        replay::write_spans(&replay.spans, &mut std::io::BufWriter::new(file))
            .map_err(|e| e.to_string())?;
        let count = |name: &str| {
            replay
                .spans
                .iter()
                .filter(|s| s.name == name && !s.probe)
                .count()
        };
        replay_meta = format!(
            ",\"replay\":{{\"replayed\":{},\"failed\":{},\"prove_spans\":{},\"verify_spans\":{},\"spans\":{}}}",
            replay.replayed,
            replay.failed,
            count("prove"),
            count("verify"),
            json_str(&spans_path.display().to_string())
        );
        for (name, value) in replay.metrics.iter().chain(replay::sweep().iter()) {
            metrics.insert(name.clone(), (*value, replay::unit_of(name)));
        }
        let stage_sum = metrics["serve.stage_sum_ns"].0;
        metrics.insert("serve.residual_ns".into(), (p50_ns - stage_sum, "ns"));
    } else {
        metrics.insert("throughput_rps".into(), (wire.throughput_rps, "1/s"));
        metrics.insert("latency_p50_ms".into(), (p50_ns / 1e6, "ms"));
        metrics.insert("latency_p99_ms".into(), (p99_ns / 1e6, "ms"));
        metrics.insert("setup_s".into(), (median(&mut wire.setup_s.clone()), "s"));
        metrics.insert("server_rss_mb".into(), (wire.rss_mb, "MiB"));
    }

    let mut sizes = workload.sizes.clone();
    sizes.sort_unstable();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta =
        format!(
        "{{\"meta\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"daemon_pool_width\":{nproc},\"connections\":{},\"commit\":{},\
         \"sizes\":{{\"instances\":{},\"min\":{},\"median\":{},\"max\":{}}},\
         \"warmup\":{},\"timed\":{},\"window_s\":{},\"exhausted\":{},\"setup_samples_s\":[{}],\
         \"latency_p50_ms\":{},\"latency_p99_ms\":{},\"failures\":[{}]{replay_meta}}}}}",
        json_str(args.kind.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        args.kind.connections(),
        json_str(&git_commit()),
        sizes.len(),
        sizes.first().copied().unwrap_or(0),
        sizes.get(sizes.len() / 2).copied().unwrap_or(0),
        sizes.last().copied().unwrap_or(0),
        phase_json(&wire.warm),
        phase_json(&wire.timed),
        json_num(wire.window_s),
        wire.exhausted,
        wire.setup_s.iter().map(|&s| json_num(s)).collect::<Vec<_>>().join(","),
        json_num(p50_ns / 1e6),
        json_num(p99_ns / 1e6),
        wire.warm
            .reasons
            .iter()
            .chain(&wire.timed.reasons)
            .map(|r| json_str(r))
            .collect::<Vec<_>>()
            .join(","),
    );
    let metrics_json = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics_json}}}}}",
        wire.timed.attempted,
        wire.timed.failed.len()
    );
    Ok(format!("{meta}\n{result}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("servebench: {msg}");
            eprintln!(
                "usage: servebench --workload cold-roundtrip|hot-prove|verify-mixed \
                 --seed N --seconds S --trace 0|1 [--daemon PATH] [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(lines) => {
            let _ = std::fs::create_dir_all(&args.out);
            let path = args.out.join(format!(
                "result-{}-seed{}-trace{}.json",
                args.kind.name(),
                args.seed,
                u8::from(args.trace)
            ));
            if let Err(e) = std::fs::write(&path, format!("{lines}\n")) {
                eprintln!("servebench: cannot write {}: {e}", path.display());
            }
            println!("{lines}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("servebench: {msg}");
            ExitCode::from(1)
        }
    }
}
