//! locert-serve — the certification daemon CLI.
//!
//! ```text
//! locert-serve [--addr HOST:PORT] [--metrics-addr HOST:PORT]
//!              [--cache-capacity N] [--admission-limit N]
//!              [--threads N] [--journal PATH]
//! ```
//!
//! Binds the binary protocol plane (and, when asked, the HTTP metrics
//! plane), prints one `ready` line per plane so scripts can scrape the
//! ephemeral ports, then blocks until a client sends the shutdown
//! opcode — the drain path: in-flight batches finish, late requests get
//! `shutting-down`, every thread joins, and with `--journal` the event
//! journal is flushed to JSONL before exit. Flags parse through the
//! shared `locert_par::run::Run`: exits 0 on a clean drain, 2 on a
//! usage or IO error.

use locert_par::run::{io_error, usage, Outcome, Run, Verdict};
use locert_serve::{ServeConfig, Server};
use locert_trace::journal;
use std::process::ExitCode;

const USAGE: &str = "\
usage: locert-serve [--addr HOST:PORT] [--metrics-addr HOST:PORT]
                    [--cache-capacity N] [--admission-limit N]
                    [--threads N] [--journal PATH]

Serves prove/verify/roundtrip requests for the shared scheme catalogue
over the locert-serve binary protocol, with a content-addressed
certificate cache and per-scheme admission limits.

  --addr HOST:PORT     protocol bind address (default 127.0.0.1:0)
  --metrics-addr HOST:PORT
                       also serve HTTP /metrics and /healthz here
  --cache-capacity N   certificate-cache entries (default 256)
  --admission-limit N  in-flight requests per scheme (default 64)
  --threads N          locert-par worker threads (also LOCERT_THREADS)
  --journal PATH       write the event journal as JSONL on shutdown";

fn serve(run: &mut Run) -> Outcome {
    let mut config = ServeConfig::default();
    if let Some(addr) = run.take_opt("--addr")? {
        config.addr = addr;
    }
    config.metrics_addr = run.take_opt("--metrics-addr")?;
    if let Some(capacity) = run.take_parsed("--cache-capacity")? {
        config.cache_capacity = capacity;
    }
    if let Some(limit) = run.take_parsed("--admission-limit")? {
        config.admission_limit = limit;
    }
    if config.admission_limit == 0 {
        return Err(usage("--admission-limit must be at least 1"));
    }
    run.threads()?;
    let journal_path = run.take_opt("--journal")?;
    run.done()?;

    locert_trace::enable();
    journal::enable();
    let mut server = Server::start(&config).map_err(|e| io_error(format!("cannot start: {e}")))?;
    println!("ready addr={}", server.addr());
    if let Some(addr) = server.metrics_addr() {
        println!("ready metrics={addr}");
    }
    server.join();
    let (hits, misses, evictions) = server.cache_stats();
    eprintln!("locert-serve: drained (cache hits={hits} misses={misses} evictions={evictions})");
    if let Some(path) = &journal_path {
        Run::write_journal(path, &journal::snapshot())?;
    }
    Ok(Verdict::Pass)
}

fn main() -> ExitCode {
    Run::new("locert-serve", USAGE, std::env::args().skip(1).collect()).main(serve)
}
