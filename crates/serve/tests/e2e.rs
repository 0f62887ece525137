//! End-to-end acceptance: a live daemon under the seeded loadgen
//! workload — correct verdicts everywhere, the repeated phase served
//! from the cache, and byte-identical deterministic counters across
//! same-seed runs.

use locert_serve::loadgen::{build_workload, run_loadgen, LoadgenConfig};
use locert_serve::proto::{self, CacheDisposition, Mode, Request, Response};
use locert_serve::{Client, ServeConfig, Server};
use std::time::{Duration, Instant};

fn fresh_server() -> Server {
    Server::start(&ServeConfig::default()).expect("bind an ephemeral port")
}

fn config_for(server: &Server) -> LoadgenConfig {
    LoadgenConfig {
        addr: server.addr(),
        ..LoadgenConfig::default()
    }
}

#[test]
fn seeded_mixed_workload_all_verdicts_correct_and_cache_hot() {
    let server = fresh_server();
    let config = LoadgenConfig {
        inject_errors: 3,
        ..config_for(&server)
    };
    let report = run_loadgen(&config).expect("workload completes");
    assert_eq!(
        report.requests,
        (config.unique + config.repeats + config.inject_errors) as u64
    );
    assert_eq!(report.mismatches, 0, "every verdict cross-checks locally");
    assert_eq!(
        report.unexpected, 0,
        "no error codes other than the injected ones"
    );
    assert_eq!(
        report.errors.get("unknown-scheme").copied(),
        Some(config.inject_errors as u64),
        "each probe provokes exactly its code"
    );
    assert!(
        report.phase2_hit_rate() >= 0.9,
        "repeated phase must be cache-hot, saw {:.3}",
        report.phase2_hit_rate()
    );
    // Phase 1 certifies only fresh instances: its lookups all miss.
    assert_eq!(report.hits, report.phase2_hits);
    // Daemon-side cache accounting reconciles with the wire: every
    // roundtrip did exactly one lookup, errors did none.
    let (hits, misses, _) = server.cache_stats();
    assert_eq!(hits, report.hits);
    assert_eq!(misses, report.misses);
    assert_eq!(hits + misses, report.ok);
}

#[test]
fn deterministic_counters_replay_byte_identically() {
    // Two same-seed runs against fresh daemons: the deterministic
    // counter lines must match byte for byte (the CI gate in script
    // form), and a different seed must not produce the same workload.
    let run = || {
        let server = fresh_server();
        run_loadgen(&config_for(&server))
            .expect("workload completes")
            .deterministic_lines()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);

    let a = build_workload(&LoadgenConfig::default());
    let b = build_workload(&LoadgenConfig {
        seed: 99,
        ..LoadgenConfig::default()
    });
    assert!(a.iter().zip(&b).any(|(x, y)| x.request != y.request));
}

#[test]
fn prove_then_verify_round_trips_over_the_wire() {
    // Manual two-step: prove returns certificates, a separate verify
    // request carrying them accepts — the daemon's two halves compose.
    let server = fresh_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let items = build_workload(&LoadgenConfig {
        unique: 3,
        repeats: 0,
        distinct: 1,
        ..LoadgenConfig::default()
    });
    for item in items.iter().filter(|i| i.phase == 1) {
        let mut prove = item.request.clone();
        prove.mode = Mode::Prove;
        let responses = client.send_batch(std::slice::from_ref(&prove)).unwrap();
        let certs = match &responses[0] {
            Response::Ok {
                accepted: true,
                certs: Some(certs),
                ..
            } => certs.clone(),
            other => panic!("prove failed: {other:?}"),
        };
        let mut verify = item.request.clone();
        verify.mode = Mode::Verify;
        verify.certs = Some(certs);
        let responses = client.send_batch(std::slice::from_ref(&verify)).unwrap();
        assert!(
            matches!(
                &responses[0],
                Response::Ok {
                    accepted: true,
                    cache: CacheDisposition::Bypass,
                    ..
                }
            ),
            "verify must accept the daemon's own certificates: {:?}",
            responses[0]
        );
    }
}

#[test]
fn repeated_prove_hits_the_cache_and_returns_identical_certificates() {
    let server = fresh_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let items = build_workload(&LoadgenConfig {
        unique: 1,
        repeats: 0,
        distinct: 1,
        ..LoadgenConfig::default()
    });
    let mut prove = items[0].request.clone();
    prove.mode = Mode::Prove;
    let first = client.send_batch(std::slice::from_ref(&prove)).unwrap();
    let second = client.send_batch(std::slice::from_ref(&prove)).unwrap();
    match (&first[0], &second[0]) {
        (
            Response::Ok {
                cache: CacheDisposition::Miss,
                certs: Some(cold),
                ..
            },
            Response::Ok {
                cache: CacheDisposition::Hit,
                certs: Some(warm),
                ..
            },
        ) => assert_eq!(cold, warm, "the cache serves the exact certificates"),
        other => panic!("expected miss then hit, got {other:?}"),
    }
}

#[test]
fn mid_size_replies_do_not_stall_on_delayed_acks() {
    // A reply of 8–64 KB whose length prefix and payload leave in two
    // writes waits ~40 ms: Nagle holds the payload's tail until the
    // client's delayed ACK. One write per frame with TCP_NODELAY
    // answers in a few milliseconds.
    let server = fresh_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let requests: Vec<Request> = [1500, 2500, 4000, 6000]
        .into_iter()
        .map(|n: u32| Request {
            mode: Mode::Prove,
            scheme: "acyclicity".to_string(),
            n,
            edges: (1..n).map(|v| (v - 1, v)).collect(),
            inputs: None,
            certs: None,
        })
        .collect();
    // Warm the cache so the timed exchanges measure the wire, not the
    // prover.
    for request in &requests {
        client.send_batch(std::slice::from_ref(request)).unwrap();
    }
    let mut exchanges = Vec::new();
    for request in requests.iter().cycle().take(16) {
        let t0 = Instant::now();
        let responses = client.send_batch(std::slice::from_ref(request)).unwrap();
        exchanges.push(t0.elapsed());
        let reply = proto::encode_responses(&responses).len();
        assert!(
            (8 << 10..64 << 10).contains(&reply),
            "reply of {reply} bytes lies outside the 8–64 KB band"
        );
        assert!(matches!(
            responses[0],
            Response::Ok {
                cache: CacheDisposition::Hit,
                ..
            }
        ));
    }
    exchanges.sort();
    let median = exchanges[exchanges.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median exchange {median:?} (all: {exchanges:?})"
    );
}
