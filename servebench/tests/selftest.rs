//! The benchmark's own checks: the checker must count exactly a planted
//! wrong expectation as failed, workloads must be pure in the seed, and
//! `BENCHMARK.json` must name exactly the per-layer metrics the traced
//! run prints.

use locert_serve::{ServeConfig, Server};
use servebench::check::{check, Tally};
use servebench::drive;
use servebench::replay;
use servebench::session;
use servebench::workload::{Kind, Scale, Workload};

const TIMED: usize = 24;

/// Runs a tiny workload against an in-process daemon, planting one wrong
/// expectation after the warm-up, and judges the timed replies.
fn run_planted(kind: Kind, plant: impl FnOnce(&mut Workload)) -> Tally {
    let mut server = Server::start(&ServeConfig::default()).expect("daemon starts");
    let mut workload = Workload::build(kind, 7, Scale::Tiny, TIMED);
    let warm = session::warm_up(&mut workload, server.addr()).expect("warm-up connects");
    assert!(
        warm.tally.failed.is_empty(),
        "warm-up failed: {:?}",
        warm.tally.reasons
    );
    plant(&mut workload);
    let timed = drive::closed_loop(
        server.addr(),
        &workload.frames,
        &warm.references,
        &workload.timed,
        kind.connections(),
        60.0,
    )
    .expect("timed loop connects");
    server.shutdown();
    assert!(timed.exhausted, "the whole tiny list is sent");
    check(&workload, &workload.timed, &timed.samples, &warm.references)
}

fn assert_only_failure(tally: &Tally, index: usize) {
    assert_eq!(tally.attempted, TIMED as u64);
    assert_eq!(tally.failed, vec![index], "reasons: {:?}", tally.reasons);
    assert_eq!(tally.succeeded, TIMED as u64 - 1);
}

#[test]
fn cold_roundtrip_counts_a_hit_expected_on_a_miss() {
    let tally = run_planted(Kind::ColdRoundtrip, |w| {
        w.plant(5, |e| e.cache = locert_serve::CacheDisposition::Hit);
    });
    assert_only_failure(&tally, 5);
    assert!(
        tally.reasons[0].contains("cache miss where hit"),
        "{:?}",
        tally.reasons
    );
}

#[test]
fn hot_prove_counts_one_altered_certificate_byte() {
    let tally = run_planted(Kind::HotProve, |w| {
        w.plant(3, |e| {
            let certs = e.certs.as_mut().expect("warm-up filled the certificates");
            let v = certs
                .iter()
                .position(|c| !c.is_empty())
                .expect("some certificate is non-empty");
            certs[v] = certs[v].with_bit_flipped(0);
        });
    });
    assert_only_failure(&tally, 3);
}

#[test]
fn verify_mixed_counts_a_flipped_expected_verdict() {
    let tally = run_planted(Kind::VerifyMixed, |w| {
        w.plant(2, |e| e.accepted = !e.accepted);
    });
    assert_only_failure(&tally, 2);
}

#[test]
fn request_frames_are_pure_in_the_seed() {
    for kind in Kind::ALL {
        let a = Workload::build(kind, 1, Scale::Tiny, 16);
        let b = Workload::build(kind, 1, Scale::Tiny, 16);
        assert_eq!(a.frames, b.frames, "{}: same seed", kind.name());
        assert_eq!(a.timed, b.timed, "{}: same seed", kind.name());
        assert_eq!(a.expects, b.expects, "{}: same seed", kind.name());
        let other = Workload::build(kind, 2, Scale::Tiny, 16);
        assert_ne!(a.frames, other.frames, "{}: another seed", kind.name());
    }
}

/// The `per_layer` names and units listed in `BENCHMARK.json`.
fn listed_per_layer() -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let section = text
        .split("\"per_layer\"")
        .nth(1)
        .expect("a per_layer section");
    let mut out = Vec::new();
    for entry in section.split('{').skip(1) {
        let field = |key: &str| {
            let rest = entry.split(&format!("\"{key}\": \"")).nth(1)?;
            Some(rest.split('"').next()?.to_string())
        };
        if let (Some(name), Some(unit)) = (field("name"), field("unit")) {
            out.push((name, unit));
        }
    }
    out
}

#[test]
fn benchmark_json_lists_every_per_layer_metric() {
    let workload = Workload::build(Kind::VerifyMixed, 3, Scale::Tiny, 8);
    let replayed = replay::replay(&workload, 8, std::time::Duration::from_secs(30));
    assert_eq!(replayed.failed, 0);
    let mut printed: Vec<(String, String)> = replayed
        .metrics
        .keys()
        .chain(replay::sweep().keys())
        .map(String::as_str)
        .chain(["serve.residual_ns"])
        .map(|name| (name.to_string(), replay::unit_of(name).to_string()))
        .collect();
    printed.sort();
    let mut listed = listed_per_layer();
    listed.sort();
    assert_eq!(printed, listed);
}

#[test]
fn traced_replay_counts_are_exact() {
    let hot = Workload::build(Kind::HotProve, 5, Scale::Tiny, 12);
    let replayed = replay::replay(&hot, 12, std::time::Duration::from_secs(30));
    assert_eq!(replayed.failed, 0);
    assert_eq!(replayed.replayed, 12);
    assert_eq!(replayed.metrics["cache.hit_ratio"], 1.0);
    let on_path = |name: &str| {
        replayed
            .spans
            .iter()
            .filter(|s| s.name == name && !s.probe)
            .count()
    };
    assert_eq!((on_path("prove"), on_path("verify")), (0, 0));
    assert!(replayed.metrics["prove_ns"] > 0.0, "probed off the path");

    let cold = Workload::build(Kind::ColdRoundtrip, 5, Scale::Tiny, 12);
    let replayed = replay::replay(&cold, 12, std::time::Duration::from_secs(30));
    assert_eq!(replayed.failed, 0);
    assert_eq!(replayed.metrics["cache.hit_ratio"], 0.0);
    assert!(
        replayed.spans.iter().all(|s| !s.probe),
        "every stage is on the path"
    );
}
