//! The `locert-serve` binary's share of the shared thread-count
//! contract: `--threads 0`, `--threads x`, `LOCERT_THREADS=0` and
//! `LOCERT_THREADS=abc` are usage errors (exit 2) before anything binds.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn bad_thread_counts_are_usage_errors() {
    let cases: [(&[&str], Option<&str>); 4] = [
        (&["--threads", "0"], None),
        (&["--threads", "x"], None),
        (&[], Some("0")),
        (&[], Some("abc")),
    ];
    for (args, env) in cases {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_locert-serve"));
        cmd.args(["--addr", "127.0.0.1:0"])
            .args(args)
            .env_remove("LOCERT_THREADS")
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(value) = env {
            cmd.env("LOCERT_THREADS", value);
        }
        let mut child = cmd.spawn().expect("spawn locert-serve");
        // A daemon that accepted the count would serve until drained.
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll locert-serve") {
                break Some(status);
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let code = status.and_then(|s| s.code());
        assert_eq!(code, Some(2), "args {args:?}, LOCERT_THREADS {env:?}");
    }
}
