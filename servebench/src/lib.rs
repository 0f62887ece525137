//! End-to-end benchmark of the `locert-serve` daemon.
//!
//! Three closed-loop workloads drive a live daemon over TCP (`drive`,
//! `session`), their replies are judged after the clock stops (`check`),
//! and a traced run replays the same request lists in-process to split
//! the latency into layers (`replay`). `WORKLOADS.md` names the
//! workloads and metrics.

pub mod check;
pub mod daemon;
pub mod drive;
pub mod replay;
pub mod session;
pub mod workload;
