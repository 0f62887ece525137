//! The untimed warm-up of a run against a live daemon, and the
//! statistics the runs report.

use crate::check::{check, decode_reply, Tally};
use crate::drive::{self, Reply};
use crate::workload::{Kind, Workload};
use locert_serve::proto::Response;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The outcome of a warm-up.
pub struct WarmUp {
    /// Time spent sending (judging excluded).
    pub sending: Duration,
    /// The judged warm-up replies.
    pub tally: Tally,
    /// Per frame, the reply the timed loop compares against, if any.
    pub references: Vec<Option<Vec<u8>>>,
}

/// Sends the warm-up list on one connection and judges it. For
/// `hot-prove` the first pass (all misses) fixes the certificates every
/// later hit must carry, and the second pass (all hits) fixes the
/// reference reply bytes the timed loop compares against.
///
/// # Errors
///
/// The connect error.
pub fn warm_up(workload: &mut Workload, addr: SocketAddr) -> io::Result<WarmUp> {
    let t0 = Instant::now();
    let samples = drive::sequential(addr, &workload.frames, &workload.warmup)?;
    let sending = t0.elapsed();
    let mut references = vec![None; workload.frames.len()];
    if workload.kind == Kind::HotProve {
        let pool = workload.frames.len();
        for sample in &samples {
            let frame = workload.warmup[sample.index].frame as usize;
            let Reply::Bytes(payload) = &sample.reply else {
                continue;
            };
            if sample.index < pool {
                if let Ok(Response::Ok {
                    certs: Some(certs), ..
                }) = decode_reply(payload)
                {
                    workload.expects[frame].certs = Some(certs);
                }
            } else {
                references[frame] = Some(payload.clone());
            }
        }
    }
    let tally = check(workload, &workload.warmup, &samples, &references);
    Ok(WarmUp {
        sending,
        tally,
        references,
    })
}

/// Nearest-rank `q`-quantile of `samples` (sorted in place).
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of `values` (mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}
