//! Correctness, judged after the clock stops.
//!
//! A failure is a typed error, a transport error, or a wrong answer:
//! the wrong cache disposition, verdict or rejecting count, certificates
//! that differ from the expected bytes, or returned certificates that a
//! local `run_verification` does not accept.

use crate::drive::{Reply, Sample};
use crate::workload::{instance_of, verify_locally, Op, Workload};
use locert_serve::proto::{self, Message, Response};
use std::collections::HashMap;

/// Outcome counts for one phase.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Operations sent.
    pub attempted: u64,
    /// Operations answered correctly.
    pub succeeded: u64,
    /// Operations that failed, by position in their op list.
    pub failed: Vec<usize>,
    /// The first few failure descriptions.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Adds another phase's counts to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed.extend(other.failed);
        self.reasons.extend(other.reasons);
    }

    fn fail(&mut self, index: usize, why: String) {
        self.failed.push(index);
        if self.reasons.len() < 8 {
            self.reasons.push(format!("op {index}: {why}"));
        }
    }
}

/// Decodes a single-response reply payload.
pub fn decode_reply(payload: &[u8]) -> Result<Response, String> {
    match proto::decode(payload) {
        Ok(Message::Responses(mut batch)) if batch.len() == 1 => Ok(batch.remove(0)),
        Ok(other) => Err(format!("unexpected reply {other:?}")),
        Err((code, msg)) => Err(format!("undecodable reply ({}): {msg}", code.code())),
    }
}

/// Judges one reply against the operation's expectation.
pub fn judge(workload: &Workload, op: Op, payload: &[u8]) -> Result<(), String> {
    let expect = &workload.expects[op.expect as usize];
    let (accepted, cache, rejecting, certs) = match decode_reply(payload)? {
        Response::Ok {
            accepted,
            cache,
            rejecting,
            certs,
        } => (accepted, cache, rejecting, certs),
        Response::Err { code, message } => {
            return Err(format!("typed error {}: {message}", code.code()))
        }
    };
    if cache != expect.cache {
        return Err(format!(
            "cache {} where {} was expected",
            cache.code(),
            expect.cache.code()
        ));
    }
    if (accepted, rejecting) != (expect.accepted, expect.rejecting) {
        return Err(format!(
            "verdict ({accepted}, {rejecting} rejecting) where ({}, {}) was expected",
            expect.accepted, expect.rejecting
        ));
    }
    if let Some(want) = &expect.certs {
        if certs.as_ref() != Some(want) {
            return Err("certificates differ from the expected bytes".to_string());
        }
    }
    if expect.reverify {
        let certs = certs.ok_or("no certificates returned")?;
        let (request, graph, inputs) = instance_of(&workload.frames[op.frame as usize]);
        if certs.len() != graph.num_nodes() {
            return Err(format!(
                "{} certificates for {} vertices",
                certs.len(),
                graph.num_nodes()
            ));
        }
        let (ok, rejecting) = verify_locally(&request.scheme, &graph, inputs.as_deref(), certs);
        if !ok {
            return Err(format!(
                "returned certificates rejected locally at {rejecting} vertices"
            ));
        }
    }
    Ok(())
}

/// Judges every sample of a phase. `ops` is the list the samples index
/// into; `references[f]` stands in for replies recorded as
/// [`Reply::SameAsReference`] (judged once per frame and expectation).
pub fn check(
    workload: &Workload,
    ops: &[Op],
    samples: &[Sample],
    references: &[Option<Vec<u8>>],
) -> Tally {
    let mut tally = Tally::default();
    let mut memo: HashMap<Op, Result<(), String>> = HashMap::new();
    for sample in samples {
        tally.attempted += 1;
        let op = ops[sample.index];
        let verdict = match &sample.reply {
            Reply::Transport(e) => Err(format!("transport error: {e}")),
            Reply::Bytes(payload) => judge(workload, op, payload),
            Reply::SameAsReference => memo
                .entry(op)
                .or_insert_with(|| {
                    let reference = references[op.frame as usize]
                        .as_deref()
                        .expect("only frames with a reference reply can match it");
                    judge(workload, op, reference)
                })
                .clone(),
        };
        match verdict {
            Ok(()) => tally.succeeded += 1,
            Err(why) => tally.fail(sample.index, why),
        }
    }
    tally.failed.sort_unstable();
    tally
}
