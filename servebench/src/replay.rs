//! The traced run: replays a workload's exact request list in this
//! process, calling the public functions `locert-serve` calls, in
//! `server::execute`'s order, with the daemon's telemetry switched on
//! (`locert_trace::enable` and `journal::enable`, as its `main` does).
//!
//! A span is recorded around each call: name, start, end, parent and
//! request id. Spans stay in memory and are written out at the end. The
//! per-layer metrics are medians over the replayed timed requests; the
//! stages a request never reaches (no prover on a cache hit, no cache in
//! verify mode) contribute no sample, and a stage no request reached
//! reports 0.
//!
//! Around each verification, outside the request's span, the verifier is
//! timed three more ways — metrics registry off, journal off, both on —
//! to attribute the telemetry's cost, and twice with telemetry off, in
//! parallel and sequentially (`view_of` + `decide` per vertex), to
//! measure the `locert-par` speed-up.

use crate::check::judge;
use crate::session::median;
use crate::workload::{instance, instance_of, permuted_instance, wire, Op, Workload, NON_COMPACT};
use locert_core::bits::Certificate;
use locert_core::catalogue;
use locert_core::framework::{run_verification, view_of, Assignment, Instance};
use locert_core::schemes::common::id_bits_for;
use locert_core::Scheme;
use locert_graph::{Graph, IdAssignment, NodeId};
use locert_serve::cache::{CacheKey, CertCache};
use locert_serve::proto::{self, CacheDisposition, ErrorCode, Message, Mode, Request, Response};
use locert_serve::ServeConfig;
use locert_trace::journal;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// The request-path stages, as span names, with the metric each feeds.
pub const STAGES: [(&str, &str); 10] = [
    ("proto.decode", "proto.decode_ns"),
    ("graph.from_edges", "graph.from_edges_ns"),
    ("graph.digest", "graph.digest_ns"),
    ("cache.get", "cache.get_ns"),
    ("catalogue.build", "catalogue.build_ns"),
    ("prove", "prove_ns"),
    ("cache.put", "cache.put_ns"),
    ("assignment.pack", "assignment.pack_ns"),
    ("verify", "verify_ns"),
    ("proto.encode", "proto.encode_ns"),
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// Start, nanoseconds since the replay began.
    pub start_ns: u64,
    /// End, nanoseconds since the replay began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Position of the request in the replayed list (warm-up first).
    pub req: usize,
    /// Whether the span belongs to an off-path probe (written out with
    /// a `probe.` prefix).
    pub probe: bool,
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    probe: bool,
}

impl Tracer {
    fn new(probe: bool) -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            probe,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, req: usize) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            probe: self.probe,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) -> u64 {
        let end = self.now();
        self.spans[span].end_ns = end;
        end - self.spans[span].start_ns
    }

    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: usize,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let span = self.open(name, parent, req);
        let out = f();
        (out, self.close(span))
    }
}

/// What one timed verification cost under each telemetry setting.
struct Attribution {
    metrics_ns: f64,
    journal_ns: f64,
    speedup: f64,
    bits_read_per_vertex: f64,
    rejected: bool,
}

/// Per-request facts the metrics are computed from.
struct Traced {
    stages: BTreeMap<&'static str, u64>,
    request_bytes: usize,
    response_bytes: usize,
    lookup: Option<bool>,
    attribution: Option<Attribution>,
}

/// The replay's results.
pub struct Replay {
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Per-layer metrics by name, except the sweep's and `serve.residual_ns`.
    pub metrics: BTreeMap<String, f64>,
    /// Timed requests replayed.
    pub replayed: usize,
    /// Replies that failed the same checks as the wire replies.
    pub failed: usize,
}

fn build(scheme: &str, instance: &Instance<'_>) -> Box<dyn Scheme> {
    catalogue::build(scheme, id_bits_for(instance), instance.graph().num_nodes())
        .expect("workload schemes are catalogued")
}

/// Serves one request frame the way the daemon does, under spans. With
/// `attribute`, a verification is then timed again outside the request
/// span ([`attribute_verification`]).
fn serve(
    tracer: &mut Tracer,
    cache: &mut CertCache,
    frame: &[u8],
    req: usize,
    attribute: bool,
) -> (Vec<u8>, Traced) {
    let root = tracer.open("serve.request", None, req);
    let p = Some(root);
    let payload = &frame[4..];
    let (decoded, _) = tracer.time("proto.decode", p, req, || proto::decode(payload));
    let request: Request = match decoded {
        Ok(Message::Requests(mut batch)) if batch.len() == 1 => batch.remove(0),
        other => panic!("workload frames hold one request, got {other:?}"),
    };
    let n = request.n as usize;
    let (graph, _) = tracer.time("graph.from_edges", p, req, || {
        let edges = request.edges.iter().map(|&(u, v)| (u as usize, v as usize));
        Graph::from_edges(n, edges).expect("workload graphs are simple")
    });
    let inputs: Option<Vec<usize>> = request
        .inputs
        .as_ref()
        .map(|word| word.iter().map(|&x| x as usize).collect());
    let ids = IdAssignment::contiguous(n);
    let inst = instance(&graph, &ids, inputs.as_deref());
    let verify = |tracer: &mut Tracer, certs: &[Certificate]| {
        let (scheme, _) = tracer.time("catalogue.build", p, req, || build(&request.scheme, &inst));
        let (assignment, _) = tracer.time("assignment.pack", p, req, || {
            Assignment::new(certs.to_vec())
        });
        let (outcome, _) = tracer.time("verify", p, req, || {
            run_verification(scheme.as_ref(), &inst, &assignment)
        });
        (outcome, scheme, assignment)
    };
    let mut lookup = None;
    let mut verified = None;
    let response = match request.mode {
        Mode::Prove | Mode::Roundtrip => {
            let (key, _) = tracer.time("graph.digest", p, req, || {
                CacheKey::of(&graph, inputs.as_deref(), &request.scheme)
            });
            let (found, _) = tracer.time("cache.get", p, req, || cache.get(&key));
            lookup = Some(found.is_some());
            let proved = match found {
                Some(certs) => Ok((certs, CacheDisposition::Hit)),
                None => {
                    let (scheme, _) =
                        tracer.time("catalogue.build", p, req, || build(&request.scheme, &inst));
                    let (assigned, _) = tracer.time("prove", p, req, || {
                        scheme.assign(&inst).map(|a| {
                            (0..a.len())
                                .map(|v| a.cert(NodeId(v)).clone())
                                .collect::<Vec<_>>()
                        })
                    });
                    match assigned {
                        Ok(certs) => {
                            tracer.time("cache.put", p, req, || cache.put(key, certs.clone()));
                            Ok((certs, CacheDisposition::Miss))
                        }
                        Err(e) => Err(Response::Err {
                            code: ErrorCode::NotAYesInstance,
                            message: e.to_string(),
                        }),
                    }
                }
            };
            match (proved, request.mode) {
                (Err(response), _) => response,
                (Ok((certs, cache)), Mode::Prove) => Response::Ok {
                    accepted: true,
                    cache,
                    rejecting: 0,
                    certs: Some(certs),
                },
                (Ok((certs, cache)), _) => {
                    let (outcome, scheme, assignment) = verify(tracer, &certs);
                    verified = Some((scheme, assignment));
                    Response::Ok {
                        accepted: outcome.accepted(),
                        cache,
                        rejecting: outcome.rejecting().len() as u32,
                        certs: Some(certs),
                    }
                }
            }
        }
        Mode::Verify => {
            let certs = request
                .certs
                .as_deref()
                .expect("verify requests carry certificates");
            let (outcome, scheme, assignment) = verify(tracer, certs);
            verified = Some((scheme, assignment));
            Response::Ok {
                accepted: outcome.accepted(),
                cache: CacheDisposition::Bypass,
                rejecting: outcome.rejecting().len() as u32,
                certs: None,
            }
        }
    };
    let (reply, _) = tracer.time("proto.encode", p, req, || {
        proto::encode_responses(std::slice::from_ref(&response))
    });
    tracer.close(root);
    let mut stages = BTreeMap::new();
    for span in tracer.spans[root + 1..].iter() {
        *stages.entry(span.name).or_insert(0) += span.end_ns - span.start_ns;
    }
    let mut traced = Traced {
        stages,
        request_bytes: payload.len(),
        response_bytes: reply.len(),
        lookup,
        attribution: None,
    };
    if let (true, Some((scheme, assignment))) = (attribute, verified) {
        traced.attribution = Some(attribute_verification(
            tracer,
            req,
            scheme.as_ref(),
            &inst,
            &assignment,
        ));
    }
    (reply, traced)
}

/// Times the verification of one request five more ways, outside its
/// request span: with the metrics registry off, with the journal off,
/// under the daemon's telemetry, and with telemetry off both in parallel
/// and sequentially.
fn attribute_verification(
    tracer: &mut Tracer,
    req: usize,
    scheme: &dyn Scheme,
    inst: &Instance<'_>,
    assignment: &Assignment,
) -> Attribution {
    locert_trace::disable();
    let (_, metrics_off) = tracer.time("attrib.verify.metrics_off", None, req, || {
        run_verification(scheme, inst, assignment)
    });
    locert_trace::enable();
    journal::disable();
    let (_, journal_off) = tracer.time("attrib.verify.journal_off", None, req, || {
        run_verification(scheme, inst, assignment)
    });
    journal::enable();
    let (outcome, both_on) = tracer.time("attrib.verify.telemetry", None, req, || {
        run_verification(scheme, inst, assignment)
    });
    // The speed-up compares like with like: both sides telemetry-free,
    // since the per-vertex registry updates exist only inside
    // `run_verification`.
    locert_trace::disable();
    journal::disable();
    let (_, parallel) = tracer.time("attrib.verify.quiet", None, req, || {
        run_verification(scheme, inst, assignment)
    });
    let (_, sequential) = tracer.time("attrib.verify.sequential", None, req, || {
        (0..inst.graph().num_nodes())
            .filter(|&v| {
                scheme
                    .decide(&view_of(inst, assignment, NodeId(v)))
                    .is_err()
            })
            .count()
    });
    locert_trace::enable();
    journal::enable();
    let bits: usize = outcome.verdicts().iter().map(|v| v.bits_read).sum();
    Attribution {
        metrics_ns: both_on as f64 - metrics_off as f64,
        journal_ns: both_on as f64 - journal_off as f64,
        speedup: sequential as f64 / parallel.max(1) as f64,
        bits_read_per_vertex: bits as f64 / inst.graph().num_nodes().max(1) as f64,
        rejected: !outcome.accepted(),
    }
}

fn med(values: impl Iterator<Item = f64>) -> f64 {
    median(&mut values.collect::<Vec<_>>())
}

/// The request `frame` carries, re-encoded as a roundtrip: served on an
/// empty cache it runs every stage of the request path.
fn as_roundtrip(frame: &[u8]) -> Vec<u8> {
    let (mut request, _, _) = instance_of(frame);
    request.mode = Mode::Roundtrip;
    request.certs = None;
    wire(&request)
}

/// Medians of a stage over the timed requests that reached it, or over
/// the probe requests when none did.
fn on_path_or_probe<T>(timed: &[T], probed: &[T], value: impl Fn(&T) -> Option<f64>) -> f64 {
    let reached: Vec<f64> = timed.iter().filter_map(&value).collect();
    if reached.is_empty() {
        med(probed.iter().filter_map(value))
    } else {
        median(&mut { reached })
    }
}

/// Instances a workload's off-path probe serves.
const PROBES: usize = 8;

/// Replays the warm-up, then the first `sent` timed operations (stopping
/// early once `budget` is spent), with the daemon's telemetry on.
///
/// A stage that no replayed timed request reaches (the prover on a cache
/// hit, the cache in verify mode) is timed by an off-path probe instead:
/// the workload's first distinct instances served as roundtrips on an
/// empty cache, outside the request spans, so that every per-layer time
/// is measured on every workload.
pub fn replay(workload: &Workload, sent: usize, budget: Duration) -> Replay {
    locert_trace::enable();
    journal::enable();
    let mut tracer = Tracer::new(false);
    let mut cache = CertCache::new(ServeConfig::default().cache_capacity);
    let mut failed = 0;
    let mut run = |tracer: &mut Tracer, cache: &mut CertCache, req: usize, op: Op, timed: bool| {
        let frame = &workload.frames[op.frame as usize];
        let (reply, traced) = serve(tracer, cache, frame, req, timed);
        if judge(workload, op, &reply).is_err() {
            failed += 1;
        }
        traced
    };
    // The warm-up only brings the cache to the daemon's state; its spans
    // (the compulsory misses of `hot-prove`) are not part of the trace.
    let mut untraced = Tracer::new(false);
    for (req, &op) in workload.warmup.iter().enumerate() {
        run(&mut untraced, &mut cache, req, op, false);
    }
    let evictions_before = cache.evictions();
    let offset = workload.warmup.len();
    let deadline = Instant::now() + budget;
    let mut traced = Vec::new();
    for (i, &op) in workload.timed.iter().take(sent).enumerate() {
        if i > 0 && Instant::now() > deadline {
            break;
        }
        let req = offset + i;
        traced.push(run(&mut tracer, &mut cache, req, op, true));
    }
    let replayed = traced.len();
    let evictions = cache.evictions() - evictions_before;

    let mut probed = Vec::new();
    let off_path = STAGES
        .iter()
        .any(|(stage, _)| traced.iter().all(|t| !t.stages.contains_key(stage)));
    if off_path {
        let mut frames: Vec<u32> = Vec::with_capacity(PROBES);
        for op in &workload.timed[..replayed] {
            if frames.len() < PROBES && !frames.contains(&op.frame) {
                frames.push(op.frame);
            }
        }
        tracer.probe = true;
        for (k, &f) in frames.iter().enumerate() {
            let req = offset + replayed + k;
            let frame = as_roundtrip(&workload.frames[f as usize]);
            let mut empty = CertCache::new(ServeConfig::default().cache_capacity);
            probed.push(serve(&mut tracer, &mut empty, &frame, req, true).1);
        }
    }
    locert_trace::disable();
    journal::disable();

    let mut metrics = BTreeMap::new();
    for (stage, metric) in STAGES {
        let v = on_path_or_probe(&traced, &probed, |t| {
            t.stages.get(stage).map(|&ns| ns as f64)
        });
        metrics.insert(metric.to_string(), v);
    }
    metrics.insert(
        "serve.stage_sum_ns".into(),
        med(traced.iter().map(|t| t.stages.values().sum::<u64>() as f64)),
    );
    metrics.insert(
        "proto.request_bytes".into(),
        med(traced.iter().map(|t| t.request_bytes as f64)),
    );
    metrics.insert(
        "proto.response_bytes".into(),
        med(traced.iter().map(|t| t.response_bytes as f64)),
    );
    let lookups: Vec<bool> = traced.iter().filter_map(|t| t.lookup).collect();
    let hits = lookups.iter().filter(|&&h| h).count();
    metrics.insert(
        "cache.hit_ratio".into(),
        if lookups.is_empty() {
            0.0
        } else {
            hits as f64 / lookups.len() as f64
        },
    );
    metrics.insert("cache.evictions".into(), evictions as f64);
    let attributed: Vec<&Attribution> = traced
        .iter()
        .filter_map(|t| t.attribution.as_ref())
        .collect();
    metrics.insert(
        "verify.bits_read_per_vertex".into(),
        med(attributed.iter().map(|a| a.bits_read_per_vertex)),
    );
    metrics.insert(
        "verify.reject_ratio".into(),
        if attributed.is_empty() {
            0.0
        } else {
            attributed.iter().filter(|a| a.rejected).count() as f64 / attributed.len() as f64
        },
    );
    let attribution = |f: fn(&Attribution) -> f64| {
        on_path_or_probe(&traced, &probed, |t| t.attribution.as_ref().map(f))
    };
    metrics.insert("par.verify_speedup".into(), attribution(|a| a.speedup));
    metrics.insert("trace.metrics_ns".into(), attribution(|a| a.metrics_ns));
    metrics.insert("trace.journal_ns".into(), attribution(|a| a.journal_ns));
    Replay {
        spans: tracer.spans,
        metrics,
        replayed,
        failed,
    }
}

/// The two sizes each scheme's scaling exponent is fitted from.
fn sweep_sizes(scheme: &str) -> (usize, usize) {
    match scheme {
        NON_COMPACT => (16, 32),
        "existential-triangle" => (32, 64),
        "tree-diameter-3" => (512, 2048),
        _ => (1024, 4096),
    }
}

/// Seed of the sweep's label permutations: fixed, so every run fits its
/// slopes on the same instances.
const SWEEP_SEED: u64 = 0x5eed;

fn fastest_of(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    (0..reps).map(|_| f()).min().unwrap_or(0) as f64
}

/// The scaling sweep, for every catalogue scheme: `prove.<id>.slope` and
/// `verify.<id>.slope`, the log-log slope of time against n between two
/// sizes of its label-permuted canonical family, and
/// `prove.<id>.ns_per_vertex` and `verify.<id>.ns_per_vertex` at the
/// larger size. Each time is the fastest of three runs, with telemetry
/// off so the numbers are the algorithm's and not the registry's.
pub fn sweep() -> BTreeMap<String, f64> {
    let mut rng = StdRng::seed_from_u64(SWEEP_SEED);
    let mut out = BTreeMap::new();
    for id in catalogue::ids() {
        let (small, large) = sweep_sizes(id);
        let mut times = Vec::new();
        for n in [small, large] {
            let (graph, inputs) = permuted_instance(&mut rng, id, n);
            let ids = IdAssignment::contiguous(graph.num_nodes());
            let inst = instance(&graph, &ids, inputs.as_deref());
            let scheme = build(id, &inst);
            let mut assignment = None;
            let prove = fastest_of(3, || {
                let t0 = Instant::now();
                assignment = Some(
                    scheme
                        .assign(&inst)
                        .expect("catalogue families are yes-instances"),
                );
                t0.elapsed().as_nanos() as u64
            });
            let assignment = assignment.expect("assigned at least once");
            let verify = fastest_of(3, || {
                let t0 = Instant::now();
                std::hint::black_box(run_verification(scheme.as_ref(), &inst, &assignment));
                t0.elapsed().as_nanos() as u64
            });
            times.push((graph.num_nodes() as f64, prove, verify));
        }
        let (n1, p1, v1) = times[0];
        let (n2, p2, v2) = times[1];
        let fit = |a: f64, b: f64| (b.max(1.0) / a.max(1.0)).ln() / (n2 / n1).ln();
        out.insert(format!("prove.{id}.slope"), fit(p1, p2));
        out.insert(format!("verify.{id}.slope"), fit(v1, v2));
        out.insert(format!("prove.{id}.ns_per_vertex"), p2 / n2);
        out.insert(format!("verify.{id}.ns_per_vertex"), v2 / n2);
    }
    out
}

/// The unit of a per-layer metric, from its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with(".ns_per_vertex") {
        "ns/vertex"
    } else if name.ends_with(".slope") {
        "log-log"
    } else if name.ends_with("_ns") {
        "ns"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else if name == "verify.bits_read_per_vertex" {
        "bits/vertex"
    } else if name == "cache.evictions" {
        "count"
    } else {
        "ratio"
    }
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// Propagates write errors.
pub fn write_spans(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let prefix = if s.probe { "probe." } else { "" };
        writeln!(
            out,
            "{{\"name\":\"{prefix}{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    out.flush()
}
