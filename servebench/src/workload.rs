//! Seeded request lists for the three workloads.
//!
//! Everything here is a pure function of `(kind, seed, scale)`: the same
//! seed yields byte-identical request frames, so percentiles from two
//! runs compare the same requests. Frames are encoded once, at set-up;
//! the timed loop only ships them.
//!
//! Workloads and why each exists (see `WORKLOADS.md`):
//! - `cold-roundtrip`: every request is a fresh, label-permuted
//!   instance, so every cache lookup misses and the provers run. Once
//!   the daemon's 256-entry cache is full, every insert evicts.
//! - `hot-prove`: a pool of instances that fits the cache, warmed before
//!   timing, so every timed request is a hit and no prover runs.
//! - `verify-mixed`: client-supplied assignments, half of them
//!   tampered, so the verifier and its reject paths run with no prover
//!   and no cache.

use locert_core::bits::Certificate;
use locert_core::catalogue;
use locert_core::framework::{run_verification, Assignment, Instance};
use locert_core::schemes::common::id_bits_for;
use locert_graph::digest::digest_instance;
use locert_graph::{Graph, IdAssignment};
use locert_serve::proto::{self, CacheDisposition, Mode, Request};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};

/// The one catalogue scheme whose certificates are not compact (n² bits):
/// excluded from the prover workloads, kept on small cliques in
/// `verify-mixed`.
pub const NON_COMPACT: &str = "universal-connected";

/// Which traffic mix to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fresh instances in roundtrip mode: provers, verifiers, cache writes.
    ColdRoundtrip,
    /// A warmed pool in prove mode: wire, graph build, digest, cache reads.
    HotProve,
    /// Client-supplied (half tampered) assignments in verify mode.
    VerifyMixed,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::ColdRoundtrip, Kind::HotProve, Kind::VerifyMixed];

    /// The workload's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdRoundtrip => "cold-roundtrip",
            Kind::HotProve => "hot-prove",
            Kind::VerifyMixed => "verify-mixed",
        }
    }

    /// Connections the timed window drives, one request in flight on
    /// each. `verify-mixed` uses one: each verification already fans out
    /// over the daemon's whole `locert-par` pool, whose waiting handler
    /// threads spin, so two at once put twice as many busy threads as
    /// cores on a 2-core machine and the latency measured the scheduler
    /// (run-to-run spread about twice that of one connection).
    pub fn connections(self) -> usize {
        match self {
            Kind::ColdRoundtrip | Kind::HotProve => 2,
            Kind::VerifyMixed => 1,
        }
    }

    /// Parses a stable name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Instance sizes: `Full` for measured runs, `Tiny` for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `WORKLOADS.md` documents.
    Full,
    /// Small instances and short lists, for the test suite.
    Tiny,
}

/// What a correct reply to one operation looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// The cache disposition the daemon must report.
    pub cache: CacheDisposition,
    /// The verdict.
    pub accepted: bool,
    /// The number of rejecting vertices.
    pub rejecting: u32,
    /// Certificates the reply must carry byte for byte (`hot-prove`;
    /// filled from the warm-up's miss reply).
    pub certs: Option<Vec<Certificate>>,
    /// Whether the returned certificates must be re-verified locally and
    /// accepted (`cold-roundtrip` and the `hot-prove` warm-up).
    pub reverify: bool,
}

/// One request to send: a frame and the expectation it is checked
/// against. Several operations may share a frame (pools are cycled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// Index into [`Workload::frames`].
    pub frame: u32,
    /// Index into [`Workload::expects`].
    pub expect: u32,
}

/// A fully planned workload.
pub struct Workload {
    /// Which mix.
    pub kind: Kind,
    /// Encoded single-request batches, length prefix included: what the
    /// timed loop writes verbatim.
    pub frames: Vec<Vec<u8>>,
    /// Expectations, indexed by [`Op::expect`].
    pub expects: Vec<Expect>,
    /// Untimed requests sent in order on one connection before timing.
    pub warmup: Vec<Op>,
    /// Timed requests; connections take them in order from a shared cursor.
    pub timed: Vec<Op>,
    /// Vertex counts of the distinct instances, for the run metadata.
    pub sizes: Vec<usize>,
}

impl Workload {
    /// Builds the workload. `timed_len` bounds the timed list (the timed
    /// window ends early if a run ever exhausts it).
    pub fn build(kind: Kind, seed: u64, scale: Scale, timed_len: usize) -> Workload {
        match kind {
            Kind::ColdRoundtrip => cold_roundtrip(seed, scale, timed_len),
            Kind::HotProve => hot_prove(seed, scale, timed_len),
            Kind::VerifyMixed => verify_mixed(seed, scale, timed_len),
        }
    }

    /// Points timed operation `index` at a copy of its expectation
    /// altered by `alter` — used by the checker self-test to plant one
    /// wrong expectation without touching any other operation.
    pub fn plant(&mut self, index: usize, alter: impl FnOnce(&mut Expect)) {
        let mut wrong = self.expects[self.timed[index].expect as usize].clone();
        alter(&mut wrong);
        self.timed[index].expect = self.expects.len() as u32;
        self.expects.push(wrong);
    }
}

/// The `j`-th size of a scheme in `[lo, hi]`: log-uniform along the
/// golden-ratio sequence, which covers the range evenly for any prefix.
/// Sizes do not depend on the seed: the seed permutes labels, orders
/// requests and picks tampering, while every run gets the same mix of
/// reply sizes. (Whether a reply stalls on the socket depends on its
/// size, so seeded sizes would make the latency quantiles jump between
/// seeds.)
fn size_at(j: usize, lo: usize, hi: usize) -> usize {
    const GOLDEN: f64 = 0.618_033_988_749_894_8;
    let u = (0.5 + j as f64 * GOLDEN).fract();
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    ((a + (b - a) * u).exp().round() as usize).clamp(lo, hi)
}

fn compact_ids() -> Vec<&'static str> {
    catalogue::ids()
        .into_iter()
        .filter(|&id| id != NON_COMPACT)
        .collect()
}

/// The catalogue family of `scheme` at size `n`, with vertex labels
/// permuted by a seeded permutation (inputs move with their vertices).
pub fn permuted_instance(rng: &mut StdRng, scheme: &str, n: usize) -> (Graph, Option<Vec<usize>>) {
    let entry = catalogue::by_id(scheme).expect("workload schemes are catalogued");
    let (graph, inputs) = (entry.family)(n);
    let n = graph.num_nodes();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let edges = graph.edges().map(|(u, v)| (perm[u.0], perm[v.0]));
    let permuted = Graph::from_edges(n, edges).expect("a relabeling of a simple graph is simple");
    let inputs = inputs.map(|word| {
        let mut moved = vec![0; n];
        for (v, &letter) in word.iter().enumerate() {
            moved[perm[v]] = letter;
        }
        moved
    });
    (permuted, inputs)
}

/// The wire request for an instance, edges in canonical order.
pub fn request(
    mode: Mode,
    scheme: &str,
    graph: &Graph,
    inputs: Option<&[usize]>,
    certs: Option<Vec<Certificate>>,
) -> Request {
    Request {
        mode,
        scheme: scheme.to_string(),
        n: graph.num_nodes() as u32,
        edges: graph
            .edges()
            .map(|(u, v)| (u.0 as u32, v.0 as u32))
            .collect(),
        inputs: inputs.map(|word| word.iter().map(|&x| x as u32).collect()),
        certs,
    }
}

/// One request as a length-prefixed wire frame.
pub fn wire(request: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    proto::write_frame(
        &mut frame,
        &proto::encode_requests(std::slice::from_ref(request)),
    )
    .expect("writing to a Vec cannot fail");
    frame
}

/// Rebuilds the instance a wire frame describes (the inverse of
/// [`request`] and [`wire`]): the request, its graph and input word.
pub fn instance_of(frame: &[u8]) -> (Request, Graph, Option<Vec<usize>>) {
    let request = match proto::decode(&frame[4..]) {
        Ok(proto::Message::Requests(mut batch)) if batch.len() == 1 => batch.remove(0),
        other => panic!("workload frames hold exactly one request, got {other:?}"),
    };
    let edges = request.edges.iter().map(|&(u, v)| (u as usize, v as usize));
    let graph = Graph::from_edges(request.n as usize, edges).expect("workload graphs are simple");
    let inputs = request
        .inputs
        .as_ref()
        .map(|word| word.iter().map(|&x| x as usize).collect());
    (request, graph, inputs)
}

/// The instance the daemon builds from a request: contiguous identifiers
/// and the optional input word.
pub fn instance<'a>(
    graph: &'a Graph,
    ids: &'a IdAssignment,
    inputs: Option<&'a [usize]>,
) -> Instance<'a> {
    match inputs {
        Some(word) => Instance::with_inputs(graph, ids, word),
        None => Instance::new(graph, ids),
    }
}

/// Runs the catalogued verifier of `scheme` on an instance under
/// contiguous identifiers, as the daemon does. Returns `(accepted,
/// rejecting count)`.
pub fn verify_locally(
    scheme: &str,
    graph: &Graph,
    inputs: Option<&[usize]>,
    certs: Vec<Certificate>,
) -> (bool, u32) {
    let ids = IdAssignment::contiguous(graph.num_nodes());
    let inst = instance(graph, &ids, inputs);
    let verifier = catalogue::build(scheme, id_bits_for(&inst), graph.num_nodes())
        .expect("workload schemes are catalogued");
    let outcome = run_verification(verifier.as_ref(), &inst, &Assignment::new(certs));
    (outcome.accepted(), outcome.rejecting().len() as u32)
}

/// Distinct labeled instances: `(scheme, digest)` never repeats, so a
/// prove request for each one misses the cache.
struct Fresh {
    rng: StdRng,
    drawn: HashMap<String, usize>,
    seen: HashSet<(String, u64)>,
}

impl Fresh {
    fn new(seed: u64) -> Fresh {
        Fresh {
            rng: StdRng::seed_from_u64(seed),
            drawn: HashMap::new(),
            seen: HashSet::new(),
        }
    }

    fn next(&mut self, scheme: &str, lo: usize, hi: usize) -> (Graph, Option<Vec<usize>>) {
        loop {
            let j = self.drawn.entry(scheme.to_string()).or_insert(0);
            let n = size_at(*j, lo, hi);
            *j += 1;
            let (graph, inputs) = permuted_instance(&mut self.rng, scheme, n);
            let key = (
                scheme.to_string(),
                digest_instance(&graph, inputs.as_deref()),
            );
            if self.seen.insert(key) {
                return (graph, inputs);
            }
        }
    }
}

/// Size range for a scheme in a workload whose default range is
/// `[lo, hi]`. Four provers grow superlinearly on label-permuted
/// instances (`tree-diameter-3` about n², `treedepth-3` and
/// `kernel-triangle-free` faster still, `ct-minor-free-3` with the
/// largest certificates) and get smaller instances so none dominates;
/// `existential-triangle`'s prover is a brute-force n³ witness search
/// that takes minutes at 1k vertices, so it stays at 32–64 vertices.
pub fn size_range(scheme: &str, lo: usize, hi: usize) -> (usize, usize) {
    match scheme {
        "tree-diameter-3" | "ct-minor-free-3" | "treedepth-3" | "kernel-triangle-free" => {
            (lo / 4, hi / 8)
        }
        "existential-triangle" => (32, 64),
        _ => (lo, hi),
    }
}

fn cold_roundtrip(seed: u64, scale: Scale, timed_len: usize) -> Workload {
    let (lo, hi, warm) = match scale {
        Scale::Full => (1024, 8192, 6),
        Scale::Tiny => (64, 256, 2),
    };
    let schemes = compact_ids();
    let mut fresh = Fresh::new(seed);
    let expect = Expect {
        cache: CacheDisposition::Miss,
        accepted: true,
        rejecting: 0,
        certs: None,
        reverify: true,
    };
    let mut frames = Vec::new();
    let mut sizes = Vec::new();
    for i in 0..warm + timed_len {
        let scheme = schemes[i % schemes.len()];
        let (lo, hi) = size_range(scheme, lo, hi);
        let (graph, inputs) = fresh.next(scheme, lo, hi);
        sizes.push(graph.num_nodes());
        let req = request(Mode::Roundtrip, scheme, &graph, inputs.as_deref(), None);
        frames.push(wire(&req));
    }
    let op = |i: usize| Op {
        frame: i as u32,
        expect: 0,
    };
    Workload {
        kind: Kind::ColdRoundtrip,
        frames,
        expects: vec![expect],
        warmup: (0..warm).map(op).collect(),
        timed: (warm..warm + timed_len).map(op).collect(),
        sizes,
    }
}

/// `len` operations cycling `pool` frames, each cycle in a fresh seeded
/// order; operation `k` uses expectation `frame`.
fn cycled(rng: &mut StdRng, pool: usize, len: usize) -> Vec<Op> {
    let mut order: Vec<u32> = (0..pool as u32).collect();
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        order.shuffle(rng);
        ops.extend(order.iter().take(len - ops.len()).map(|&f| Op {
            frame: f,
            expect: f,
        }));
    }
    ops
}

fn hot_prove(seed: u64, scale: Scale, timed_len: usize) -> Workload {
    let (lo, hi, pool) = match scale {
        Scale::Full => (8192, 16384, 64),
        Scale::Tiny => (128, 512, 6),
    };
    // The hit path does not depend on the prover, so the pool keeps to
    // the schemes whose provers finish a 16k-vertex warm-up in
    // milliseconds, every instance at the full size. Sizes start at 8k
    // so that few replies fall in the daemon's reply-stall band (see
    // WORKLOADS.md) and the p50 measures the hit path.
    let schemes: Vec<&str> = compact_ids()
        .into_iter()
        .filter(|&id| size_range(id, lo, hi) == (lo, hi))
        .collect();
    let mut fresh = Fresh::new(seed);
    let mut frames = Vec::with_capacity(pool);
    let mut sizes = Vec::with_capacity(pool);
    for i in 0..pool {
        let scheme = schemes[i % schemes.len()];
        let (graph, inputs) = fresh.next(scheme, lo, hi);
        sizes.push(graph.num_nodes());
        let req = request(Mode::Prove, scheme, &graph, inputs.as_deref(), None);
        frames.push(wire(&req));
    }
    // Expectations 0..pool: a hit carrying the warm-up's certificates
    // (filled in after the warm-up). pool..2·pool: the warm-up's first
    // pass, a compulsory miss whose certificates must verify.
    let hit = Expect {
        cache: CacheDisposition::Hit,
        accepted: true,
        rejecting: 0,
        certs: None,
        reverify: false,
    };
    let miss = Expect {
        cache: CacheDisposition::Miss,
        reverify: true,
        ..hit.clone()
    };
    let mut expects = vec![hit; pool];
    expects.extend(std::iter::repeat_n(miss, pool));
    let first = (0..pool as u32).map(|f| Op {
        frame: f,
        expect: pool as u32 + f,
    });
    let second = (0..pool as u32).map(|f| Op {
        frame: f,
        expect: f,
    });
    let warmup = first.chain(second).collect();
    let timed = cycled(&mut fresh.rng, pool, timed_len);
    Workload {
        kind: Kind::HotProve,
        frames,
        expects,
        warmup,
        timed,
        sizes,
    }
}

/// How a `verify-mixed` assignment is tampered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tamper {
    /// One bit flipped in one vertex's certificate.
    Flip,
    /// Two vertices' (different) certificates swapped; a flip when every
    /// certificate is the same, as in `universal-connected`.
    Swap,
}

/// Tampers with an honest assignment; the seeded `rng` picks where.
fn tamper(rng: &mut StdRng, certs: &mut [Certificate], how: Tamper) {
    let n = certs.len();
    if how == Tamper::Swap {
        for _ in 0..n {
            let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
            if certs[u] != certs[v] {
                certs.swap(u, v);
                return;
            }
        }
    }
    for _ in 0..n {
        let v = rng.random_range(0..n);
        if !certs[v].is_empty() {
            let bit = rng.random_range(0..certs[v].len_bits());
            certs[v] = certs[v].with_bit_flipped(bit);
            return;
        }
    }
}

/// Which pool slots of `verify-mixed` are tampered, and how. Slot `i`
/// holds the `j`-th instance of scheme `s = i mod schemes`; it is
/// tampered when `s + j` is odd, by flips and swaps in turn. So every
/// seed tampers exactly half of each scheme's six instances, the same
/// way. (A verifier may reject far faster than it accepts, so a seeded
/// share of tampered requests would move the latency quantiles between
/// seeds.)
fn tamper_at(i: usize, schemes: usize) -> Option<Tamper> {
    let t = i % schemes + i / schemes;
    match (t % 2, (t / 2) % 2) {
        (0, _) => None,
        (_, 0) => Some(Tamper::Flip),
        _ => Some(Tamper::Swap),
    }
}

fn verify_mixed(seed: u64, scale: Scale, timed_len: usize) -> Workload {
    let (lo, hi, clique, pool, warm) = match scale {
        Scale::Full => (1024, 4096, (16, 24), 96, 96),
        Scale::Tiny => (64, 256, (8, 12), 8, 2),
    };
    let schemes = catalogue::ids();
    let mut fresh = Fresh::new(seed);
    let mut frames = Vec::with_capacity(pool);
    let mut expects = Vec::with_capacity(pool);
    let mut sizes = Vec::with_capacity(pool);
    for i in 0..pool {
        let scheme = schemes[i % schemes.len()];
        let (lo, hi) = if scheme == NON_COMPACT {
            clique
        } else {
            size_range(scheme, lo, hi)
        };
        let (graph, inputs) = fresh.next(scheme, lo, hi);
        sizes.push(graph.num_nodes());
        let ids = IdAssignment::contiguous(graph.num_nodes());
        let inst = instance(&graph, &ids, inputs.as_deref());
        let prover =
            catalogue::build(scheme, id_bits_for(&inst), graph.num_nodes()).expect("catalogued");
        let honest = prover.assign(&inst).unwrap_or_else(|e| {
            panic!(
                "{scheme} refused its own family at n={}: {e}",
                graph.num_nodes()
            )
        });
        let mut certs: Vec<Certificate> = (0..honest.len())
            .map(|v| honest.cert(locert_graph::NodeId(v)).clone())
            .collect();
        if let Some(how) = tamper_at(i, schemes.len()) {
            tamper(&mut fresh.rng, &mut certs, how);
        }
        let (accepted, rejecting) =
            verify_locally(scheme, &graph, inputs.as_deref(), certs.clone());
        expects.push(Expect {
            cache: CacheDisposition::Bypass,
            accepted,
            rejecting,
            certs: None,
            reverify: false,
        });
        let req = request(Mode::Verify, scheme, &graph, inputs.as_deref(), Some(certs));
        frames.push(wire(&req));
    }
    let warmup = (0..warm.min(pool) as u32)
        .map(|f| Op {
            frame: f,
            expect: f,
        })
        .collect();
    let timed = cycled(&mut fresh.rng, pool, timed_len);
    Workload {
        kind: Kind::VerifyMixed,
        frames,
        expects,
        warmup,
        timed,
        sizes,
    }
}
