//! A structured, replayable event journal.
//!
//! Where the span/counter layer *aggregates* (how many, how long), the
//! journal *records*: a bounded ring buffer of typed [`Event`]s in the
//! order they happened — prover start/end, one verdict per vertex with
//! its rejection reason and certificate-view volume, fault injections,
//! campaign rounds. Entries carry a monotone sequence number and **no
//! timestamps**, so a run with a fixed seed produces a byte-identical
//! JSONL export: the journal is the replay artifact.
//!
//! The ring is independent of the span subscriber: it has its own
//! enable flag so `experiments --journal` can record events without
//! paying for span aggregation (and vice versa); a [`crate::capture`]
//! frame takes events whatever the flag says. Like every other
//! instrumentation point in this crate, a disabled journal costs one
//! thread-local read and one relaxed atomic load per call site —
//! [`record_with`] takes a closure so event construction (and its
//! allocations) is skipped entirely when nothing records.
//!
//! Event payloads are plain `u64`/`String` values rather than types from
//! `locert-core`: the trace crate sits below core in the dependency
//! graph, and string reason codes are what the JSONL format stores
//! anyway. Core's `RejectReason::code()` is the bridge.

use crate::json::{self, Value};
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Schema identifier written in the JSONL header line.
pub const JOURNAL_SCHEMA: &str = "locert-journal/v1";

/// Default ring-buffer capacity (entries). Large enough for every
/// experiment in the suite; a run that overflows it keeps the *newest*
/// entries and counts the dropped ones.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Registry counter bumped once per entry evicted from the ring buffer
/// (overflow or a capacity shrink). Lets CI artifacts surface silent
/// truncation: a metrics snapshot with this counter non-zero means the
/// journal on disk is missing its oldest events.
pub const DROPPED_EVENTS_COUNTER: &str = "journal.dropped_events";

/// One journal event. Variants mirror the phases of a certification
/// run; reasons are kebab-case codes (see `locert-core`'s
/// `RejectReason::code`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A prover began assigning certificates for `scheme`.
    ProverStart {
        /// Scheme display name.
        scheme: String,
    },
    /// The prover finished; `ok` is false when it returned an error.
    ProverEnd {
        /// Scheme display name.
        scheme: String,
        /// Whether certificate assignment succeeded.
        ok: bool,
        /// Maximum per-vertex certificate size in bits (0 on failure).
        max_bits: u64,
    },
    /// One vertex's verification verdict.
    Verdict {
        /// The vertex (NodeId index).
        vertex: u64,
        /// Whether the vertex accepted.
        accepted: bool,
        /// Rejection reason code; `None` when accepted.
        reason: Option<String>,
        /// Certificate bits in the vertex's radius-1 view (own + neighbors).
        bits_read: u64,
    },
    /// A certificate was mutated in place (`Assignment::cert_mut`).
    CertMutated {
        /// The vertex whose certificate was handed out mutably.
        vertex: u64,
    },
    /// A fault model touched the world at `site`.
    FaultInjected {
        /// Fault model name (`FaultModel::name`).
        model: String,
        /// The targeted vertex.
        site: u64,
        /// Whether the injection changed the presented world.
        effective: bool,
    },
    /// A verifier rejected in a faulty world; provenance links it back
    /// to the injection site.
    Detection {
        /// Fault model name.
        model: String,
        /// The injected fault site.
        site: u64,
        /// The rejecting vertex.
        detector: u64,
        /// Rejection reason code.
        reason: String,
        /// BFS distance from fault site to detector, when connected.
        distance: Option<u64>,
    },
    /// One run of a fault campaign finished.
    CampaignRound {
        /// Fault model name.
        model: String,
        /// Run index within the campaign.
        run: u64,
        /// Whether any vertex rejected.
        detected: bool,
        /// Distance from fault site to the nearest rejector.
        locality: Option<u64>,
    },
    /// The differential oracle observed a disagreement between a scheme
    /// run and ground truth, a sibling scheme, or a metamorphic relation.
    OracleDisagreement {
        /// Oracle case name.
        case: String,
        /// Which relation broke (e.g. `completeness`, `sibling:<name>`,
        /// `relabel`, `union`).
        relation: String,
        /// Vertex count of the disagreeing instance.
        vertices: u64,
    },
    /// One accepted step of the counterexample shrinker.
    ShrinkStep {
        /// Oracle case name.
        case: String,
        /// What was removed (`drop-vertex` or `drop-edge`).
        action: String,
        /// Vertex count after the step.
        vertices: u64,
    },
    /// A network frame was handed to the link layer (`locert-net`).
    NetSend {
        /// Sending vertex (NodeId index).
        src: u64,
        /// Receiving vertex (NodeId index).
        dst: u64,
        /// Logical send time in the discrete-event clock.
        time: u64,
        /// Frame payload size in bits (header + certificate).
        bits: u64,
        /// Frame kind: `data` or `ack`.
        kind: String,
    },
    /// The link layer discarded a frame.
    NetDrop {
        /// Sending vertex.
        src: u64,
        /// Intended receiver.
        dst: u64,
        /// Logical send time.
        time: u64,
        /// Why the frame died: `loss`, `partition`, or `dead-receiver`.
        cause: String,
    },
    /// A node's retransmit timer fired and it resent a data frame.
    NetRetry {
        /// Retransmitting vertex.
        node: u64,
        /// Neighbor index (position in the adjacency list, not NodeId).
        neighbor: u64,
        /// Retry attempt number (1 = first retransmit).
        attempt: u64,
        /// Logical time of the retransmit.
        time: u64,
    },
    /// A node crashed (losing its certificate) or restarted.
    NetCrash {
        /// The affected vertex.
        node: u64,
        /// Logical time of the transition.
        time: u64,
        /// `true` on crash, `false` on restart.
        down: bool,
    },
    /// A node's final network verdict at quiescence.
    NetVerdict {
        /// The vertex.
        vertex: u64,
        /// `accepted`, `rejected`, or `inconclusive`.
        status: String,
        /// Rejection reason code when `status == "rejected"`.
        reason: Option<String>,
        /// Count of neighbors never heard from (inconclusive only).
        missing: u64,
        /// Logical time the verdict last changed.
        time: u64,
    },
    /// One `locert-serve` request lifecycle: admission through verdict
    /// (or typed rejection), with its cache disposition.
    ServeRequest {
        /// Connection ordinal, in accept order.
        conn: u64,
        /// Request ordinal within the connection (batch entries count
        /// individually).
        req: u64,
        /// Stable scheme id (`locert-core`'s shared catalogue).
        scheme: String,
        /// Request mode: `prove`, `verify`, or `roundtrip`.
        mode: String,
        /// Vertex count of the request graph.
        vertices: u64,
        /// `accepted`, `rejected`, or a typed wire error code
        /// (e.g. `unknown-scheme`, `overloaded`).
        outcome: String,
        /// Certificate-cache disposition: `hit`, `miss`, or `bypass`
        /// (modes that never consult the cache).
        cache: String,
    },
    /// A logical round boundary for windowed analytics. Emitted at the
    /// *start* of a round: everything up to the next boundary event
    /// belongs to this round.
    ///
    /// `round` is the producer's own round number when it has a
    /// deterministic one (fault campaigns use the run index); `None`
    /// when the producer has no local counter (`run_verification`), in
    /// which case readers assign ordinals by position — well-defined
    /// because the journal itself is deterministic for a fixed seed.
    RoundMark {
        /// The emitting subsystem (e.g. `core.verify`,
        /// `core.faults.campaign`).
        scope: String,
        /// Producer-local round number, when one exists.
        round: Option<u64>,
    },
    /// A free-form boundary marker (experiment start, phase change).
    Marker {
        /// Marker label.
        label: String,
    },
}

/// A journal entry: the event plus its position in the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Monotone sequence number, assigned at record time. Survives
    /// ring-buffer eviction: after overflow the first retained entry
    /// has `seq > 0`.
    pub seq: u64,
    /// The recorded event.
    pub event: Event,
}

/// Everything the journal held when the snapshot was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSnapshot {
    /// Retained entries, oldest first.
    pub entries: Vec<Entry>,
    /// Entries evicted by the ring buffer before the snapshot.
    pub dropped: u64,
}

impl JournalSnapshot {
    /// The verdict events, in record order — the per-vertex decision
    /// trail a replay reconstructs.
    pub fn verdicts(&self) -> impl Iterator<Item = &Event> {
        self.entries
            .iter()
            .map(|e| &e.event)
            .filter(|e| matches!(e, Event::Verdict { .. }))
    }
}

static JOURNAL_ENABLED: AtomicBool = AtomicBool::new(false);

struct Buf {
    entries: VecDeque<Entry>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

static BUF: Mutex<Buf> = Mutex::new(Buf {
    entries: VecDeque::new(),
    capacity: DEFAULT_CAPACITY,
    next_seq: 0,
    dropped: 0,
});

/// Turns journal recording on.
pub fn enable() {
    JOURNAL_ENABLED.store(true, Ordering::Relaxed);
}

/// Turns journal recording off. Already-recorded entries stay until
/// [`reset`].
pub fn disable() {
    JOURNAL_ENABLED.store(false, Ordering::Relaxed);
}

/// Whether recording is on (one relaxed load — the entire cost of a
/// disabled instrumentation point).
#[inline]
pub fn enabled() -> bool {
    JOURNAL_ENABLED.load(Ordering::Relaxed)
}

/// Sets the ring-buffer capacity. Existing overflow is evicted oldest
/// first.
pub fn set_capacity(capacity: usize) {
    let evicted;
    {
        let mut b = BUF.lock().expect("journal buffer");
        b.capacity = capacity.max(1);
        let before = b.entries.len();
        while b.entries.len() > b.capacity {
            b.entries.pop_front();
            b.dropped += 1;
        }
        evicted = (before - b.entries.len()) as u64;
    }
    crate::add(DROPPED_EVENTS_COUNTER, evicted);
}

/// The current ring-buffer capacity in entries.
pub fn capacity() -> usize {
    BUF.lock().expect("journal buffer").capacity
}

/// Clears all entries and restarts sequence numbering.
pub fn reset() {
    let mut b = BUF.lock().expect("journal buffer");
    b.entries.clear();
    b.next_seq = 0;
    b.dropped = 0;
}

/// Records the event produced by `make` into this thread's capture
/// frame ([`crate::capture`]) if one is installed, else into the ring if
/// the journal is enabled. With neither, this is one thread-local read
/// and one relaxed atomic load; the closure is never called, so callers
/// may capture freely and build strings inside it without a
/// disabled-path cost.
#[inline]
pub fn record_with(make: impl FnOnce() -> Event) {
    if crate::capturing() {
        let event = make();
        crate::with_frame(|frame| frame.journal.push(event));
    } else if enabled() {
        append(make());
    }
}

/// Appends one event to the ring, assigning its sequence number, and
/// publishes it to live subscribers.
pub(crate) fn append(event: Event) {
    // Load the subscriber flag before taking the buffer lock so the
    // common no-subscriber case never clones the event.
    let live = stream::active();
    let mut b = BUF.lock().expect("journal buffer");
    let seq = b.next_seq;
    b.next_seq += 1;
    let mut evicted = false;
    if b.entries.len() == b.capacity {
        b.entries.pop_front();
        b.dropped += 1;
        evicted = true;
    }
    let entry = Entry { seq, event };
    let published = live.then(|| entry.clone());
    b.entries.push_back(entry);
    drop(b);
    // Outside the buffer lock: the registry and subscriber locks must
    // never nest inside it (and vice versa).
    if evicted {
        crate::add(DROPPED_EVENTS_COUNTER, 1);
    }
    if let Some(entry) = published {
        stream::publish(&entry);
    }
}

/// Copies the current contents out of the ring buffer.
pub fn snapshot() -> JournalSnapshot {
    let b = BUF.lock().expect("journal buffer");
    JournalSnapshot {
        entries: b.entries.iter().cloned().collect(),
        dropped: b.dropped,
    }
}

// ---------------------------------------------------------------------
// JSONL encoding
// ---------------------------------------------------------------------

fn opt_u64(v: Option<u64>) -> Value {
    v.map_or(Value::Null, Value::from)
}

/// One event as a JSON object (without the `seq` field).
pub fn event_to_json(event: &Event) -> Value {
    let typed = |ty: &str, rest: Vec<(String, Value)>| {
        let mut pairs = vec![("type".to_string(), Value::from(ty))];
        pairs.extend(rest);
        Value::obj(pairs)
    };
    match event {
        Event::ProverStart { scheme } => typed(
            "prover-start",
            vec![("scheme".to_string(), Value::from(scheme.as_str()))],
        ),
        Event::ProverEnd {
            scheme,
            ok,
            max_bits,
        } => typed(
            "prover-end",
            vec![
                ("scheme".to_string(), Value::from(scheme.as_str())),
                ("ok".to_string(), Value::from(*ok)),
                ("max_bits".to_string(), Value::from(*max_bits)),
            ],
        ),
        Event::Verdict {
            vertex,
            accepted,
            reason,
            bits_read,
        } => typed(
            "verdict",
            vec![
                ("vertex".to_string(), Value::from(*vertex)),
                ("accepted".to_string(), Value::from(*accepted)),
                (
                    "reason".to_string(),
                    reason.as_deref().map_or(Value::Null, Value::from),
                ),
                ("bits_read".to_string(), Value::from(*bits_read)),
            ],
        ),
        Event::CertMutated { vertex } => typed(
            "cert-mutated",
            vec![("vertex".to_string(), Value::from(*vertex))],
        ),
        Event::FaultInjected {
            model,
            site,
            effective,
        } => typed(
            "fault-injected",
            vec![
                ("model".to_string(), Value::from(model.as_str())),
                ("site".to_string(), Value::from(*site)),
                ("effective".to_string(), Value::from(*effective)),
            ],
        ),
        Event::Detection {
            model,
            site,
            detector,
            reason,
            distance,
        } => typed(
            "detection",
            vec![
                ("model".to_string(), Value::from(model.as_str())),
                ("site".to_string(), Value::from(*site)),
                ("detector".to_string(), Value::from(*detector)),
                ("reason".to_string(), Value::from(reason.as_str())),
                ("distance".to_string(), opt_u64(*distance)),
            ],
        ),
        Event::CampaignRound {
            model,
            run,
            detected,
            locality,
        } => typed(
            "campaign-round",
            vec![
                ("model".to_string(), Value::from(model.as_str())),
                ("run".to_string(), Value::from(*run)),
                ("detected".to_string(), Value::from(*detected)),
                ("locality".to_string(), opt_u64(*locality)),
            ],
        ),
        Event::OracleDisagreement {
            case,
            relation,
            vertices,
        } => typed(
            "oracle-disagreement",
            vec![
                ("case".to_string(), Value::from(case.as_str())),
                ("relation".to_string(), Value::from(relation.as_str())),
                ("vertices".to_string(), Value::from(*vertices)),
            ],
        ),
        Event::ShrinkStep {
            case,
            action,
            vertices,
        } => typed(
            "shrink-step",
            vec![
                ("case".to_string(), Value::from(case.as_str())),
                ("action".to_string(), Value::from(action.as_str())),
                ("vertices".to_string(), Value::from(*vertices)),
            ],
        ),
        Event::NetSend {
            src,
            dst,
            time,
            bits,
            kind,
        } => typed(
            "net-send",
            vec![
                ("src".to_string(), Value::from(*src)),
                ("dst".to_string(), Value::from(*dst)),
                ("time".to_string(), Value::from(*time)),
                ("bits".to_string(), Value::from(*bits)),
                ("kind".to_string(), Value::from(kind.as_str())),
            ],
        ),
        Event::NetDrop {
            src,
            dst,
            time,
            cause,
        } => typed(
            "net-drop",
            vec![
                ("src".to_string(), Value::from(*src)),
                ("dst".to_string(), Value::from(*dst)),
                ("time".to_string(), Value::from(*time)),
                ("cause".to_string(), Value::from(cause.as_str())),
            ],
        ),
        Event::NetRetry {
            node,
            neighbor,
            attempt,
            time,
        } => typed(
            "net-retry",
            vec![
                ("node".to_string(), Value::from(*node)),
                ("neighbor".to_string(), Value::from(*neighbor)),
                ("attempt".to_string(), Value::from(*attempt)),
                ("time".to_string(), Value::from(*time)),
            ],
        ),
        Event::NetCrash { node, time, down } => typed(
            "net-crash",
            vec![
                ("node".to_string(), Value::from(*node)),
                ("time".to_string(), Value::from(*time)),
                ("down".to_string(), Value::from(*down)),
            ],
        ),
        Event::NetVerdict {
            vertex,
            status,
            reason,
            missing,
            time,
        } => typed(
            "net-verdict",
            vec![
                ("vertex".to_string(), Value::from(*vertex)),
                ("status".to_string(), Value::from(status.as_str())),
                (
                    "reason".to_string(),
                    reason.as_deref().map_or(Value::Null, Value::from),
                ),
                ("missing".to_string(), Value::from(*missing)),
                ("time".to_string(), Value::from(*time)),
            ],
        ),
        Event::ServeRequest {
            conn,
            req,
            scheme,
            mode,
            vertices,
            outcome,
            cache,
        } => typed(
            "serve-request",
            vec![
                ("conn".to_string(), Value::from(*conn)),
                ("req".to_string(), Value::from(*req)),
                ("scheme".to_string(), Value::from(scheme.as_str())),
                ("mode".to_string(), Value::from(mode.as_str())),
                ("vertices".to_string(), Value::from(*vertices)),
                ("outcome".to_string(), Value::from(outcome.as_str())),
                ("cache".to_string(), Value::from(cache.as_str())),
            ],
        ),
        Event::RoundMark { scope, round } => typed(
            "round-mark",
            vec![
                ("scope".to_string(), Value::from(scope.as_str())),
                ("round".to_string(), opt_u64(*round)),
            ],
        ),
        Event::Marker { label } => typed(
            "marker",
            vec![("label".to_string(), Value::from(label.as_str()))],
        ),
    }
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    let x = v.get(key)?.as_num()?;
    if x.is_finite() && x >= 0.0 && x.fract() == 0.0 {
        Some(x as u64)
    } else {
        None
    }
}

fn get_opt_u64(v: &Value, key: &str) -> Option<Option<u64>> {
    match v.get(key)? {
        Value::Null => Some(None),
        _ => get_u64(v, key).map(Some),
    }
}

fn get_str(v: &Value, key: &str) -> Option<String> {
    Some(v.get(key)?.as_str()?.to_string())
}

fn get_bool(v: &Value, key: &str) -> Option<bool> {
    match v.get(key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Parses one event object back (the inverse of [`event_to_json`]).
pub fn event_from_json(v: &Value) -> Option<Event> {
    match v.get("type")?.as_str()? {
        "prover-start" => Some(Event::ProverStart {
            scheme: get_str(v, "scheme")?,
        }),
        "prover-end" => Some(Event::ProverEnd {
            scheme: get_str(v, "scheme")?,
            ok: get_bool(v, "ok")?,
            max_bits: get_u64(v, "max_bits")?,
        }),
        "verdict" => Some(Event::Verdict {
            vertex: get_u64(v, "vertex")?,
            accepted: get_bool(v, "accepted")?,
            reason: match v.get("reason")? {
                Value::Null => None,
                r => Some(r.as_str()?.to_string()),
            },
            bits_read: get_u64(v, "bits_read")?,
        }),
        "cert-mutated" => Some(Event::CertMutated {
            vertex: get_u64(v, "vertex")?,
        }),
        "fault-injected" => Some(Event::FaultInjected {
            model: get_str(v, "model")?,
            site: get_u64(v, "site")?,
            effective: get_bool(v, "effective")?,
        }),
        "detection" => Some(Event::Detection {
            model: get_str(v, "model")?,
            site: get_u64(v, "site")?,
            detector: get_u64(v, "detector")?,
            reason: get_str(v, "reason")?,
            distance: get_opt_u64(v, "distance")?,
        }),
        "campaign-round" => Some(Event::CampaignRound {
            model: get_str(v, "model")?,
            run: get_u64(v, "run")?,
            detected: get_bool(v, "detected")?,
            locality: get_opt_u64(v, "locality")?,
        }),
        "oracle-disagreement" => Some(Event::OracleDisagreement {
            case: get_str(v, "case")?,
            relation: get_str(v, "relation")?,
            vertices: get_u64(v, "vertices")?,
        }),
        "shrink-step" => Some(Event::ShrinkStep {
            case: get_str(v, "case")?,
            action: get_str(v, "action")?,
            vertices: get_u64(v, "vertices")?,
        }),
        "net-send" => Some(Event::NetSend {
            src: get_u64(v, "src")?,
            dst: get_u64(v, "dst")?,
            time: get_u64(v, "time")?,
            bits: get_u64(v, "bits")?,
            kind: get_str(v, "kind")?,
        }),
        "net-drop" => Some(Event::NetDrop {
            src: get_u64(v, "src")?,
            dst: get_u64(v, "dst")?,
            time: get_u64(v, "time")?,
            cause: get_str(v, "cause")?,
        }),
        "net-retry" => Some(Event::NetRetry {
            node: get_u64(v, "node")?,
            neighbor: get_u64(v, "neighbor")?,
            attempt: get_u64(v, "attempt")?,
            time: get_u64(v, "time")?,
        }),
        "net-crash" => Some(Event::NetCrash {
            node: get_u64(v, "node")?,
            time: get_u64(v, "time")?,
            down: get_bool(v, "down")?,
        }),
        "net-verdict" => Some(Event::NetVerdict {
            vertex: get_u64(v, "vertex")?,
            status: get_str(v, "status")?,
            reason: match v.get("reason")? {
                Value::Null => None,
                r => Some(r.as_str()?.to_string()),
            },
            missing: get_u64(v, "missing")?,
            time: get_u64(v, "time")?,
        }),
        "serve-request" => Some(Event::ServeRequest {
            conn: get_u64(v, "conn")?,
            req: get_u64(v, "req")?,
            scheme: get_str(v, "scheme")?,
            mode: get_str(v, "mode")?,
            vertices: get_u64(v, "vertices")?,
            outcome: get_str(v, "outcome")?,
            cache: get_str(v, "cache")?,
        }),
        "round-mark" => Some(Event::RoundMark {
            scope: get_str(v, "scope")?,
            round: get_opt_u64(v, "round")?,
        }),
        "marker" => Some(Event::Marker {
            label: get_str(v, "label")?,
        }),
        _ => None,
    }
}

/// Streams a snapshot as JSONL into `out`: a header line
/// `{"schema":"locert-journal/v1","dropped":N,"entries":N}` followed by
/// one `{"seq":N,"type":...}` object per entry. Deterministic for a
/// fixed event sequence (no timestamps, sorted keys). One line is
/// buffered at a time, so a million-entry journal writes in O(line)
/// memory — wrap `out` in a [`io::BufWriter`] when it is a file.
///
/// # Errors
///
/// Propagates the first write error from `out`.
pub fn write_jsonl<W: io::Write>(snap: &JournalSnapshot, out: &mut W) -> io::Result<()> {
    let header = Value::obj([
        ("schema".to_string(), Value::from(JOURNAL_SCHEMA)),
        ("dropped".to_string(), Value::from(snap.dropped)),
        (
            "entries".to_string(),
            Value::from(snap.entries.len() as u64),
        ),
    ]);
    writeln!(out, "{header}")?;
    for entry in &snap.entries {
        writeln!(out, "{}", entry_to_jsonl_line(entry))?;
    }
    Ok(())
}

/// One entry as its JSONL line (no trailing newline) — the unit both
/// [`write_jsonl`] and live tailing emit.
pub fn entry_to_jsonl_line(entry: &Entry) -> String {
    let mut obj = match event_to_json(&entry.event) {
        Value::Obj(map) => map,
        _ => unreachable!("event_to_json returns objects"),
    };
    obj.insert("seq".to_string(), Value::from(entry.seq));
    Value::Obj(obj).to_string()
}

/// Serializes a snapshot as one JSONL `String` (see [`write_jsonl`]).
/// Convenient for tests and small journals; prefer [`write_jsonl`] when
/// the destination is a file.
pub fn to_jsonl(snap: &JournalSnapshot) -> String {
    let mut out = Vec::with_capacity(64 + snap.entries.len() * 64);
    write_jsonl(snap, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("JSONL is UTF-8")
}

/// A JSONL journal decode failure: 1-based line number plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JournalParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JournalParseError {}

/// Parses a JSONL journal back into a snapshot (the inverse of
/// [`to_jsonl`]).
///
/// # Errors
///
/// [`JournalParseError`] naming the first malformed line: invalid JSON,
/// a bad header, an unknown event type, or a missing field.
pub fn from_jsonl(text: &str) -> Result<JournalSnapshot, JournalParseError> {
    let fail = |line: usize, message: &str| JournalParseError {
        line,
        message: message.to_string(),
    };
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (i, header_line) = lines.next().ok_or_else(|| fail(1, "empty journal"))?;
    let header = json::parse(header_line).map_err(|e| fail(i + 1, &format!("bad header: {e}")))?;
    if header.get("schema").and_then(Value::as_str) != Some(JOURNAL_SCHEMA) {
        return Err(fail(i + 1, "missing or unknown schema"));
    }
    let dropped = get_u64(&header, "dropped").ok_or_else(|| fail(i + 1, "bad dropped count"))?;
    let mut entries = Vec::new();
    for (i, line) in lines {
        let v = json::parse(line).map_err(|e| fail(i + 1, &format!("bad entry: {e}")))?;
        let seq = get_u64(&v, "seq").ok_or_else(|| fail(i + 1, "missing seq"))?;
        let event = event_from_json(&v).ok_or_else(|| fail(i + 1, "unknown or malformed event"))?;
        entries.push(Entry { seq, event });
    }
    Ok(JournalSnapshot { entries, dropped })
}

// ---------------------------------------------------------------------
// Live tailing
// ---------------------------------------------------------------------

/// Live journal tailing: bounded per-subscriber queues fed from
/// [`append`], so a long-running process (the `/journal/tail` HTTP
/// endpoint, a future `locert-serve` daemon) can watch events as they
/// happen without holding the ring-buffer lock or growing without
/// bound.
///
/// Design constraints, in order:
///
/// 1. **Zero cost with no subscribers.** The recording hot path checks
///    one relaxed atomic ([`active`]) before doing anything — no lock,
///    no clone. The `tests/journal_no_alloc.rs` gate holds with this
///    module compiled in.
/// 2. **Recording never blocks on a slow reader.** Each subscriber has
///    its own bounded [`VecDeque`]; overflow drops that subscriber's
///    *oldest* queued entries and counts them
///    ([`Subscription::dropped`]), mirroring the ring buffer's
///    drop-oldest policy. Publishing only ever takes short
///    uncontended-in-practice mutexes.
/// 3. **Subscribers see the post-flush order.** Events recorded inside a
///    [`crate::capture`] reach subscribers when the coordinator flushes
///    them via [`crate::absorb`], in canonical order with their final
///    `seq` — a tailer observes the same sequence a snapshot would.
pub mod stream {
    use super::Entry;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
    use std::time::Duration;

    /// Default per-subscriber queue capacity.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 4096;

    /// Number of live subscribers; the recording fast path reads this
    /// and nothing else.
    static SUB_COUNT: AtomicUsize = AtomicUsize::new(0);

    struct SubState {
        queue: VecDeque<Entry>,
        dropped: u64,
    }

    struct Shared {
        state: Mutex<SubState>,
        cond: Condvar,
        capacity: usize,
    }

    fn subscribers() -> &'static Mutex<Vec<Weak<Shared>>> {
        static SUBS: OnceLock<Mutex<Vec<Weak<Shared>>>> = OnceLock::new();
        SUBS.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// Whether any subscriber is live (one relaxed load).
    #[inline]
    pub(super) fn active() -> bool {
        SUB_COUNT.load(Ordering::Relaxed) != 0
    }

    /// Fans one appended entry out to every live subscriber. Called by
    /// [`super::append`] *after* releasing the ring-buffer lock.
    pub(super) fn publish(entry: &Entry) {
        let subs = subscribers().lock().expect("journal subscribers");
        for weak in subs.iter() {
            let Some(shared) = weak.upgrade() else {
                continue;
            };
            let mut st = shared.state.lock().expect("subscriber queue");
            if st.queue.len() == shared.capacity {
                st.queue.pop_front();
                st.dropped += 1;
            }
            st.queue.push_back(entry.clone());
            drop(st);
            shared.cond.notify_all();
        }
    }

    /// A live tail of the journal. Entries recorded while the
    /// subscription exists are queued here (bounded, drop-oldest);
    /// dropping the subscription unregisters it.
    pub struct Subscription {
        shared: Arc<Shared>,
    }

    /// Registers a subscriber with the default queue capacity.
    pub fn subscribe() -> Subscription {
        subscribe_with_capacity(DEFAULT_QUEUE_CAPACITY)
    }

    /// Registers a subscriber whose queue holds at most `capacity`
    /// entries; older queued entries are dropped (and counted) when a
    /// slow reader falls behind.
    pub fn subscribe_with_capacity(capacity: usize) -> Subscription {
        let shared = Arc::new(Shared {
            state: Mutex::new(SubState {
                queue: VecDeque::new(),
                dropped: 0,
            }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
        });
        let mut subs = subscribers().lock().expect("journal subscribers");
        subs.retain(|w| w.strong_count() > 0);
        subs.push(Arc::downgrade(&shared));
        SUB_COUNT.store(subs.len(), Ordering::Release);
        Subscription { shared }
    }

    impl Subscription {
        /// Takes everything currently queued, oldest first, without
        /// blocking.
        pub fn drain(&self) -> Vec<Entry> {
            let mut st = self.shared.state.lock().expect("subscriber queue");
            st.queue.drain(..).collect()
        }

        /// Waits up to `timeout` for one entry; `None` on timeout.
        pub fn recv_timeout(&self, timeout: Duration) -> Option<Entry> {
            let mut st = self.shared.state.lock().expect("subscriber queue");
            if st.queue.is_empty() {
                let (guard, res) = self
                    .shared
                    .cond
                    .wait_timeout_while(st, timeout, |st| st.queue.is_empty())
                    .expect("subscriber queue");
                st = guard;
                if res.timed_out() && st.queue.is_empty() {
                    return None;
                }
            }
            st.queue.pop_front()
        }

        /// Entries this subscriber lost to queue overflow.
        pub fn dropped(&self) -> u64 {
            self.shared.state.lock().expect("subscriber queue").dropped
        }

        /// Entries currently queued.
        pub fn len(&self) -> usize {
            self.shared
                .state
                .lock()
                .expect("subscriber queue")
                .queue
                .len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl Drop for Subscription {
        fn drop(&mut self) {
            let mut subs = subscribers().lock().expect("journal subscribers");
            let me = Arc::as_ptr(&self.shared);
            subs.retain(|w| w.strong_count() > 0 && !std::ptr::eq(w.as_ptr(), me));
            SUB_COUNT.store(subs.len(), Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Marker { label: "e1".into() },
            Event::ProverStart {
                scheme: "spanning-tree".into(),
            },
            Event::ProverEnd {
                scheme: "spanning-tree".into(),
                ok: true,
                max_bits: 12,
            },
            Event::Verdict {
                vertex: 0,
                accepted: true,
                reason: None,
                bits_read: 24,
            },
            Event::Verdict {
                vertex: 3,
                accepted: false,
                reason: Some("root-mismatch".into()),
                bits_read: 36,
            },
            Event::CertMutated { vertex: 3 },
            Event::FaultInjected {
                model: "bit-flip".into(),
                site: 3,
                effective: true,
            },
            Event::Detection {
                model: "bit-flip".into(),
                site: 3,
                detector: 2,
                reason: "parent-distance-clash".into(),
                distance: Some(1),
            },
            Event::CampaignRound {
                model: "bit-flip".into(),
                run: 0,
                detected: true,
                locality: Some(1),
            },
            Event::OracleDisagreement {
                case: "spanning-tree".into(),
                relation: "sibling:vertex-count".into(),
                vertices: 7,
            },
            Event::ShrinkStep {
                case: "spanning-tree".into(),
                action: "drop-vertex".into(),
                vertices: 6,
            },
            Event::NetSend {
                src: 0,
                dst: 1,
                time: 0,
                bits: 44,
                kind: "data".into(),
            },
            Event::NetDrop {
                src: 1,
                dst: 0,
                time: 2,
                cause: "loss".into(),
            },
            Event::NetRetry {
                node: 0,
                neighbor: 0,
                attempt: 1,
                time: 8,
            },
            Event::NetCrash {
                node: 2,
                time: 4,
                down: true,
            },
            Event::NetVerdict {
                vertex: 0,
                status: "inconclusive".into(),
                reason: None,
                missing: 1,
                time: 96,
            },
            Event::NetVerdict {
                vertex: 1,
                status: "rejected".into(),
                reason: Some("malformed-certificate".into()),
                missing: 0,
                time: 12,
            },
            Event::ServeRequest {
                conn: 2,
                req: 5,
                scheme: "spanning-tree".into(),
                mode: "roundtrip".into(),
                vertices: 9,
                outcome: "accepted".into(),
                cache: "hit".into(),
            },
            Event::ServeRequest {
                conn: 0,
                req: 0,
                scheme: "no-such".into(),
                mode: "prove".into(),
                vertices: 0,
                outcome: "unknown-scheme".into(),
                cache: "bypass".into(),
            },
            Event::RoundMark {
                scope: "core.faults.campaign".into(),
                round: Some(3),
            },
            Event::RoundMark {
                scope: "core.verify".into(),
                round: None,
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_preserves_every_event() {
        let snap = JournalSnapshot {
            entries: sample_events()
                .into_iter()
                .enumerate()
                .map(|(i, event)| Entry {
                    seq: i as u64,
                    event,
                })
                .collect(),
            dropped: 7,
        };
        let text = to_jsonl(&snap);
        let back = from_jsonl(&text).expect("parses");
        assert_eq!(back, snap);
        // Determinism: encoding the re-parsed snapshot is byte-identical.
        assert_eq!(to_jsonl(&back), text);
    }

    #[test]
    fn recording_respects_enable_and_capacity() {
        let _g = crate::tests::serial();
        disable();
        reset();
        record_with(|| panic!("disabled journal must not build events"));
        set_capacity(4);
        enable();
        for i in 0..10u64 {
            record_with(|| Event::CertMutated { vertex: i });
        }
        disable();
        let snap = snapshot();
        set_capacity(DEFAULT_CAPACITY);
        reset();
        assert_eq!(snap.entries.len(), 4);
        assert_eq!(snap.dropped, 6);
        // Newest entries survive; seq numbers keep counting from 0.
        assert_eq!(snap.entries[0].seq, 6);
        assert_eq!(
            snap.entries.last().map(|e| &e.event),
            Some(&Event::CertMutated { vertex: 9 })
        );
    }

    /// The labels of the marker events in `events`, in order.
    fn labels(events: &[Event]) -> Vec<&str> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Marker { label } => Some(label.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn capture_diverts_and_absorb_flushes_in_order() {
        // The enclosing frame plays the ring's part: a private view.
        let ((), outer) = crate::capture(|| {
            record_with(|| Event::Marker { label: "a".into() });
            let ((), captured) = crate::capture(|| {
                record_with(|| Event::CertMutated { vertex: 1 });
                record_with(|| Event::CertMutated { vertex: 2 });
            });
            assert_eq!(captured.journal.len(), 2);
            record_with(|| Event::Marker { label: "b".into() });
            crate::absorb(captured);
        });
        let kinds: Vec<u64> = outer
            .journal
            .iter()
            .filter_map(|e| match e {
                Event::CertMutated { vertex } => Some(*vertex),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![1, 2]);
        assert_eq!(outer.journal.len(), 4);
        // Nothing reached the enclosing frame before the flush: "b",
        // recorded after the capture, precedes its events.
        assert_eq!(outer.journal[1], Event::Marker { label: "b".into() });
        // A panicking capture restores the outer sink.
        let ((), outer) = crate::capture(|| {
            let _ = std::panic::catch_unwind(|| {
                crate::capture(|| {
                    record_with(|| Event::Marker {
                        label: "doomed".into(),
                    });
                    panic!("boom");
                })
            });
            record_with(|| Event::Marker {
                label: "after".into(),
            });
        });
        assert!(labels(&outer.journal).contains(&"after"));
        assert!(!labels(&outer.journal).contains(&"doomed"));
    }

    #[test]
    fn subscribers_tail_the_journal_live() {
        let _g = crate::tests::serial();
        reset();
        enable();
        record_with(|| Event::Marker {
            label: "before".into(),
        });
        let sub = stream::subscribe_with_capacity(3);
        assert!(sub.is_empty(), "nothing recorded since subscribing");
        for i in 0..5u64 {
            record_with(|| Event::CertMutated { vertex: i });
        }
        // Capacity 3, drop-oldest: vertices 2, 3, 4 remain; 0 and 1
        // were evicted from the *subscriber's* queue (the ring kept
        // everything).
        assert_eq!(sub.dropped(), 2);
        let tailed: Vec<u64> = sub
            .drain()
            .iter()
            .filter_map(|e| match &e.event {
                Event::CertMutated { vertex } => Some(*vertex),
                _ => None,
            })
            .collect();
        assert_eq!(tailed, vec![2, 3, 4]);
        // Seq numbers are the ring's, assigned at append time.
        assert_eq!(snapshot().entries.len(), 6);
        // Captured events reach subscribers at flush, in flush order.
        let ((), captured) = crate::capture(|| {
            record_with(|| Event::CertMutated { vertex: 100 });
        });
        assert!(sub.is_empty(), "capture diverts away from subscribers");
        assert_eq!(snapshot().entries.len(), 6, "nothing reached the ring yet");
        record_with(|| Event::Marker { label: "b".into() });
        crate::absorb(captured);
        let flushed = sub.drain();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[1].event, Event::CertMutated { vertex: 100 });
        // Seqs are assigned at flush time, monotone over the whole ring.
        assert_eq!(flushed[1].seq, 7);
        let snap = snapshot();
        assert!(snap.entries.windows(2).all(|w| w[0].seq < w[1].seq));
        // recv_timeout returns a queued entry immediately and times out
        // on an empty queue.
        record_with(|| Event::Marker { label: "w".into() });
        assert!(sub
            .recv_timeout(std::time::Duration::from_millis(10))
            .is_some());
        assert!(sub
            .recv_timeout(std::time::Duration::from_millis(10))
            .is_none());
        // Dropping the subscription unregisters it: recording continues
        // without publishing.
        drop(sub);
        record_with(|| Event::Marker {
            label: "after-drop".into(),
        });
        disable();
        reset();
    }

    #[test]
    fn eviction_bumps_dropped_events_counter_exactly() {
        let _g = crate::tests::serial();
        crate::reset();
        reset();
        crate::enable();
        enable();
        set_capacity(4);
        for i in 0..10u64 {
            record_with(|| Event::CertMutated { vertex: i });
        }
        let snap = snapshot();
        assert_eq!(snap.dropped, 6, "ring evicted exactly the overflow");
        assert_eq!(
            crate::snapshot().counters.get(DROPPED_EVENTS_COUNTER),
            Some(&6),
            "registry counter matches the ring's eviction count"
        );
        // Shrinking the capacity evicts (and counts) the excess too.
        set_capacity(1);
        assert_eq!(snapshot().dropped, 9);
        assert_eq!(
            crate::snapshot().counters.get(DROPPED_EVENTS_COUNTER),
            Some(&9)
        );
        disable();
        crate::disable();
        set_capacity(DEFAULT_CAPACITY);
        reset();
        crate::reset();
    }

    #[test]
    fn capacity_accessor_reflects_configuration() {
        let _g = crate::tests::serial();
        assert_eq!(capacity(), DEFAULT_CAPACITY);
        set_capacity(128);
        assert_eq!(capacity(), 128);
        set_capacity(DEFAULT_CAPACITY);
        assert_eq!(capacity(), DEFAULT_CAPACITY);
    }

    #[test]
    fn from_jsonl_rejects_malformed_input() {
        assert!(from_jsonl("").is_err());
        assert!(from_jsonl("{\"schema\":\"other/v9\",\"dropped\":0,\"entries\":0}\n").is_err());
        let ok_header = "{\"dropped\":0,\"entries\":1,\"schema\":\"locert-journal/v1\"}\n";
        assert!(from_jsonl(&format!("{ok_header}not json\n")).is_err());
        assert!(from_jsonl(&format!("{ok_header}{{\"type\":\"martian\",\"seq\":0}}\n")).is_err());
        assert!(
            from_jsonl(&format!(
                "{ok_header}{{\"type\":\"marker\",\"label\":\"x\"}}\n"
            ))
            .is_err(),
            "entry without seq must fail"
        );
        let err = from_jsonl(&format!("{ok_header}null\n")).expect_err("fails");
        assert_eq!(err.line, 2);
    }

    /// A light property test (vendored proptest has no trace dep here):
    /// random event streams survive the JSONL round trip.
    #[test]
    fn randomized_streams_roundtrip() {
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let len = (next() % 20) as usize;
            let entries: Vec<Entry> = (0..len)
                .map(|i| {
                    let event = match next() % 5 {
                        0 => Event::Verdict {
                            vertex: next() % 1000,
                            accepted: next() % 2 == 0,
                            reason: if next() % 2 == 0 {
                                None
                            } else {
                                Some(format!("reason-{}", next() % 8))
                            },
                            bits_read: next() % 4096,
                        },
                        1 => Event::FaultInjected {
                            model: format!("model-{}", next() % 10),
                            site: next() % 1000,
                            effective: next() % 2 == 0,
                        },
                        2 => Event::Detection {
                            model: format!("model-{}", next() % 10),
                            site: next() % 1000,
                            detector: next() % 1000,
                            reason: format!("reason \"{}\" π", next() % 8),
                            distance: if next() % 2 == 0 {
                                None
                            } else {
                                Some(next() % 64)
                            },
                        },
                        3 => Event::ProverEnd {
                            scheme: format!("scheme[{}]", next() % 4),
                            ok: next() % 2 == 0,
                            max_bits: next() % 100_000,
                        },
                        _ => Event::Marker {
                            label: format!("mark\n{}", next() % 100),
                        },
                    };
                    Entry {
                        seq: i as u64,
                        event,
                    }
                })
                .collect();
            let snap = JournalSnapshot {
                entries,
                dropped: next() % 3,
            };
            let text = to_jsonl(&snap);
            assert_eq!(from_jsonl(&text).expect("parses"), snap);
        }
    }
}
