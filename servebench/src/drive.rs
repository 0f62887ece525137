//! The closed-loop driver: writes pre-encoded frames and reads reply
//! bytes, nothing else. Decoding and checking wait until the clock stops
//! (`check`), so the client never takes a core from the daemon while it
//! is being measured.

use crate::workload::Op;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What came back for one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Byte-identical to the frame's reference reply.
    SameAsReference,
    /// The reply payload, to decode after the clock stops.
    Bytes(Vec<u8>),
    /// The connection failed; the operation got no reply.
    Transport(String),
}

/// One sent operation.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the operation in the list it came from.
    pub index: usize,
    /// Send to reply, nanoseconds.
    pub latency_ns: u64,
    /// The reply.
    pub reply: Reply,
}

/// The timed window's outcome.
pub struct Timed {
    /// Every operation sent, in no particular order.
    pub samples: Vec<Sample>,
    /// From the common start to the last reply, seconds.
    pub window_s: f64,
    /// Whether the op list ran out before the deadline.
    pub exhausted: bool,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            buf: Vec::new(),
        })
    }

    /// Writes one length-prefixed frame and reads one reply payload into
    /// `self.buf`.
    fn exchange(&mut self, frame: &[u8]) -> io::Result<()> {
        self.writer.write_all(frame)?;
        let mut len = [0u8; 4];
        self.reader.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len > locert_serve::proto::MAX_FRAME {
            return Err(io::Error::other(format!("reply of {len} bytes")));
        }
        self.buf.resize(len, 0);
        self.reader.read_exact(&mut self.buf)
    }

    /// Sends `frame`, timing the exchange; keeps the reply only when it
    /// differs from `reference`.
    fn sample(&mut self, index: usize, frame: &[u8], reference: Option<&[u8]>) -> Sample {
        let t0 = Instant::now();
        let result = self.exchange(frame);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let reply = match result {
            Err(e) => Reply::Transport(e.to_string()),
            Ok(()) if reference == Some(self.buf.as_slice()) => Reply::SameAsReference,
            Ok(()) => Reply::Bytes(std::mem::take(&mut self.buf)),
        };
        Sample {
            index,
            latency_ns,
            reply,
        }
    }
}

/// Sends `ops` in order on one connection (the untimed warm-up),
/// keeping every reply.
///
/// # Errors
///
/// The connect error.
pub fn sequential(addr: SocketAddr, frames: &[Vec<u8>], ops: &[Op]) -> io::Result<Vec<Sample>> {
    let mut conn = Conn::open(addr)?;
    let mut samples = Vec::with_capacity(ops.len());
    for (index, op) in ops.iter().enumerate() {
        let sample = conn.sample(index, &frames[op.frame as usize], None);
        let broken = matches!(sample.reply, Reply::Transport(_));
        samples.push(sample);
        if broken {
            break;
        }
    }
    Ok(samples)
}

/// Drives `ops` closed-loop over `connections` connections for
/// `seconds`: each connection takes the next operation from a shared
/// cursor only once its previous reply has arrived. `references[f]`,
/// when present, is the reply frame `f` must produce; matching replies
/// are not stored.
///
/// # Errors
///
/// A connect error (before the clock starts).
pub fn closed_loop(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    references: &[Option<Vec<u8>>],
    ops: &[Op],
    connections: usize,
    seconds: f64,
) -> io::Result<Timed> {
    let conns = (0..connections)
        .map(|_| Conn::open(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let cursor = AtomicUsize::new(0);
    let barrier = Barrier::new(connections + 1);
    let (start, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let (cursor, barrier) = (&cursor, &barrier);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    let mut exhausted = false;
                    while Instant::now() < deadline {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = ops.get(index) else {
                            exhausted = true;
                            break;
                        };
                        let f = op.frame as usize;
                        let sample = conn.sample(index, &frames[f], references[f].as_deref());
                        let broken = matches!(sample.reply, Reply::Transport(_));
                        samples.push(sample);
                        if broken {
                            break;
                        }
                    }
                    (samples, Instant::now(), exhausted)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect();
        (start, results)
    });
    let end = results.iter().map(|r| r.1).max().unwrap_or(start);
    Ok(Timed {
        exhausted: results.iter().any(|r| r.2),
        samples: results.into_iter().flat_map(|r| r.0).collect(),
        window_s: end.duration_since(start).as_secs_f64(),
    })
}
