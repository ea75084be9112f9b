//! The open-loop load client: one connection, one sender thread that
//! writes each request when it falls due, and one receiver thread that
//! times and checks each answer.
//!
//! `hft_serve::Client` cannot be split across two threads, so this
//! speaks the wire directly through the public framing
//! (`wire::write_frame`, `FrameReader`) and codec
//! (`binwire::{hello, parse_hello_ack}`) entry points. Latency runs from
//! each request's due time, not its send time, so a stall also delays
//! every request queued behind it; there are no retries.

use crate::fixture::{mismatch, Entry};
use hft_ingest::ShardedStore;
use hft_obs::HistogramShard;
use hft_serve::api::Response;
use hft_serve::wire::{self, FrameEvent, FrameReader};
use hft_serve::{binwire, Proto};
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Latency recorded for a request that failed or was never answered:
/// it misses every latency limit.
const FAILED_NS: u64 = 3_600_000_000_000;
/// How long after the last due time the receiver waits for stragglers.
const GRACE: Duration = Duration::from_secs(2);
/// The answered-in-time window after a phase ends.
const ANSWER_WINDOW: Duration = Duration::from_secs(1);

/// A blocking framed connection, already switched to its protocol.
pub struct Conn {
    stream: TcpStream,
    frames: FrameReader,
}

impl Conn {
    /// Connect and, for the binary protocol, complete the hello.
    pub fn open(addr: &SocketAddr, proto: Proto) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            stream,
            frames: FrameReader::new(),
        };
        if proto != Proto::Json {
            let ack = conn.call(&binwire::hello(proto))?;
            let granted = binwire::parse_hello_ack(&ack)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if granted != proto {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("server granted {}", granted.name()),
                ));
            }
        }
        Ok(conn)
    }

    /// Send one frame body and wait for the answer's.
    pub fn call(&mut self, body: &[u8]) -> io::Result<Vec<u8>> {
        wire::write_frame(&mut self.stream, body)?;
        loop {
            match self.recv()? {
                Some(frame) => return Ok(frame),
                None => continue,
            }
        }
    }

    /// The next frame, or `None` when a read timed out first.
    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self
            .frames
            .read_from(&mut self.stream, wire::DEFAULT_MAX_FRAME)?
        {
            FrameEvent::Frame(body) => Ok(Some(body)),
            FrameEvent::Idle => Ok(None),
            FrameEvent::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            FrameEvent::Oversized(len) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("oversized frame: {len} bytes"),
            )),
        }
    }
}

/// A phase's request table: the universe, then the phase's fresh
/// requests.
pub struct Table<'a> {
    /// Shared by every phase.
    pub universe: &'a [Entry],
    /// Drawn for this phase only.
    pub fresh: &'a [Entry],
}

impl Table<'_> {
    /// Entry `i`.
    pub fn get(&self, i: u32) -> &Entry {
        let i = i as usize;
        match i.checked_sub(self.universe.len()) {
            None => &self.universe[i],
            Some(j) => &self.fresh[j],
        }
    }
}

/// One phase's offered load.
pub struct Load<'a> {
    /// Due times, ns after the phase starts.
    pub due_ns: &'a [u64],
    /// Table index per arrival.
    pub idx: &'a [u32],
    /// The requests.
    pub table: Table<'a>,
    /// Arrivals from here on are the idle probe, timed apart.
    pub idle_from: usize,
    /// Live-ingest's fleet: bracket each answer between generation
    /// vectors and defer its check.
    pub live: Option<&'a ShardedStore>,
}

/// An answer checked after the phase, against the corpus generation it
/// was pinned to.
pub struct LiveAnswer {
    /// Table index.
    pub idx: u32,
    /// The generation every shard showed both when the request was sent
    /// and when its answer arrived; `None` when a publish landed between.
    pub generation: Option<u64>,
    /// The response frame body.
    pub body: Vec<u8>,
}

/// What one phase's client saw.
#[derive(Default)]
pub struct LoadResult {
    /// Requests written.
    pub sent: u64,
    /// Answers equal to their reference bytes.
    pub ok: u64,
    /// `Overloaded` answers.
    pub refused: u64,
    /// Error answers where the reference was not that error.
    pub errors: u64,
    /// Any other answer that differs from its reference.
    pub wrong: u64,
    /// Answers whose check waits for the phase to end.
    pub deferred: Vec<LiveAnswer>,
    /// Checked answers no generation pin could attribute: answered,
    /// but not verifiable.
    pub unpinned: u64,
    /// Answers that arrived within [`ANSWER_WINDOW`] of the last due
    /// time.
    pub answered_in_window: u64,
    /// Latency of each rung request in arrival order, ns from its due
    /// time.
    pub latency: Vec<u64>,
    /// Latency of each idle-probe request, ns.
    pub idle: Vec<u64>,
    /// How late the sender wrote each request, ns.
    pub lateness: HistogramShard,
    /// The first wrong answer, described.
    pub first_mismatch: Option<String>,
}

impl LoadResult {
    /// Requests sent and never answered.
    pub fn unanswered(&self) -> u64 {
        let answered = self.ok + self.refused + self.errors + self.wrong + self.unpinned;
        self.sent - answered - self.deferred.len() as u64
    }
}

/// The generation a uniform vector names.
fn uniform(vector: &[u64]) -> Option<u64> {
    let first = *vector.first()?;
    vector.iter().all(|&g| g == first).then_some(first)
}

/// Offer `load` to the server at `addr` on one connection.
pub fn run(addr: &SocketAddr, proto: Proto, load: &Load<'_>) -> Result<LoadResult, String> {
    let conn = Conn::open(addr, proto).map_err(|e| format!("connect: {e}"))?;
    let writer = conn.stream.try_clone().map_err(|e| e.to_string())?;
    conn.stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| e.to_string())?;
    let n = load.due_ns.len();
    let sent = AtomicUsize::new(0);
    let before: Vec<AtomicU64> = if load.live.is_some() {
        (0..n).map(|_| AtomicU64::new(u64::MAX)).collect()
    } else {
        Vec::new()
    };
    let overloaded = crate::fixture::response_body(proto, &Response::Overloaded);
    let start = Instant::now() + Duration::from_millis(5);
    let last_due = start + Duration::from_nanos(load.due_ns.last().copied().unwrap_or(0));

    // Both threads are new per window, like the server's, so where the
    // scheduler places them varies from window to window, not from run
    // to run.
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| send(writer, load, start, &sent, &before));
        let receiver = scope.spawn(|| {
            receive(
                conn,
                proto,
                load,
                start,
                last_due,
                &sent,
                &before,
                &overloaded,
            )
        });
        let mut result = receiver.join().expect("receiver thread panicked");
        let (lateness, write_error) = sender.join().expect("sender thread panicked");
        result.sent = sent.load(Ordering::SeqCst) as u64;
        result.lateness = lateness;
        match write_error {
            Some(e) => Err(format!("send: {e}")),
            None => Ok(result),
        }
    })
}

/// Make the calling thread's sleeps end on time. Linux lets a sleeping
/// thread's wake-up slip by its timer slack (50 us by default) so timers
/// can coalesce; on the sender that slip lands in every latency, which
/// runs from the due time. Threads the sender does not create keep
/// their slack, so the server is unaffected.
#[cfg(target_os = "linux")]
fn precise_sleeps() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and only
    // changes the calling thread's timer slack; no memory is shared. A
    // failure leaves the default slack, which is merely less precise.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
}

#[cfg(not(target_os = "linux"))]
fn precise_sleeps() {}

/// The sender: sleep until the next due time, then write every request
/// that is due and flush once.
fn send(
    stream: TcpStream,
    load: &Load<'_>,
    start: Instant,
    sent: &AtomicUsize,
    before: &[AtomicU64],
) -> (HistogramShard, Option<io::Error>) {
    precise_sleeps();
    let mut w = BufWriter::with_capacity(1 << 16, stream);
    let mut lateness = HistogramShard::new();
    for (i, (&due_ns, &idx)) in load.due_ns.iter().zip(load.idx).enumerate() {
        let due = start + Duration::from_nanos(due_ns);
        let now = Instant::now();
        if due > now {
            if let Err(e) = w.flush() {
                return (lateness, Some(e));
            }
            std::thread::sleep(due - now);
        }
        if let Some(fleet) = load.live {
            let g = uniform(&fleet.generation_vector()).unwrap_or(u64::MAX - 1);
            before[i].store(g, Ordering::SeqCst);
        }
        if let Err(e) = wire::write_frame(&mut w, &load.table.get(idx).body) {
            return (lateness, Some(e));
        }
        lateness.record(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        sent.store(i + 1, Ordering::SeqCst);
    }
    let flushed = w.flush().err();
    (lateness, flushed)
}

/// The receiver: answers arrive in request order on one connection.
#[allow(clippy::too_many_arguments)]
fn receive(
    mut conn: Conn,
    proto: Proto,
    load: &Load<'_>,
    start: Instant,
    last_due: Instant,
    sent: &AtomicUsize,
    before: &[AtomicU64],
    overloaded: &[u8],
) -> LoadResult {
    let mut r = LoadResult::default();
    let n = load.due_ns.len();
    let window_end = last_due + ANSWER_WINDOW;
    let mut i = 0;
    while i < n {
        let frame = match conn.recv() {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                if Instant::now() > last_due + GRACE {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let now = Instant::now();
        // Frames only answer written requests; a stray one means the
        // stream is out of step, so stop counting.
        if i >= sent.load(Ordering::SeqCst) {
            break;
        }
        let due = start + Duration::from_nanos(load.due_ns[i]);
        let mut latency = now.saturating_duration_since(due).as_nanos() as u64;
        let idx = load.idx[i];
        let entry = load.table.get(idx);
        if frame == overloaded {
            r.refused += 1;
            latency = FAILED_NS;
        } else if let Some(fleet) = load.live {
            let after = uniform(&fleet.generation_vector());
            let sent_at = before[i].load(Ordering::SeqCst);
            r.deferred.push(LiveAnswer {
                idx,
                generation: after.filter(|&g| g == sent_at),
                body: frame,
            });
        } else if Some(&frame) == entry.expect.as_ref() {
            r.ok += 1;
        } else {
            latency = FAILED_NS;
            match binwire::response_from(proto, &frame) {
                Ok(Response::Error { .. }) => r.errors += 1,
                _ => r.wrong += 1,
            }
            if r.first_mismatch.is_none() {
                r.first_mismatch = Some(mismatch("load", entry, &frame, proto));
            }
        }
        if now <= window_end {
            r.answered_in_window += 1;
        }
        if i < load.idle_from {
            r.latency.push(latency);
        } else {
            r.idle.push(latency);
        }
        i += 1;
    }
    // Requests never answered miss every limit too.
    for j in i..n.min(sent.load(Ordering::SeqCst)) {
        if j < load.idle_from {
            r.latency.push(FAILED_NS);
        } else {
            r.idle.push(FAILED_NS);
        }
    }
    r
}
