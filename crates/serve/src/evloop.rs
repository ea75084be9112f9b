//! The event-driven transport: one readiness loop multiplexing every
//! connection over a [`Poller`], with no thread
//! per connection.
//!
//! The loop is protocol-agnostic: it owns sockets, readiness, pooled
//! write buffers and vectored flushes, while each connection's *bytes*
//! are interpreted by a [`ConnDriver`]. The wire protocol (length-
//! prefixed frames, hello negotiation, binary codec) is one driver —
//! `WireDriver`, installed for connections accepted on the primary
//! listener — and additional listeners may be registered with their own
//! [`DriverFactory`] (the HTTP explorer in `hft-http` is one), all
//! multiplexed on the same poller, worker pool and admission queue.
//!
//! Division of labor per event-loop round:
//!
//! 1. drain the [`Waker`] (pool workers poke it when
//!    they fill a response slot),
//! 2. accept any pending connections on any listener (nonblocking,
//!    until `WouldBlock`), installing the listener's driver,
//! 3. for each readable connection, read raw bytes and hand them to the
//!    driver, which parses incrementally and either answers immediately
//!    or submits work to the admission queue through its [`DriverCx`],
//! 4. pump every connection: the driver encodes answers that are ready
//!    (in request order, into pooled buffers) and the loop pushes bytes
//!    with vectored writes until the socket pushes back, then arms
//!    `EPOLLOUT` and lets readiness resume the flush.
//!
//! Responses are encoded under the protocol that was in force when
//! their request arrived, so a hello mid-pipeline never reorders or
//! re-codes earlier answers. Encode buffers come from a free-list
//! `BufPool` (hit/miss counters + free-list gauge under
//! `serve.bufpool_*`); decode and encode latencies land in
//! `serve.decode_ns`/`serve.encode_ns`, and wake-to-drain latency in
//! `serve.poll_wake_ns`.
//!
//! Shutdown is a protocol message: a `shutdown` request answers
//! `ShuttingDown`, stops every acceptor, closes the admission queue
//! (pending jobs still drain), marks every connection read-closed, and
//! the loop exits once every outstanding response has been flushed.

use crate::api::{Dispatch, Request, Response};
use crate::binwire::{self, Proto};
use crate::poll::{Interest, Poller, SourceFd, Waker};
use crate::pool::{Queue, ResponseSlot, SubmitError};
use crate::server::ServeConfig;
use crate::service::Handler;
use crate::wire::FrameEvent;
use crate::wire::FrameReader;
use hft_obs::{Counter, Gauge, Histogram};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN_WAKER: usize = 0;
/// Listener tokens occupy `1..=listener_count`; connections follow.
const TOKEN_LISTENERS: usize = 1;

/// Most buffers retained by the free list; beyond this, buffers are
/// dropped and the allocator gets them back.
const POOL_MAX_FREE: usize = 128;
/// Buffers that grew beyond this capacity are not retained (a single
/// huge metrics dump must not pin a huge free list forever).
const POOL_MAX_RETAINED_CAP: usize = 1 << 18;
/// Most frames combined into one vectored write.
const MAX_IOVECS: usize = 16;

#[cfg(unix)]
fn source_fd(s: &impl std::os::fd::AsRawFd) -> SourceFd {
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn source_fd<T>(_s: &T) -> SourceFd {
    -1
}

/// A free list of reusable encode buffers with hit/miss telemetry.
struct BufPool {
    free: Vec<Vec<u8>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    free_gauge: Arc<Gauge>,
}

impl BufPool {
    fn new() -> BufPool {
        let r = hft_obs::global();
        BufPool {
            free: Vec::new(),
            hits: r.counter("serve.bufpool_hits"),
            misses: r.counter("serve.bufpool_misses"),
            free_gauge: r.gauge("serve.bufpool_free"),
        }
    }

    fn get(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                self.hits.incr();
                self.free_gauge.set(self.free.len() as i64);
                buf
            }
            None => {
                self.misses.incr();
                Vec::with_capacity(4096)
            }
        }
    }

    fn put(&mut self, buf: Vec<u8>) {
        if self.free.len() < POOL_MAX_FREE && buf.capacity() <= POOL_MAX_RETAINED_CAP {
            self.free.push(buf);
            self.free_gauge.set(self.free.len() as i64);
        }
    }
}

/// What a [`ConnDriver`] callback may do: answer through the worker
/// pool, answer inline, push encoded bytes at the socket, and steer the
/// connection/server lifecycle. One `DriverCx` is materialized per
/// callback; it borrows the loop's buffer pool and the connection's
/// write queue, so drivers never own transport state.
pub struct DriverCx<'cx> {
    handler: &'cx dyn Handler,
    queue: &'cx Queue,
    waker: &'cx Arc<Waker>,
    pool: &'cx mut BufPool,
    wq: &'cx mut VecDeque<Vec<u8>>,
    close: bool,
    shutdown: bool,
}

impl DriverCx<'_> {
    /// The query engine serving this loop (shared by every driver).
    pub fn handler(&self) -> &dyn Handler {
        self.handler
    }

    /// Answer a queue-bypassing request here on the loop. A handler
    /// panic answers the same structured error a pool worker gives, so
    /// it cannot unwind out of the loop.
    pub fn answer_inline(&self, request: &Request) -> Response {
        crate::pool::answer(self.handler, request)
    }

    /// Admit a request to the bounded worker pool. The returned slot
    /// fills on a pool worker and pokes the loop's waker; encode it from
    /// the driver's `pump`. Rejections are immediate and explicit.
    pub fn submit(&mut self, request: Request) -> Result<Arc<ResponseSlot>, SubmitError> {
        self.queue
            .submit(request, self.handler.serve_stats(), Arc::clone(self.waker))
    }

    /// A pooled (cleared) encode buffer.
    pub fn buf(&mut self) -> Vec<u8> {
        self.pool.get()
    }

    /// Queue encoded bytes for the socket, in call order.
    pub fn send(&mut self, buf: Vec<u8>) {
        self.wq.push_back(buf);
    }

    /// Return an unused buffer to the pool.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.pool.put(buf);
    }

    /// Stop reading this connection; queued bytes still flush, then the
    /// socket closes.
    pub fn close_after_flush(&mut self) {
        self.close = true;
    }

    /// Whether this connection has been marked for close (by this
    /// callback or a server shutdown).
    pub fn closing(&self) -> bool {
        self.close || self.shutdown
    }

    /// Begin server shutdown: every acceptor stops, the admission queue
    /// closes (pending jobs still drain), every connection flushes and
    /// closes, then the loop exits.
    pub fn begin_shutdown(&mut self) {
        self.shutdown = true;
    }
}

/// A per-connection protocol state machine driven by the readiness
/// loop. The loop feeds raw bytes in and pumps answers out; the driver
/// owns parsing, request ordering, and response encoding.
pub trait ConnDriver: Send {
    /// Bytes arrived from the peer. Parse incrementally; a partial
    /// message must be retained for the next call.
    fn on_bytes(&mut self, bytes: &[u8], cx: &mut DriverCx<'_>);

    /// The peer half-closed its side cleanly. Queued answers still
    /// flush; the loop closes the connection once drained.
    fn on_eof(&mut self, cx: &mut DriverCx<'_>);

    /// Encode every answer that is ready, in order, via [`DriverCx::send`].
    /// Called once per loop round (slots may have filled, writes may
    /// have unblocked).
    fn pump(&mut self, cx: &mut DriverCx<'_>);

    /// No responses pending: together with an empty write queue this
    /// makes the connection drained for shutdown purposes.
    fn idle(&self) -> bool;
}

/// Creates a [`ConnDriver`] per accepted connection, for listeners
/// registered beside the primary wire listener.
pub trait DriverFactory: Sync {
    /// A driver for one newly accepted connection.
    fn new_conn(&self) -> Box<dyn ConnDriver + '_>;
}

/// An additional listener on the readiness loop, speaking the protocol
/// its factory produces (see [`crate::server::Server::run_with_extras`]).
pub struct ExtraListener<'a> {
    listener: TcpListener,
    factory: &'a dyn DriverFactory,
}

impl<'a> ExtraListener<'a> {
    /// Wrap an already-bound listener.
    pub fn new(listener: TcpListener, factory: &'a dyn DriverFactory) -> ExtraListener<'a> {
        ExtraListener { listener, factory }
    }

    /// Bind `addr` (port 0 picks a free port) for `factory`'s protocol.
    pub fn bind(addr: &str, factory: &'a dyn DriverFactory) -> io::Result<ExtraListener<'a>> {
        Ok(ExtraListener {
            listener: TcpListener::bind(addr)?,
            factory,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }
}

/// One queued wire answer, in request order.
enum Outgoing {
    /// Pre-encoded frame body (the hello-ack).
    Raw(Vec<u8>),
    /// A response known immediately (errors, overload, stats, metrics,
    /// shutting-down), encoded when it reaches the head of the queue.
    Ready(Box<Response>, Proto),
    /// A pool-worker slot; encoded under its protocol once filled.
    Slot(Arc<ResponseSlot>, Proto),
}

/// The length-prefixed wire protocol as a [`ConnDriver`]: hello
/// negotiation, magic-byte codec sniffing, queue-bypassing
/// `stats`/`metrics`, bounded admission for the rest.
struct WireDriver {
    max_frame: usize,
    frames: FrameReader,
    proto: Proto,
    outq: VecDeque<Outgoing>,
    decode_ns: Arc<Histogram>,
    encode_ns: Arc<Histogram>,
}

impl WireDriver {
    fn new(max_frame: usize, decode_ns: Arc<Histogram>, encode_ns: Arc<Histogram>) -> WireDriver {
        WireDriver {
            max_frame,
            frames: FrameReader::new(),
            proto: Proto::default(),
            outq: VecDeque::new(),
            decode_ns,
            encode_ns,
        }
    }

    /// The dispatch table for one decoded frame.
    fn process_frame(&mut self, body: &[u8], cx: &mut DriverCx<'_>) {
        if let Some(hello) = binwire::parse_hello(body) {
            match hello {
                Ok(proto) => {
                    self.proto = proto;
                    self.outq
                        .push_back(Outgoing::Raw(binwire::hello_ack(proto)));
                }
                Err(e) => self.outq.push_back(Outgoing::Ready(
                    Box::new(Response::Error {
                        message: format!("bad hello: {e}"),
                    }),
                    self.proto,
                )),
            }
            return;
        }
        let stats = cx.handler().serve_stats();
        stats.on_received();
        let started = Instant::now();
        let decoded = binwire::sniff_request(body);
        self.decode_ns.record(started.elapsed().as_nanos() as u64);
        let request = match decoded {
            Ok(request) => request,
            Err(message) => {
                self.outq.push_back(Outgoing::Ready(
                    Box::new(Response::Error {
                        message: format!("bad request: {message}"),
                    }),
                    self.proto,
                ));
                return;
            }
        };
        match request.dispatch() {
            Dispatch::Shutdown => {
                stats.on_completed(false);
                self.outq.push_back(Outgoing::Ready(
                    Box::new(Response::ShuttingDown),
                    self.proto,
                ));
                cx.begin_shutdown();
            }
            Dispatch::Telemetry => {
                // Queue-bypassing telemetry: must answer even when the
                // admission queue is saturated.
                let response = cx.answer_inline(&request);
                stats.on_completed(matches!(response, Response::Error { .. }));
                self.outq
                    .push_back(Outgoing::Ready(Box::new(response), self.proto));
            }
            Dispatch::Point(_) | Dispatch::Scatter => match cx.submit(request) {
                Ok(slot) => self.outq.push_back(Outgoing::Slot(slot, self.proto)),
                Err(SubmitError::Overloaded) => self
                    .outq
                    .push_back(Outgoing::Ready(Box::new(Response::Overloaded), self.proto)),
                Err(SubmitError::Closed) => {
                    self.outq.push_back(Outgoing::Ready(
                        Box::new(Response::ShuttingDown),
                        self.proto,
                    ));
                    cx.close_after_flush();
                }
            },
        }
    }
}

impl ConnDriver for WireDriver {
    fn on_bytes(&mut self, bytes: &[u8], cx: &mut DriverCx<'_>) {
        self.frames.feed(bytes);
        while let Some(event) = self.frames.next(self.max_frame) {
            match event {
                FrameEvent::Frame(body) => {
                    self.process_frame(&body, cx);
                    if cx.closing() {
                        return;
                    }
                }
                FrameEvent::Oversized(len) => {
                    // The stream is desynchronized past this point:
                    // answer, flush, hang up.
                    cx.handler().serve_stats().on_received();
                    self.outq.push_back(Outgoing::Ready(
                        Box::new(Response::Error {
                            message: format!(
                                "oversized frame: {len} bytes (max {})",
                                self.max_frame
                            ),
                        }),
                        self.proto,
                    ));
                    cx.close_after_flush();
                    return;
                }
                // `FrameReader::next` never reports stream conditions.
                FrameEvent::Eof | FrameEvent::Idle => unreachable!(),
            }
        }
    }

    fn on_eof(&mut self, _cx: &mut DriverCx<'_>) {
        // A partial frame at EOF is simply dropped; answers already
        // queued still flush.
    }

    fn pump(&mut self, cx: &mut DriverCx<'_>) {
        loop {
            let (response, proto) = match self.outq.front() {
                None => return,
                Some(Outgoing::Raw(_)) => {
                    let Some(Outgoing::Raw(body)) = self.outq.pop_front() else {
                        unreachable!()
                    };
                    let mut buf = cx.buf();
                    buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
                    buf.extend_from_slice(&body);
                    cx.send(buf);
                    continue;
                }
                Some(Outgoing::Ready(..)) => {
                    let Some(Outgoing::Ready(response, proto)) = self.outq.pop_front() else {
                        unreachable!()
                    };
                    (*response, proto)
                }
                Some(Outgoing::Slot(slot, proto)) => match slot.try_take() {
                    None => return,
                    Some(response) => {
                        let proto = *proto;
                        self.outq.pop_front();
                        (response, proto)
                    }
                },
            };
            let mut buf = cx.buf();
            let started = Instant::now();
            buf.extend_from_slice(&[0, 0, 0, 0]);
            binwire::response_bytes_into(proto, &response, &mut buf);
            let len = (buf.len() - 4) as u32;
            buf[..4].copy_from_slice(&len.to_be_bytes());
            self.encode_ns.record(started.elapsed().as_nanos() as u64);
            cx.send(buf);
        }
    }

    fn idle(&self) -> bool {
        self.outq.is_empty()
    }
}

/// Per-connection state.
struct Conn<'f> {
    stream: TcpStream,
    fd: SourceFd,
    driver: Box<dyn ConnDriver + 'f>,
    /// Encoded frames awaiting the socket; front may be partially
    /// written (`woff` bytes already gone).
    wq: VecDeque<Vec<u8>>,
    woff: usize,
    want_write: bool,
    /// Stop reading; flush what is queued, then close.
    closing: bool,
    /// Unusable (write error / reset); drop without flushing.
    dead: bool,
}

impl Conn<'_> {
    fn drained(&self) -> bool {
        self.driver.idle() && self.wq.is_empty()
    }
}

/// Run the readiness loop until shutdown. Pool workers must already be
/// draining `queue`; the caller closes the queue after this returns
/// (the loop also closes it when a `shutdown` request arrives, which is
/// what lets pending slots fill during the drain phase). Connections on
/// `listener` speak the wire protocol; each entry in `extras` accepts
/// with its own driver.
pub(crate) fn drive<'f, H: Handler>(
    listener: &TcpListener,
    service: &H,
    queue: &Queue,
    config: &ServeConfig,
    extras: &'f [ExtraListener<'f>],
) -> io::Result<()> {
    let poller = Poller::new()?;
    let waker = Arc::new(Waker::new()?);
    #[cfg(unix)]
    poller.register(waker.fd(), TOKEN_WAKER, Interest::READ)?;

    let mut listeners: Vec<&TcpListener> = Vec::with_capacity(1 + extras.len());
    listeners.push(listener);
    for extra in extras {
        listeners.push(&extra.listener);
    }
    for (i, l) in listeners.iter().enumerate() {
        l.set_nonblocking(true)?;
        poller.register(source_fd(*l), TOKEN_LISTENERS + i, Interest::READ)?;
    }

    let r = hft_obs::global();
    let mut ev = EvLoop {
        service,
        queue,
        max_frame: config.max_frame,
        extras,
        token_base: TOKEN_LISTENERS + listeners.len(),
        poller,
        waker,
        conns: Vec::new(),
        pool: BufPool::new(),
        decode_ns: r.histogram("serve.decode_ns"),
        encode_ns: r.histogram("serve.encode_ns"),
        shutting_down: false,
    };

    let mut events = Vec::new();
    let mut accept_ready = vec![false; listeners.len()];
    loop {
        let timeout = if ev.shutting_down {
            Duration::from_millis(10)
        } else {
            Duration::from_millis(500)
        };
        ev.poller.wait(&mut events, Some(timeout))?;

        accept_ready.iter_mut().for_each(|a| *a = false);
        for event in &events {
            match event.token {
                TOKEN_WAKER => ev.waker.drain(),
                t if t < ev.token_base => accept_ready[t - TOKEN_LISTENERS] = true,
                t => ev.on_conn_event(t - ev.token_base, event.readable),
            }
        }
        if !ev.shutting_down {
            for (i, ready) in accept_ready.iter().enumerate() {
                if *ready {
                    ev.accept_all(i, listeners[i])?;
                }
            }
        }
        // Pump unconditionally: slots may have filled (waker), writes
        // may have unblocked, reads may have queued answers.
        for idx in 0..ev.conns.len() {
            ev.pump_conn(idx);
        }
        ev.reap();
        if ev.shutting_down && ev.conns.iter().flatten().all(Conn::drained) {
            break;
        }
    }
    Ok(())
}

struct EvLoop<'a, 'f, H: Handler> {
    service: &'a H,
    queue: &'a Queue,
    max_frame: usize,
    extras: &'f [ExtraListener<'f>],
    token_base: usize,
    poller: Poller,
    waker: Arc<Waker>,
    conns: Vec<Option<Conn<'f>>>,
    pool: BufPool,
    decode_ns: Arc<Histogram>,
    encode_ns: Arc<Histogram>,
    shutting_down: bool,
}

impl<'f, H: Handler> EvLoop<'_, 'f, H> {
    /// Materialize a [`DriverCx`] over the loop + one connection, run a
    /// driver callback, then apply its lifecycle outcomes.
    fn with_cx<R>(
        &mut self,
        conn: &mut Conn<'f>,
        f: impl FnOnce(&mut (dyn ConnDriver + 'f), &mut DriverCx<'_>) -> R,
    ) -> R {
        let handler: &dyn Handler = self.service;
        let mut cx = DriverCx {
            handler,
            queue: self.queue,
            waker: &self.waker,
            pool: &mut self.pool,
            wq: &mut conn.wq,
            close: false,
            shutdown: false,
        };
        let result = f(conn.driver.as_mut(), &mut cx);
        let close = cx.close;
        let shutdown = cx.shutdown;
        if close {
            conn.closing = true;
        }
        if shutdown {
            self.begin_shutdown();
        }
        result
    }

    fn accept_all(&mut self, li: usize, listener: &TcpListener) -> io::Result<()> {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => self.install(li, stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn install(&mut self, li: usize, stream: TcpStream) {
        if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
            return;
        }
        let driver: Box<dyn ConnDriver + 'f> = if li == 0 {
            Box::new(WireDriver::new(
                self.max_frame,
                Arc::clone(&self.decode_ns),
                Arc::clone(&self.encode_ns),
            ))
        } else {
            self.extras[li - 1].factory.new_conn()
        };
        let fd = source_fd(&stream);
        let idx = match self.conns.iter().position(Option::is_none) {
            Some(idx) => idx,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        if self
            .poller
            .register(fd, idx + self.token_base, Interest::READ)
            .is_err()
        {
            return;
        }
        self.conns[idx] = Some(Conn {
            stream,
            fd,
            driver,
            wq: VecDeque::new(),
            woff: 0,
            want_write: false,
            closing: false,
            dead: false,
        });
    }

    fn on_conn_event(&mut self, idx: usize, readable: bool) {
        let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        if readable && !conn.closing && !conn.dead {
            self.read_conn(&mut conn);
        }
        // Writability is handled by the unconditional pump pass.
        self.conns[idx] = Some(conn);
    }

    /// Read every byte currently available and feed it to the driver.
    fn read_conn(&mut self, conn: &mut Conn<'f>) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if conn.closing {
                return;
            }
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    self.with_cx(conn, |driver, cx| driver.on_eof(cx));
                    conn.closing = true;
                    return;
                }
                Ok(n) => {
                    self.with_cx(conn, |driver, cx| driver.on_bytes(&chunk[..n], cx));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Read errors still flush queued answers.
                    conn.closing = true;
                    return;
                }
            }
        }
    }

    fn begin_shutdown(&mut self) {
        if self.shutting_down {
            return;
        }
        self.shutting_down = true;
        // Pending jobs still drain; new submissions answer ShuttingDown.
        self.queue.close();
        // Stop reading everywhere; what is queued still flushes.
        for conn in self.conns.iter_mut().flatten() {
            conn.closing = true;
        }
    }

    /// Let the driver encode what is ready, then write as much as the
    /// socket accepts.
    fn pump_conn(&mut self, idx: usize) {
        let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        if !conn.dead {
            self.with_cx(&mut conn, |driver, cx| driver.pump(cx));
            self.flush_writes(&mut conn, idx);
        }
        self.conns[idx] = Some(conn);
    }

    fn flush_writes(&mut self, conn: &mut Conn<'f>, idx: usize) {
        loop {
            if conn.wq.is_empty() {
                if conn.want_write {
                    conn.want_write = false;
                    let _ = self
                        .poller
                        .modify(conn.fd, idx + self.token_base, Interest::READ);
                }
                return;
            }
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOVECS.min(conn.wq.len()));
            let mut iter = conn.wq.iter();
            let front = iter.next().expect("nonempty wq");
            slices.push(IoSlice::new(&front[conn.woff..]));
            for buf in iter.take(MAX_IOVECS - 1) {
                slices.push(IoSlice::new(buf));
            }
            match (&conn.stream).write_vectored(&slices) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(mut wrote) => {
                    while wrote > 0 {
                        let remaining = conn.wq[0].len() - conn.woff;
                        if wrote >= remaining {
                            wrote -= remaining;
                            conn.woff = 0;
                            let done = conn.wq.pop_front().expect("nonempty wq");
                            self.pool.put(done);
                        } else {
                            conn.woff += wrote;
                            wrote = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ = self.poller.modify(
                            conn.fd,
                            idx + self.token_base,
                            Interest::READ_WRITE,
                        );
                    }
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Drop dead connections and closing connections that have fully
    /// flushed, recycling their buffers.
    fn reap(&mut self) {
        for idx in 0..self.conns.len() {
            let done = match &self.conns[idx] {
                Some(conn) => conn.dead || (conn.closing && conn.drained()),
                None => false,
            };
            if done {
                let conn = self.conns[idx].take().expect("conn present");
                let _ = self.poller.deregister(conn.fd, idx + self.token_base);
                for buf in conn.wq {
                    self.pool.put(buf);
                }
                // `conn.stream` drops here, closing the socket.
            }
        }
    }
}
