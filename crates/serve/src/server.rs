//! The TCP transport: a server wrapping a [`Handler`] behind the
//! length-prefixed wire protocol, plus a blocking client.
//!
//! Every connection is multiplexed on one readiness loop (see
//! [`crate::evloop`]) in front of a bounded worker pool. Connections
//! start in JSON and may switch to the binary protocol with a hello
//! frame (see [`crate::binwire`]). Ordering under overload is preserved
//! by queueing an already-answered `Overloaded` entry in arrival
//! position, and `stats`/`metrics`/`shutdown` requests bypass the
//! admission queue — they must work precisely when the queue is full.
//!
//! Shutdown is a protocol message, not a signal: any client may send
//! `shutdown`, which stops the accept loop, closes the queue (pending
//! jobs still drain), and lets every thread unwind cleanly.

use crate::api::{Request, Response};
use crate::binwire::{self, Proto};
use crate::evloop::ExtraListener;
use crate::pool::Queue;
use crate::service::Handler;
use crate::stats::ServeSnapshot;
use crate::wire::{self, FrameEvent, FrameReader};
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:4710` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Admission queue depth; submissions beyond this answer `Overloaded`.
    pub queue_depth: usize,
    /// Maximum accepted frame body size in bytes.
    pub max_frame: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:4710".to_string(),
            workers: 4,
            queue_depth: 64,
            max_frame: wire::DEFAULT_MAX_FRAME,
        }
    }
}

/// A bound, not-yet-running server. Splitting bind from run lets tests
/// bind port 0 and learn the real address before spawning clients.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
}

impl Server {
    /// Bind the listening socket.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server { listener, config })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve with any [`Handler`] — a [`ShardRouter`](crate::ShardRouter)
    /// or a bare [`Service`](crate::Service) — until a `shutdown`
    /// request arrives, then drain and return the final serving-layer
    /// counters.
    pub fn run_with<H: Handler>(&self, service: &H) -> io::Result<ServeSnapshot> {
        self.run_with_extras(service, &[])
    }

    /// [`Server::run_with`], multiplexing additional protocol listeners
    /// (e.g. an HTTP explorer) on the same readiness loop, worker pool,
    /// and admission queue: workers drain the queue while this thread
    /// runs the loop.
    pub fn run_with_extras<H: Handler>(
        &self,
        service: &H,
        extras: &[ExtraListener<'_>],
    ) -> io::Result<ServeSnapshot> {
        let queue = Queue::new(self.config.queue_depth);
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers.max(1) {
                scope.spawn(|| queue.worker(service));
            }
            let r = crate::evloop::drive(&self.listener, service, &queue, &self.config, extras);
            // Closed by the loop on protocol shutdown; close again here
            // so workers also exit on an accept/poll error path.
            queue.close();
            r
        })?;
        Ok(service.serve_snapshot())
    }
}

/// A blocking wire client, usable serially (`call`) or pipelined
/// (`send*`/`flush`/`recv`), speaking either wire codec.
pub struct Client {
    writer: BufWriter<TcpStream>,
    reader: TcpStream,
    frames: FrameReader,
    max_frame: usize,
    proto: Proto,
}

impl Client {
    /// Connect to a running server, speaking JSON.
    pub fn connect(addr: &SocketAddr) -> io::Result<Client> {
        Client::connect_with(addr, Proto::Json)
    }

    /// Connect and negotiate `proto`. For [`Proto::Binary`] this sends
    /// the hello frame and blocks for the server's acknowledgement, so
    /// a returned client is fully switched over.
    pub fn connect_with(addr: &SocketAddr, proto: Proto) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        let mut client = Client {
            writer: BufWriter::new(stream),
            reader,
            frames: FrameReader::new(),
            max_frame: wire::DEFAULT_MAX_FRAME,
            proto: Proto::Json,
        };
        if proto != Proto::Json {
            wire::write_frame(&mut client.writer, &binwire::hello(proto))?;
            client.writer.flush()?;
            let ack = client.recv_frame()?;
            let granted = binwire::parse_hello_ack(&ack)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if granted != proto {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "server granted {} instead of {}",
                        granted.name(),
                        proto.name()
                    ),
                ));
            }
            client.proto = proto;
        }
        Ok(client)
    }

    /// The protocol this client speaks.
    pub fn proto(&self) -> Proto {
        self.proto
    }

    /// Queue a request without flushing (pipelining).
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        wire::write_frame(
            &mut self.writer,
            &binwire::request_bytes(self.proto, request),
        )
    }

    /// Flush queued requests to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        loop {
            match self.frames.read_from(&mut self.reader, self.max_frame)? {
                FrameEvent::Frame(body) => return Ok(body),
                FrameEvent::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                FrameEvent::Oversized(len) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("oversized response frame: {len} bytes"),
                    ));
                }
                FrameEvent::Idle => continue,
            }
        }
    }

    /// Block until the next response arrives.
    pub fn recv(&mut self) -> io::Result<Response> {
        let body = self.recv_frame()?;
        binwire::response_from(self.proto, &body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// One serial round trip: send, flush, await the response.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.flush()?;
        self.recv()
    }
}
