//! A zero-dependency readiness poller: epoll on Linux/x86-64 (raw
//! syscalls — the workspace vendors no libc), and a portable
//! spurious-ready fallback everywhere else.
//!
//! The API is the small slice of `mio` the event loop needs: register a
//! socket under a `usize` token with read/write interest, block in
//! [`Poller::wait`], and get back `(token, readable, writable)` events.
//! The fallback backend reports *every* registered token as ready after
//! a short sleep — spuriously, but correctly: the event loop only ever
//! performs nonblocking reads and writes, so a spurious wake costs one
//! `WouldBlock` syscall, never a stall and never a torn frame.
//!
//! [`Waker`] lets pool workers interrupt a blocked `wait` when they
//! fill a response slot. It is a self-connected nonblocking UDP socket
//! (portable, no pipes, no eventfd) with an atomic arm flag so a burst
//! of completions costs one datagram, and it times the wake-to-drain
//! gap into the `serve.poll_wake_ns` histogram.

use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The raw handle type sockets are registered by.
#[cfg(unix)]
pub type SourceFd = std::os::fd::RawFd;
/// The raw handle type sockets are registered by.
#[cfg(not(unix))]
pub type SourceFd = i64;

/// What readiness a registration cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the socket is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the socket accepts more bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the socket was registered under.
    pub token: usize,
    /// Bytes may be readable (or the peer closed).
    pub readable: bool,
    /// The socket may accept writes.
    pub writable: bool,
}

/// The Linux/x86-64 epoll backend, speaking to the kernel directly:
/// the workspace vendors no libc crate, so `epoll_create1`, `epoll_ctl`,
/// `epoll_wait` and `close` are raw `syscall` instructions. This is the
/// only unsafe code in the crate and it is confined to this module.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod sys {
    use std::io;

    const SYS_CLOSE: u64 = 3;
    const SYS_EPOLL_WAIT: u64 = 232;
    const SYS_EPOLL_CTL: u64 = 233;
    const SYS_EPOLL_CREATE1: u64 = 291;

    pub const EPOLL_CTL_ADD: u64 = 1;
    pub const EPOLL_CTL_DEL: u64 = 2;
    pub const EPOLL_CTL_MOD: u64 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: u64 = 0x80000;

    /// The kernel's epoll_event layout (packed on x86-64).
    #[repr(C, packed)]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// One x86-64 `syscall` instruction. Arguments follow the kernel
    /// convention (rdi, rsi, rdx, r10); rcx/r11 are clobbered by the
    /// instruction itself. A negative return is `-errno`.
    unsafe fn syscall4(nr: u64, a1: u64, a2: u64, a3: u64, a4: u64) -> i64 {
        let ret: i64;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr as i64 => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create1() -> io::Result<i32> {
        // SAFETY: epoll_create1 takes one integer flag and touches no
        // user memory.
        check(unsafe { syscall4(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) }).map(|fd| fd as i32)
    }

    pub fn epoll_ctl(epfd: i32, op: u64, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: the event struct outlives the call; the kernel copies
        // it before returning. DEL ignores the pointer.
        check(unsafe {
            syscall4(
                SYS_EPOLL_CTL,
                epfd as u64,
                op,
                fd as u64,
                &mut ev as *mut EpollEvent as u64,
            )
        })
        .map(|_| ())
    }

    pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the kernel writes at most `events.len()` entries into
        // the buffer we own for the duration of the call.
        check(unsafe {
            syscall4(
                SYS_EPOLL_WAIT,
                epfd as u64,
                events.as_mut_ptr() as u64,
                events.len() as u64,
                timeout_ms as u32 as u64,
            )
        })
        .map(|n| n as usize)
    }

    pub fn close(fd: i32) {
        // SAFETY: closing an fd we own; the result is advisory.
        let _ = unsafe { syscall4(SYS_CLOSE, fd as u64, 0, 0, 0) };
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
struct Backend {
    epfd: i32,
    buf: Mutex<Vec<sys::EpollEvent>>,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl Backend {
    fn new() -> io::Result<Backend> {
        Ok(Backend {
            epfd: sys::epoll_create1()?,
            buf: Mutex::new(vec![sys::EpollEvent::default(); 256]),
        })
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = sys::EPOLLRDHUP;
        if interest.readable {
            m |= sys::EPOLLIN;
        }
        if interest.writable {
            m |= sys::EPOLLOUT;
        }
        m
    }

    fn register(&self, fd: SourceFd, token: usize, interest: Interest) -> io::Result<()> {
        sys::epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            Self::mask(interest),
            token as u64,
        )
    }

    fn modify(&self, fd: SourceFd, token: usize, interest: Interest) -> io::Result<()> {
        sys::epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd,
            Self::mask(interest),
            token as u64,
        )
    }

    fn deregister(&self, fd: SourceFd, _token: usize) -> io::Result<()> {
        sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        let mut buf = self.buf.lock().expect("poll buf");
        let n = match sys::epoll_wait(self.epfd, &mut buf, timeout_ms) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in &buf[..n] {
            let bits = ev.events;
            let hup = bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
            out.push(Event {
                token: ev.data as usize,
                // Errors and hangups surface as readability: the next
                // nonblocking read reports the real condition.
                readable: bits & sys::EPOLLIN != 0 || hup,
                writable: bits & sys::EPOLLOUT != 0,
            });
        }
        Ok(())
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl Drop for Backend {
    fn drop(&mut self) {
        sys::close(self.epfd);
    }
}

/// The portable fallback: no kernel readiness at all. `wait` sleeps
/// ~1 ms and reports every registered token ready for everything it
/// registered interest in. Spurious by design — see the module docs.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
struct Backend {
    registered: Mutex<std::collections::HashMap<usize, Interest>>,
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
impl Backend {
    fn new() -> io::Result<Backend> {
        Ok(Backend {
            registered: Mutex::new(std::collections::HashMap::new()),
        })
    }

    fn register(&self, _fd: SourceFd, token: usize, interest: Interest) -> io::Result<()> {
        self.registered
            .lock()
            .expect("poll reg")
            .insert(token, interest);
        Ok(())
    }

    fn modify(&self, fd: SourceFd, token: usize, interest: Interest) -> io::Result<()> {
        self.register(fd, token, interest)
    }

    fn deregister(&self, _fd: SourceFd, token: usize) -> io::Result<()> {
        self.registered.lock().expect("poll reg").remove(&token);
        Ok(())
    }

    fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let nap = timeout
            .unwrap_or(Duration::from_millis(1))
            .min(Duration::from_millis(1));
        std::thread::sleep(nap);
        for (&token, &interest) in self.registered.lock().expect("poll reg").iter() {
            out.push(Event {
                token,
                readable: interest.readable,
                writable: interest.writable,
            });
        }
        Ok(())
    }
}

/// The readiness poller. See the module docs for backend selection.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// Create a poller.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            backend: Backend::new()?,
        })
    }

    /// Start watching `fd` under `token`.
    pub fn register(&self, fd: SourceFd, token: usize, interest: Interest) -> io::Result<()> {
        self.backend.register(fd, token, interest)
    }

    /// Change the interest set of a registered socket.
    pub fn modify(&self, fd: SourceFd, token: usize, interest: Interest) -> io::Result<()> {
        self.backend.modify(fd, token, interest)
    }

    /// Stop watching `fd` (registered under `token`). Advisory —
    /// closing the socket also works.
    pub fn deregister(&self, fd: SourceFd, token: usize) -> io::Result<()> {
        self.backend.deregister(fd, token)
    }

    /// Block until at least one event, the timeout, or a wake. Events
    /// are appended to `out` (which is cleared first).
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        self.backend.wait(out, timeout)
    }
}

/// Wakes a [`Poller`] blocked in `wait` from another thread.
///
/// Register its [`Waker::fd`] under a reserved token (epoll backend);
/// the fallback backend needs no registration because its `wait` always
/// returns within a millisecond.
pub struct Waker {
    sock: UdpSocket,
    armed: AtomicBool,
    armed_at: Mutex<Option<Instant>>,
    wake_ns: std::sync::Arc<hft_obs::Histogram>,
}

impl Waker {
    /// A waker backed by a self-connected nonblocking UDP socket on
    /// loopback.
    pub fn new() -> io::Result<Waker> {
        let sock = UdpSocket::bind(("127.0.0.1", 0))?;
        sock.connect(sock.local_addr()?)?;
        sock.set_nonblocking(true)?;
        Ok(Waker {
            sock,
            armed: AtomicBool::new(false),
            armed_at: Mutex::new(None),
            wake_ns: hft_obs::global().histogram("serve.poll_wake_ns"),
        })
    }

    /// The raw handle to register with the poller.
    #[cfg(unix)]
    pub fn fd(&self) -> SourceFd {
        use std::os::fd::AsRawFd;
        self.sock.as_raw_fd()
    }

    /// The raw handle to register with the poller.
    #[cfg(not(unix))]
    pub fn fd(&self) -> SourceFd {
        -1
    }

    /// Interrupt the poller. Coalescing: a burst of wakes between two
    /// drains sends one datagram.
    pub fn wake(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) {
            *self.armed_at.lock().expect("waker") = Some(Instant::now());
            // A full (unread) socket buffer still wakes the poller;
            // loopback send cannot meaningfully fail beyond that.
            let _ = self.sock.send(&[1]);
        }
    }

    /// Consume pending wakes; called by the event loop when its token
    /// fires. Records the wake-to-drain latency.
    ///
    /// Empties the socket *before* disarming. The other order loses
    /// wakes for good: a `wake` landing between disarm and the drain
    /// re-arms and sends a datagram the drain then swallows, leaving
    /// the flag set with nothing to wake the poller, so every later
    /// `wake` is a no-op. In this order a `wake` that lands mid-drain
    /// is coalesced into this one, which is safe because the caller
    /// checks for work after draining.
    pub fn drain(&self) {
        let mut buf = [0u8; 16];
        while self.sock.recv(&mut buf).is_ok() {}
        if let Some(at) = self.armed_at.lock().expect("waker").take() {
            self.wake_ns.record(at.elapsed().as_nanos() as u64);
        }
        self.armed.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    #[cfg(unix)]
    fn fd_of(s: &impl std::os::fd::AsRawFd) -> SourceFd {
        s.as_raw_fd()
    }

    #[cfg(unix)]
    #[test]
    fn listener_readability_surfaces() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(fd_of(&listener), 7, Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable) || events.is_empty());

        let _client = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "no accept readiness event");
        }
    }

    #[cfg(unix)]
    #[test]
    fn stream_read_and_write_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(fd_of(&server_side), 3, Interest::READ_WRITE)
            .unwrap();

        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        let (mut saw_read, mut saw_write) = (false, false);
        while !(saw_read && saw_write) {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            for e in &events {
                if e.token == 3 {
                    saw_read |= e.readable;
                    saw_write |= e.writable;
                }
            }
            assert!(Instant::now() < deadline, "missing readiness");
        }

        // Dropping write interest stops writable events (epoll backend;
        // the fallback stays spurious, which is also fine).
        poller
            .modify(fd_of(&server_side), 3, Interest::READ)
            .unwrap();
        let mut buf = [0u8; 8];
        let mut s = &server_side;
        let _ = s.read(&mut buf);
        poller.deregister(fd_of(&server_side), 3).unwrap();
    }

    #[test]
    fn waker_interrupts_wait() {
        let poller = Poller::new().unwrap();
        let waker = Arc::new(Waker::new().unwrap());
        #[cfg(unix)]
        poller.register(waker.fd(), 1, Interest::READ).unwrap();

        let started = Instant::now();
        let w = Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w.wake();
            w.wake(); // coalesced
        });
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            if events.iter().any(|e| e.token == 1 && e.readable) {
                break;
            }
            #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
            if started.elapsed() >= Duration::from_millis(30) {
                break;
            }
            assert!(Instant::now() < deadline, "wake never surfaced");
        }
        waker.drain();
        t.join().unwrap();
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    /// Regression: draining must never latch the waker armed with no
    /// datagram in flight. Wakes hammered from several threads race a
    /// poll-and-drain loop; afterwards one more wake must still
    /// interrupt the poller promptly.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn racing_wakes_never_latch_the_waker() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), 1, Interest::READ).unwrap();
        let stop = AtomicBool::new(false);
        let (drained, drains) = std::sync::mpsc::channel();

        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut events = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    poller
                        .wait(&mut events, Some(Duration::from_millis(20)))
                        .unwrap();
                    if events.iter().any(|e| e.token == 1) {
                        waker.drain();
                        drained.send(()).unwrap();
                    }
                }
            });

            let hammer_until = Instant::now() + Duration::from_millis(300);
            std::thread::scope(|hammers| {
                for _ in 0..3 {
                    hammers.spawn(|| {
                        while Instant::now() < hammer_until {
                            waker.wake();
                        }
                    });
                }
            });

            while drains.try_recv().is_ok() {}
            waker.wake();
            let surfaced = drains.recv_timeout(Duration::from_millis(100)).is_ok();
            stop.store(true, Ordering::Release);
            assert!(surfaced, "a wake after the race never reached the poller");
        });
    }
}
