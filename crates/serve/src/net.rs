//! Readiness polling over direct `extern "C"` epoll bindings.
//!
//! The event-driven front-end ([`crate::http`]) needs one thing from the
//! OS: "tell me which of these sockets are readable/writable". The build
//! environment has no `libc` crate (same constraint as the `mmap(2)`
//! binding in `slide-data`), so this module binds
//! `epoll_create1`/`epoll_ctl`/`epoll_wait` directly: O(ready) wakeups,
//! the backend that carries the 10K-connection target. 64-bit Linux is
//! the one supported platform; any other target fails to compile here.
//!
//! Polling is **level-triggered**: an event keeps firing while the
//! condition holds, so the owner may leave bytes unread without losing
//! the wakeup. A [`Waker`] lets other threads (the acceptor, the batch
//! workers' completion callbacks) interrupt a blocked [`Poller::wait`]
//! through a socketpair.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("slide-serve binds epoll(7) directly and supports only 64-bit Linux");

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::c_int;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// One readiness notification from [`Poller::wait`].
///
/// Errors and hangups are folded into `readable`: the owner's next read
/// observes the EOF/error directly, which keeps the state machine in one
/// place instead of duplicating the close path per flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// The descriptor is readable (or at EOF / in error).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
}

/// The raw descriptor of a stream, for [`Poller`] registration.
pub fn raw_fd(stream: &TcpStream) -> RawFd {
    stream.as_raw_fd()
}

mod ep {
    use std::os::raw::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;

    // The kernel ABI packs epoll_event on x86-64 (and only there),
    // so the u64 payload sits at offset 4.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

/// A readiness poller (one epoll instance) owned by one event-loop
/// thread.
///
/// Registration methods take `&mut self`: the poller is not a shared
/// object — cross-thread wakeups go through a [`Waker`], never through
/// concurrent registration.
pub struct Poller {
    /// The epoll instance; `OwnedFd` closes it on drop.
    epfd: OwnedFd,
    buf: Vec<ep::EpollEvent>,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("epfd", &self.epfd.as_raw_fd())
            .finish()
    }
}

impl Poller {
    /// Opens an epoll instance.
    ///
    /// # Errors
    ///
    /// Returns the `epoll_create1` error.
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { ep::epoll_create1(ep::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            // SAFETY: fd was just returned by epoll_create1 and is owned
            // by nobody else.
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
            buf: vec![ep::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        let mut ev = ep::EpollEvent {
            events: (if read { ep::EPOLLIN } else { 0 }) | (if write { ep::EPOLLOUT } else { 0 }),
            data: token,
        };
        // SAFETY: epfd and fd are live descriptors; ev outlives the call.
        let rc = unsafe { ep::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Starts watching `fd` under `token` for the given interests.
    ///
    /// # Errors
    ///
    /// Returns the `epoll_ctl` error.
    pub fn register(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(ep::EPOLL_CTL_ADD, fd, token, read, write)
    }

    /// Changes the interests (and token) of a registered `fd`.
    ///
    /// # Errors
    ///
    /// Returns the `epoll_ctl` error.
    pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(ep::EPOLL_CTL_MOD, fd, token, read, write)
    }

    /// Stops watching `fd`. Must be called before the descriptor is
    /// closed (epoll would otherwise keep a kernel-side reference).
    ///
    /// # Errors
    ///
    /// Returns the `epoll_ctl` error.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(ep::EPOLL_CTL_DEL, fd, 0, false, false)
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` passes (`None` blocks indefinitely), appending the
    /// ready set to `out`. A signal interruption returns normally
    /// with no events.
    ///
    /// # Errors
    ///
    /// Returns the `epoll_wait` error.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let millis = match timeout {
            // Round up so a 100µs timeout polls for 1ms instead of
            // busy-spinning at 0.
            Some(t) => c_int::try_from(
                t.as_millis()
                    .max(u128::from(t.subsec_nanos() % 1_000_000 != 0)),
            )
            .unwrap_or(c_int::MAX),
            None => -1,
        };
        // SAFETY: buf holds buf.len() valid events for the kernel to
        // fill.
        let n = unsafe {
            ep::epoll_wait(
                self.epfd.as_raw_fd(),
                self.buf.as_mut_ptr(),
                self.buf.len() as c_int,
                millis,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in &self.buf[..n as usize] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (ep::EPOLLIN | ep::EPOLLERR | ep::EPOLLHUP) != 0,
                writable: bits & (ep::EPOLLOUT | ep::EPOLLERR | ep::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Cross-thread wakeup.

/// The sending half of a wakeup channel: any thread may call
/// [`Waker::wake`] to make the owning event loop's [`Poller::wait`]
/// return.
pub struct Waker {
    tx: UnixStream,
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker").finish()
    }
}

impl Waker {
    /// Creates a connected waker pair; register the receiver's fd in
    /// the poller and drain it when its token fires.
    ///
    /// # Errors
    ///
    /// Returns the socketpair error.
    pub fn pair() -> io::Result<(Waker, WakeReceiver)> {
        let (tx, rx) = UnixStream::pair()?;
        // Nonblocking on both ends: a full buffer just means a wakeup is
        // already pending, and the drain must not block the loop.
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, WakeReceiver { rx }))
    }

    /// Makes the paired receiver's poller readable. Idempotent while a
    /// wakeup is pending; never blocks.
    pub fn wake(&self) {
        // WouldBlock means the buffer already holds unread wakeup bytes
        // — the loop is waking regardless.
        let _ = (&self.tx).write(&[1]);
    }
}

/// The receiving half of a wakeup channel, owned by the event loop.
pub struct WakeReceiver {
    rx: UnixStream,
}

impl std::fmt::Debug for WakeReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WakeReceiver").finish()
    }
}

impl WakeReceiver {
    /// The descriptor to register in the poller.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes all pending wakeup bytes (call when the token fires).
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

// ---------------------------------------------------------------------
// File-descriptor budget.

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: c_int = 7;

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

/// Raises the process's open-file limit toward `want` descriptors and
/// returns the soft limit actually in effect afterwards. The hard limit
/// is raised too when the process has the privilege (root); otherwise
/// the soft limit is clamped to the hard limit. Best-effort by design —
/// a 10K-connection drill calls this first and then trusts the returned
/// budget, not the request.
///
/// # Errors
///
/// Returns the `getrlimit` error; `setrlimit` refusals degrade to the
/// clamped limit instead of failing.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: lim outlives the call.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.cur >= want {
        return Ok(lim.cur);
    }
    if lim.max < want {
        // Raising the hard limit needs privilege; try, keep the old
        // ceiling if refused.
        let bumped = RLimit {
            cur: want,
            max: want,
        };
        // SAFETY: bumped outlives the call.
        if unsafe { setrlimit(RLIMIT_NOFILE, &bumped) } == 0 {
            return Ok(want);
        }
    }
    let clamped = RLimit {
        cur: want.min(lim.max),
        max: lim.max,
    };
    // SAFETY: clamped outlives the call.
    if unsafe { setrlimit(RLIMIT_NOFILE, &clamped) } != 0 {
        return Ok(lim.cur);
    }
    Ok(clamped.cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn readiness_tracks_data_and_interest_changes() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        poller.register(raw_fd(&rx), 7, true, false).unwrap();
        let mut events = Vec::new();

        // Nothing to read yet: a short wait times out empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        tx.write_all(b"ping").unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events
            .iter()
            .find(|e| e.token == 7)
            .expect("readable event");
        assert!(ev.readable);

        // Level-triggered: unread data keeps firing.
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Drain, then switch to write interest: a fresh socket's buffer
        // has room, so writable fires immediately.
        let mut sink = [0u8; 16];
        let _ = rx.read(&mut sink);
        poller.modify(raw_fd(&rx), 7, false, true).unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        poller.deregister(raw_fd(&rx)).unwrap();
        tx.write_all(b"more").unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7));
    }

    #[test]
    fn peer_close_reports_readable() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        poller.register(raw_fd(&rx), 3, true, false).unwrap();
        drop(tx);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        // EOF (and HUP) must surface as readable so the owner's read
        // observes the close.
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let (waker, receiver) = Waker::pair().unwrap();
        poller.register(receiver.fd(), 0, true, false).unwrap();

        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
            waker.wake(); // idempotent while pending
            waker // keep the write end open past the join
        });
        let mut events = Vec::new();
        let t0 = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert!(events.iter().any(|e| e.token == 0 && e.readable));
        // Join first (a drain racing the second wake() would leave a
        // byte behind) and keep the waker alive (dropping it closes the
        // pair, which reads as a permanent HUP).
        let _waker = t.join().unwrap();
        receiver.drain();

        // Drained: the next wait times out quietly.
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 0 || !e.readable));
    }

    #[test]
    fn nofile_limit_is_queryable_and_monotone() {
        // Asking for a tiny budget returns at least that budget (the
        // current limit is never lowered).
        let before = raise_nofile_limit(64).unwrap();
        assert!(before >= 64);
        let again = raise_nofile_limit(64).unwrap();
        assert!(again >= before.min(64));
    }
}
