//! Minimal OS readiness layer: `epoll` on Linux, `poll(2)` everywhere
//! else — both via hand-rolled `extern "C"` declarations against the
//! platform libc that `std` already links, so the crate stays
//! zero-dependency.
//!
//! The surface is deliberately tiny: a [`Poller`] registers file
//! descriptors under integer tokens with read/write interest and
//! reports [`Event`]s, level-triggered on both backends so the event
//! loop never has to drain a socket to exhaustion in one pass.
//! `EINTR` is normalised to an empty wakeup (the serve loop installs
//! signal handlers, so interrupted waits are routine, not errors).

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_void};
use std::time::Duration;

/// Readiness interest / report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Caller-chosen registration token.
    pub token: u64,
    /// Readable (or peer-closed, which reads as EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// What to watch a registered descriptor for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake on readable.
    pub read: bool,
    /// Wake on writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
}

/// A level-triggered readiness poller over one of the two backends.
pub enum Poller {
    /// Linux `epoll(7)`.
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    /// Portable `poll(2)` (also selectable on Linux for coverage).
    Poll(portable::PollSet),
}

impl Poller {
    /// Creates the platform's preferred backend: epoll on Linux,
    /// poll(2) elsewhere. `force_poll` selects poll(2) everywhere —
    /// tests use it so both backends stay honest on Linux CI.
    pub fn new(force_poll: bool) -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            if !force_poll {
                return Ok(Poller::Epoll(epoll::Epoll::new()?));
            }
        }
        let _ = force_poll;
        Ok(Poller::Poll(portable::PollSet::new()))
    }

    /// Backend name, for logs and tests.
    pub fn backend(&self) -> &'static str {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
            Poller::Poll(_) => "poll",
        }
    }

    /// Starts watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.register(fd, token, interest),
            Poller::Poll(p) => p.register(fd, token, interest),
        }
    }

    /// Changes the interest set of an already-watched `fd`.
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.reregister(fd, token, interest),
            Poller::Poll(p) => p.reregister(fd, token, interest),
        }
    }

    /// Stops watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.deregister(fd),
            Poller::Poll(p) => p.deregister(fd),
        }
    }

    /// Blocks until at least one event, the timeout, or a signal
    /// (`EINTR` returns an empty batch). `None` waits forever.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.wait(events, timeout),
            Poller::Poll(p) => p.wait(events, timeout),
        }
    }
}

/// Milliseconds for the C timeout argument: `-1` = infinite, rounded
/// *up* so a 100µs deadline doesn't busy-spin as 0ms.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        Some(d) => {
            let ms = d.as_millis() + u128::from(d.as_nanos() % 1_000_000 != 0);
            ms.clamp(1, c_int::MAX as u128) as c_int
        }
    }
}

/// Linux epoll backend.
#[cfg(target_os = "linux")]
pub mod epoll {
    use super::*;

    // The kernel UAPI packs epoll_event on x86_64 only.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: c_int = 0x80000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut c_void) -> c_int;
        fn epoll_wait(epfd: c_int, events: *mut c_void, maxevents: c_int, timeout: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// An epoll instance plus its reusable event buffer.
    pub struct Epoll {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.read {
            m |= EPOLLIN;
        }
        if interest.write {
            m |= EPOLLOUT;
        }
        m
    }

    impl Epoll {
        pub(super) fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers and has no
            // memory-safety preconditions; a negative return is handled
            // below, any other value is a fresh fd this Epoll owns.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, ev: Option<&mut EpollEvent>) -> io::Result<()> {
            let ptr = ev
                .map(|e| e as *mut EpollEvent as *mut c_void)
                .unwrap_or(std::ptr::null_mut());
            // SAFETY: self.epfd is the live epoll fd this value owns
            // (closed only in Drop). `ptr` is null — which EPOLL_CTL_DEL
            // accepts — or points at an EpollEvent borrowed for the
            // whole call, laid out as the kernel's struct epoll_event
            // (repr(C), packed on x86_64); the kernel reads it during
            // the call and keeps no reference to it.
            if unsafe { epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_ADD, fd, Some(&mut ev))
        }

        pub(super) fn reregister(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_MOD, fd, Some(&mut ev))
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        pub(super) fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            // SAFETY: self.epfd is the live epoll fd this value owns;
            // `buf` is a live Vec of buf.len() EpollEvents and maxevents
            // is that length, so the kernel writes at most buf.len()
            // entries inside it. EpollEvent is plain data (any bytes are
            // a valid value), and only the first n entries are read.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr() as *mut c_void,
                    self.buf.len() as c_int,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(()); // signal: surface as empty wakeup
                }
                return Err(e);
            }
            for ev in &self.buf[..n as usize] {
                // Copy the packed fields out before touching them.
                let events = ev.events;
                let data = ev.data;
                out.push(Event {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: Drop runs once and this value is the only owner
            // of epfd, so the fd is open here and never closed twice (a
            // second close could hit an fd number reused elsewhere).
            unsafe { close(self.epfd) };
        }
    }
}

/// Portable `poll(2)` backend.
pub mod portable {
    use super::*;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;

    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = u32;

    extern "C" {
        fn poll(fds: *mut c_void, nfds: NFds, timeout: c_int) -> c_int;
    }

    /// A registered-descriptor table re-polled on every wait.
    pub struct PollSet {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    }

    fn mask(interest: Interest) -> i16 {
        let mut m = 0;
        if interest.read {
            m |= POLLIN;
        }
        if interest.write {
            m |= POLLOUT;
        }
        m
    }

    impl PollSet {
        pub(super) fn new() -> PollSet {
            PollSet {
                fds: Vec::new(),
                tokens: Vec::new(),
            }
        }

        fn position(&self, fd: RawFd) -> Option<usize> {
            self.fds.iter().position(|p| p.fd == fd)
        }

        pub(super) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            if self.position(fd).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.fds.push(PollFd {
                fd,
                events: mask(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub(super) fn reregister(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let i = self
                .position(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds[i].events = mask(interest);
            self.tokens[i] = token;
            Ok(())
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self
                .position(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            Ok(())
        }

        pub(super) fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            for p in &mut self.fds {
                p.revents = 0;
            }
            // SAFETY: `fds` is a live Vec of fds.len() PollFds, laid
            // out as struct pollfd (repr(C)), and nfds is that length;
            // the kernel reads the entries and writes only their
            // `revents` fields, all inside the Vec, during the call.
            let n = unsafe {
                poll(
                    self.fds.as_mut_ptr() as *mut c_void,
                    self.fds.len() as NFds,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (p, &token) in self.fds.iter().zip(&self.tokens) {
                if p.revents == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: p.revents & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: p.revents & (POLLOUT | POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

// ------------------------------------------------------------- signals

/// Process-level shutdown flag raised by SIGINT/SIGTERM once
/// [`install_shutdown_handler`](signal::install_shutdown_handler)
/// has run.
pub mod signal {
    use super::c_int;
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_sig: c_int) {
        // async-signal-safe: a single relaxed store
        SHUTDOWN.store(true, Ordering::Relaxed);
    }

    /// Routes SIGINT and SIGTERM to a flag the serve loop polls, so a
    /// Ctrl-C turns into a graceful drain instead of process death.
    pub fn install_shutdown_handler() {
        // SAFETY: `on_signal` is a 'static extern "C" fn(c_int), the
        // handler type signal(2) expects, passed by address as a
        // sighandler_t; its body is one relaxed atomic store, which is
        // async-signal-safe. The previous handlers are discarded.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    /// Whether a shutdown signal has arrived.
    pub fn shutdown_requested() -> bool {
        SHUTDOWN.load(Ordering::Relaxed)
    }

    /// Raises the flag programmatically (tests; also lets an in-process
    /// controller request the same drain path as a signal).
    pub fn request_shutdown() {
        SHUTDOWN.store(true, Ordering::Relaxed);
    }

    /// Clears the flag (tests only — the serve loop runs once).
    pub fn reset() {
        SHUTDOWN.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn backend_smoke(force_poll: bool) {
        let mut poller = Poller::new(force_poll).unwrap();
        let (mut a, mut b) = UnixStream::pair().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();

        // Nothing readable yet: bounded wait returns empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        a.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        let mut byte = [0u8; 1];
        b.read_exact(&mut byte).unwrap();

        // Write interest on an idle socket reports writable.
        poller
            .reregister(b.as_raw_fd(), 7, Interest::READ_WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        // Peer hangup surfaces as readable (EOF).
        drop(a);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        poller.deregister(b.as_raw_fd()).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_backend_works() {
        let p = Poller::new(false).unwrap();
        assert_eq!(p.backend(), "epoll");
        backend_smoke(false);
    }

    #[test]
    fn poll_backend_works() {
        let p = Poller::new(true).unwrap();
        assert_eq!(p.backend(), "poll");
        backend_smoke(true);
    }

    #[test]
    fn poll_register_twice_rejected() {
        let mut p = Poller::new(true).unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        p.register(a.as_raw_fd(), 1, Interest::READ).unwrap();
        assert!(p.register(a.as_raw_fd(), 2, Interest::READ).is_err());
    }

    #[test]
    fn shutdown_flag_roundtrip() {
        signal::reset();
        assert!(!signal::shutdown_requested());
        signal::request_shutdown();
        assert!(signal::shutdown_requested());
        signal::reset();
    }
}
