//! Minimal Linux syscall shim for the epoll reactor — the offline
//! counterpart of the `libc` crate, in the same spirit as the vendored
//! dependency stubs: the build environment has no crates.io access, so
//! the handful of symbols the reactor needs (`epoll_*`, `eventfd`,
//! `signal`, `write`) are declared directly against the C
//! library std already links. Everything std *can* do (nonblocking
//! mode, `TCP_NODELAY`, closing fds via `OwnedFd`/`File` drops) goes
//! through std; this module only covers what std has no API for.
//!
//! All wrappers are safe functions with the `unsafe` confined to the
//! FFI call itself; errors surface as [`std::io::Error`] from `errno`.

use std::fs::File;
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

// Readiness bits (linux/eventpoll.h).
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const EFD_CLOEXEC: c_int = 0o2000000;
const SIGTERM: c_int = 15;
const EINTR: i32 = 4;

/// One `struct epoll_event`. The kernel ABI packs it on x86-64 (12
/// bytes, unaligned `data`); other architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-state bit set (`EPOLL*`).
    pub events: u32,
    /// The user token registered with the fd.
    pub data: u64,
}

// The layout the kernel reads and writes: a target where this struct
// comes out differently fails to build here instead of corrupting events.
#[cfg(target_arch = "x86_64")]
const _: () = {
    assert!(std::mem::size_of::<EpollEvent>() == 12);
    assert!(std::mem::offset_of!(EpollEvent, data) == 4);
};
#[cfg(not(target_arch = "x86_64"))]
const _: () = {
    assert!(std::mem::size_of::<EpollEvent>() == 16);
    assert!(std::mem::offset_of!(EpollEvent, data) == 8);
};

impl EpollEvent {
    /// An empty slot for the `epoll_wait` output buffer.
    pub fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn signal(signum: c_int, handler: usize) -> usize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

fn cvt(ret: c_int) -> std::io::Result<c_int> {
    if ret < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance. Closed on drop (via [`OwnedFd`]).
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> std::io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, data: u64) -> std::io::Result<()> {
        let mut ev = EpollEvent { events, data };
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) }).map(|_| ())
    }

    /// Register `fd` with an interest set and a token.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, data)
    }

    /// Change an already-registered fd's interest set.
    pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, data)
    }

    /// Deregister `fd`.
    pub fn delete(&self, fd: RawFd) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for readiness. `timeout_ms < 0` blocks indefinitely. A
    /// signal-interrupted wait reports zero events instead of an error
    /// (the caller's loop re-checks its shutdown flag either way).
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = std::io::Error::last_os_error();
            if err.raw_os_error() == Some(EINTR) {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

/// A nonblocking eventfd: the reactor's wakeup channel. Worker threads
/// (and the SIGTERM handler) `notify` it; the reactor registers it in
/// epoll and `drain`s it on readiness.
pub struct EventFd {
    file: File,
}

impl EventFd {
    /// `eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)`.
    pub fn new() -> std::io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
        Ok(EventFd {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    /// The raw fd, for epoll registration (and the signal handler).
    pub fn raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Bump the counter, waking any `epoll_wait` watching it. Best
    /// effort: an overflowing counter (EAGAIN) is already "signalled".
    pub fn notify(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Reset the counter to zero so level-triggered epoll quiesces.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }
}

/// Set once a SIGTERM handler has been installed; the reactor that
/// enabled signal shutdown treats it as its own shutdown flag.
pub static SIGTERM_FLAG: AtomicBool = AtomicBool::new(false);

static SIGTERM_FD: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_sigterm(_sig: c_int) {
    // Async-signal-safe by construction: one atomic store + one
    // write(2) on an eventfd. No allocation, no locks, no std::io.
    SIGTERM_FLAG.store(true, Ordering::SeqCst);
    let fd = SIGTERM_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        let one: u64 = 1;
        let _ = unsafe { write(fd, (&raw const one).cast::<c_void>(), 8) };
    }
}

/// Install a SIGTERM handler that sets [`SIGTERM_FLAG`] and notifies
/// `wakeup_fd` (an eventfd), so a blocked `epoll_wait` observes the
/// request immediately. Process-global: intended for the `birds-serve`
/// binary, which runs exactly one server.
pub fn install_sigterm_notify(wakeup_fd: RawFd) {
    SIGTERM_FD.store(wakeup_fd, Ordering::SeqCst);
    unsafe { signal(SIGTERM, on_sigterm as *const () as usize) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_notify_wakes_epoll_and_drain_quiesces() {
        let epoll = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        epoll.add(efd.raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = vec![EpollEvent::zeroed(); 4];
        // Nothing signalled yet: a zero-timeout wait reports no events.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        efd.notify();
        efd.notify();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (bits, data) = (events[0].events, events[0].data);
        assert_ne!(bits & EPOLLIN, 0);
        assert_eq!(data, 7);

        // One drain resets the counter: the level-triggered fd quiesces.
        efd.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_tracks_interest_modifications() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();

        let epoll = Epoll::new().unwrap();
        let fd = server.as_raw_fd();
        epoll.add(fd, EPOLLIN, 1).unwrap();

        let mut events = vec![EpollEvent::zeroed(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "no data yet");

        (&client).write_all(b"x").unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);

        // Dropping read interest silences the (still readable) fd;
        // write interest reports immediately on an idle socket.
        epoll.modify(fd, 0, 1).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        epoll.modify(fd, EPOLLOUT, 1).unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        let bits = events[0].events;
        assert_ne!(bits & EPOLLOUT, 0);

        epoll.delete(fd).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }
}
