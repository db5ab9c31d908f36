//! Thin, libc-free Linux syscall shims for event-driven I/O.
//!
//! The workspace is dependency-free beyond std by design, so the epoll
//! readiness API the event-driven server backend needs is reached the same
//! way libc would reach it: raw `syscall` instructions via inline assembly,
//! with the handful of constants and the `epoll_event` layout transcribed
//! from the kernel ABI. Only the calls the server actually uses are
//! wrapped — epoll lifecycle, `close(2)`, `setsockopt(2)` for the
//! socket-buffer shrinking the partial-write tests rely on, and
//! `prlimit64(2)` so benches can read the fd ceiling that bounds the
//! connection-hold phase.
//!
//! The test-only fault-injection lever lives in [`crate::fault`] and is
//! re-exported here as [`fault`]: `epoll_ctl` consults it in this module,
//! and the server backends hook `accept`/`write` at their call sites.
//!
//! Everything here is Linux-only (x86_64 and aarch64); the module is
//! compiled out elsewhere and callers fall back to the thread-pool server
//! backend.

pub use crate::fault;

use std::io;
use std::os::fd::RawFd;

// ---------------------------------------------------------------------------
// Raw syscall entry points (per-architecture numbers + calling convention).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const CLOSE: usize = 3;
    pub const SETSOCKOPT: usize = 54;
    pub const GETSOCKOPT: usize = 55;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EPOLL_CREATE1: usize = 291;
    pub const PRLIMIT64: usize = 302;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const CLOSE: usize = 57;
    pub const SETSOCKOPT: usize = 208;
    pub const GETSOCKOPT: usize = 209;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EPOLL_CREATE1: usize = 20;
    pub const PRLIMIT64: usize = 261;
}

/// One raw syscall with up to six arguments. The kernel returns a negative
/// errno in-band; [`check`] converts that to `io::Error`.
///
/// # Safety
/// The caller must uphold the kernel contract for syscall `n`: pointer
/// arguments must be valid for the access the kernel performs.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") n as isize => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        in("r8") a5,
        in("r9") a6,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack, preserves_flags)
    );
    ret
}

/// One raw syscall with up to six arguments (aarch64 `svc 0` convention).
///
/// # Safety
/// See the x86_64 variant.
#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc 0",
        in("x8") n,
        inlateout("x0") a1 => ret,
        in("x1") a2,
        in("x2") a3,
        in("x3") a4,
        in("x4") a5,
        in("x5") a6,
        options(nostack, preserves_flags)
    );
    ret
}

/// Maps the kernel's in-band negative-errno return to `io::Result`.
fn check(ret: isize) -> io::Result<usize> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

// ---------------------------------------------------------------------------
// epoll
// ---------------------------------------------------------------------------

/// `EPOLLIN`: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`: error condition (always reported, need not be requested).
pub const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`: hang-up (always reported, need not be requested).
pub const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP`: peer shut down the writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0o2000000;

/// The kernel's `struct epoll_event`. Packed on x86_64 (the one ABI where
/// the 12-byte layout survives for compatibility), naturally aligned
/// elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// An empty event, for pre-sizing `wait` buffers.
    pub fn zeroed() -> EpollEvent {
        EpollEvent::default()
    }

    /// The readiness bits the kernel reported.
    pub fn events(&self) -> u32 {
        // By-value copy out of the (possibly packed) struct.
        self.events
    }

    /// The caller-chosen token registered with the fd.
    pub fn token(&self) -> u64 {
        self.data
    }
}

/// An epoll instance: the readiness multiplexer behind the event-driven
/// server backend. Registration associates a caller-chosen `u64` token with
/// each fd; `wait` reports `(token, readiness)` pairs.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(Epoll { fd: fd as RawFd })
    }

    fn ctl(&self, op: usize, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        // Test-only: an armed fault fails the registration before the
        // kernel sees it (no-op in production builds).
        if let Some(e) = fault::take(fault::Op::EpollCtl) {
            return Err(e);
        }
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        let ev_ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd as usize,
                op,
                fd as usize,
                ev_ptr as usize,
                0,
                0,
            )
        })?;
        Ok(())
    }

    /// Registers `fd` for the `interest` readiness bits under `token`.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the readiness bits (and token) of an already registered fd.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` (`-1` = forever) for readiness, filling
    /// `events`; returns how many entries are valid. A signal interruption
    /// reports zero events rather than an error.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let ret = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                self.fd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0, // sigmask: NULL — plain epoll_wait semantics
                0,
            )
        };
        match check(ret) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        let _ = unsafe { syscall6(nr::CLOSE, self.fd as usize, 0, 0, 0, 0, 0) };
    }
}

// ---------------------------------------------------------------------------
// Socket-buffer sizing (partial-write testing)
// ---------------------------------------------------------------------------

const SOL_SOCKET: usize = 1;
const SO_SNDBUF: usize = 7;
const SO_RCVBUF: usize = 8;

fn set_sock_int(fd: RawFd, level: usize, name: usize, value: i32) -> io::Result<()> {
    let v = value;
    check(unsafe {
        syscall6(
            nr::SETSOCKOPT,
            fd as usize,
            level,
            name,
            &v as *const i32 as usize,
            std::mem::size_of::<i32>(),
            0,
        )
    })?;
    Ok(())
}

fn get_sock_int(fd: RawFd, level: usize, name: usize) -> io::Result<i32> {
    let mut v: i32 = 0;
    let mut len: u32 = std::mem::size_of::<i32>() as u32;
    check(unsafe {
        syscall6(
            nr::GETSOCKOPT,
            fd as usize,
            level,
            name,
            &mut v as *mut i32 as usize,
            &mut len as *mut u32 as usize,
            0,
        )
    })?;
    Ok(v)
}

/// Shrinks (or grows) a socket's kernel send buffer — the lever the
/// backend-equivalence tests pull to force partial writes on the server
/// side. The kernel doubles the value internally and clamps to its floor.
pub fn set_send_buffer(fd: RawFd, bytes: i32) -> io::Result<()> {
    set_sock_int(fd, SOL_SOCKET, SO_SNDBUF, bytes)
}

/// Shrinks (or grows) a socket's kernel receive buffer (clamped likewise).
pub fn set_recv_buffer(fd: RawFd, bytes: i32) -> io::Result<()> {
    set_sock_int(fd, SOL_SOCKET, SO_RCVBUF, bytes)
}

/// Reads back the effective send-buffer size.
pub fn send_buffer(fd: RawFd) -> io::Result<i32> {
    get_sock_int(fd, SOL_SOCKET, SO_SNDBUF)
}

// ---------------------------------------------------------------------------
// Resource limits (connection-hold support)
// ---------------------------------------------------------------------------

const RLIMIT_NOFILE: usize = 7;

/// The kernel's `struct rlimit64`.
#[repr(C)]
struct Rlimit64 {
    cur: u64,
    max: u64,
}

/// `(soft, hard)` limit on open fds (`RLIMIT_NOFILE`), via `prlimit64(2)`
/// on the calling process. The epoll backends' connection ceiling is this
/// soft limit; the `scale1` connection-hold phase reads it to size its
/// target within what the environment actually allows.
pub fn nofile_limit() -> io::Result<(u64, u64)> {
    let mut lim = Rlimit64 { cur: 0, max: 0 };
    check(unsafe {
        syscall6(
            nr::PRLIMIT64,
            0, // pid 0: the calling process
            RLIMIT_NOFILE,
            0, // new_limit: NULL — read only
            &mut lim as *mut Rlimit64 as usize,
            0,
            0,
        )
    })?;
    Ok((lim.cur, lim.max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_readable_listener() {
        // Passes through the `EpollCtl` fault hook.
        let _serial = crate::fault::test_lock();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();

        // Nothing pending yet: a zero-timeout wait reports no events.
        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        // A pending connection makes the listener readable.
        let _client = TcpStream::connect(addr).unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert!(events[0].events() & EPOLLIN != 0);
    }

    #[test]
    fn epoll_modify_and_delete() {
        // Passes through the `EpollCtl` fault hook.
        let _serial = crate::fault::test_lock();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (a, _b) = {
            let c = TcpStream::connect(addr).unwrap();
            let (s, _) = listener.accept().unwrap();
            (s, c)
        };
        let ep = Epoll::new().unwrap();
        // A connected socket with room in its send buffer is writable.
        ep.add(a.as_raw_fd(), EPOLLOUT, 1).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].events() & EPOLLOUT != 0);
        // Interest swapped to read-only: no longer reported writable.
        ep.modify(a.as_raw_fd(), EPOLLIN, 2).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        // Deleted: silent even when data arrives.
        ep.delete(a.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        // Double-delete is the caller's bug and surfaces as ENOENT.
        assert!(ep.delete(a.as_raw_fd()).is_err());
    }

    #[test]
    fn nofile_limit_is_sane() {
        let (soft, hard) = nofile_limit().unwrap();
        // Any Linux process has at least stdin/stdout/stderr headroom.
        assert!(soft >= 8, "soft limit {soft}");
        assert!(hard >= soft, "hard {hard} < soft {soft}");
    }

    #[test]
    fn send_buffer_shrinks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let default = send_buffer(server.as_raw_fd()).unwrap();
        set_send_buffer(server.as_raw_fd(), 4096).unwrap();
        let shrunk = send_buffer(server.as_raw_fd()).unwrap();
        assert!(shrunk < default, "shrunk {shrunk} vs default {default}");
        drop(client);
    }

    #[test]
    fn epoll_token_roundtrips_large_values() {
        // Passes through the `EpollCtl` fault hook.
        let _serial = crate::fault::test_lock();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ep = Epoll::new().unwrap();
        let token = u64::MAX - 1;
        ep.add(listener.as_raw_fd(), EPOLLIN, token).unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), token);
    }

    #[test]
    fn epoll_sees_written_bytes() {
        // Passes through the `EpollCtl` fault hook.
        let _serial = crate::fault::test_lock();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), EPOLLIN, 3).unwrap();
        client.write_all(b"ping").unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let mut buf = [0u8; 8];
        let got = server.read(&mut buf).unwrap();
        assert_eq!(&buf[..got], b"ping");
    }
}
