//! The transport seam: real TCP or the seeded in-process fabric.
//!
//! Everything above this module — the workers engine, the client, the
//! core host — moves bytes through [`Conn`] and accepts through
//! [`Listener`], so the same production code paths run over a kernel
//! socket in deployment and over [`rcb_sim::SimNet`] in the deterministic
//! world sim. The enum (rather than a trait object) keeps the hot read
//! and write paths monomorphic and allocation-free; both variants expose
//! the same nonblocking-accept and read-timeout contract:
//!
//! * [`Listener::try_accept`] never blocks — `WouldBlock` means "nothing
//!   pending" on both the nonblocking `TcpListener` and the fabric;
//! * [`Conn`] reads block up to the configured read timeout and surface
//!   `WouldBlock`/`TimedOut` on expiry, exactly what the workers engine's
//!   rotate-on-idle loop expects.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use rcb_sim::{SimConn, SimListener};
use rcb_util::SimDuration;

/// A listening endpoint on either transport. Construct the TCP side with
/// [`Listener::bind_tcp`] (which flips the socket nonblocking, as
/// [`Listener::try_accept`] requires) or wrap an existing fabric listener
/// with `From<SimListener>`.
pub enum Listener {
    /// A kernel TCP listener (must be in nonblocking mode).
    Tcp(TcpListener),
    /// A named host on the in-process fabric.
    Sim(SimListener),
}

impl Listener {
    /// Binds a nonblocking TCP listener at `addr`.
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Listener::Tcp(listener))
    }

    /// The local address: the bound socket address for TCP, a synthetic
    /// all-zero address for the fabric (sim hosts are named, not
    /// numbered).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr(),
            Listener::Sim(_) => Ok(SocketAddr::from(([0, 0, 0, 0], 0))),
        }
    }

    /// Accepts one pending connection without blocking; `WouldBlock`
    /// means none is ready on either transport.
    pub fn try_accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(stream, _)| Conn::Tcp(stream)),
            Listener::Sim(l) => l.try_accept().map(Conn::Sim),
        }
    }
}

impl From<TcpListener> for Listener {
    fn from(l: TcpListener) -> Listener {
        Listener::Tcp(l)
    }
}

impl From<SimListener> for Listener {
    fn from(l: SimListener) -> Listener {
        Listener::Sim(l)
    }
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Listener::Tcp(l) => write!(f, "Listener::Tcp({:?})", l.local_addr().ok()),
            Listener::Sim(l) => write!(f, "Listener::Sim({})", l.host()),
        }
    }
}

/// One byte-stream connection on either transport. Implements blocking
/// `Read`/`Write`; the read timeout set via [`Conn::set_read_timeout`]
/// surfaces as `WouldBlock`/`TimedOut`, which the engines treat as "idle,
/// rotate" rather than an error.
pub enum Conn {
    /// A kernel TCP stream.
    Tcp(TcpStream),
    /// One end of a fabric connection.
    Sim(SimConn),
}

impl Conn {
    /// Caps how long a blocking read waits for bytes. The TCP side maps
    /// to `TcpStream::set_read_timeout`; the fabric side measures the
    /// timeout on the fabric's own clock, so virtual time drives virtual
    /// waits.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            Conn::Sim(s) => {
                s.set_read_timeout(timeout.map(SimDuration::from_duration));
                Ok(())
            }
        }
    }

    /// Caps how long a blocking write may stall before returning
    /// `WouldBlock` (`SO_SNDTIMEO`) — the workers engine retries such a
    /// write until its write-stall deadline passes. The fabric side
    /// buffers writes without backpressure, so there it is a no-op.
    pub fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(timeout),
            Conn::Sim(_) => Ok(()),
        }
    }
}

impl From<TcpStream> for Conn {
    fn from(s: TcpStream) -> Conn {
        Conn::Tcp(s)
    }
}

impl From<SimConn> for Conn {
    fn from(s: SimConn) -> Conn {
        Conn::Sim(s)
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Sim(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Sim(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Sim(s) => s.flush(),
        }
    }
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Conn::Tcp(s) => write!(f, "Conn::Tcp({:?})", s.peer_addr().ok()),
            Conn::Sim(s) => write!(f, "Conn::Sim(#{})", s.id()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_sim::World;
    use rcb_util::{Clock, SimTime};

    fn link() -> rcb_sim::LinkModel {
        rcb_sim::LinkModel::from_spec(rcb_sim::LinkSpec::symmetric(
            100_000_000,
            SimDuration::from_millis(1),
        ))
    }

    #[test]
    fn tcp_and_sim_listeners_share_the_accept_contract() {
        // TCP side: nonblocking accept with nothing pending is WouldBlock.
        let tcp = Listener::bind_tcp("127.0.0.1:0").unwrap();
        assert!(tcp.local_addr().unwrap().port() > 0);
        assert_eq!(
            tcp.try_accept().unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        // Sim side: same error before any handshake completes, a `Conn`
        // once one does.
        let world = World::new(11);
        let sim: Listener = world.bind("host").unwrap().into();
        assert_eq!(sim.local_addr().unwrap().port(), 0);
        assert_eq!(
            sim.try_accept().unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        let _client = world.connect("p1", "host", link()).unwrap();
        world.advance_to(SimTime::from_millis(2));
        let conn = sim.try_accept().unwrap();
        assert!(matches!(conn, Conn::Sim(_)));
    }

    #[test]
    fn sim_conn_round_trips_bytes_through_the_seam() {
        let net = rcb_sim::SimNet::new(Clock::wall(), 12);
        let listener = net.bind("host").unwrap();
        let mut client: Conn = net.connect("p1", "host", link()).unwrap().into();
        client.write_all(b"ping").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Wall-clock fabric: the handshake and delivery mature in real
        // milliseconds, so a short spin suffices.
        let mut server: Conn = loop {
            match listener.try_accept() {
                Ok(c) => break c.into(),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        server
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 8];
        let n = server.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        server.write_all(b"pong").unwrap();
        let n = client.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"pong");
    }
}
