//! Discrete-event network simulator.
//!
//! The paper's network-bound metrics (M1–M4: document load, document
//! synchronization, and supplementary-object download times) were measured
//! in a 100 Mbps campus LAN and a 1.5 Mbps/384 Kbps home WAN (§5.1.2).
//! This crate reproduces those environments as virtual-time links:
//!
//! * [`link`] — a [`link::Pipe`] models one bidirectional path with
//!   per-direction bandwidth, one-way latency, and FIFO serialization
//!   (`busy-until` bookkeeping), so concurrent transfers share bandwidth
//!   the way a bottleneck link forces them to;
//! * [`fetch`] — the HTTP cost model layered on a pipe: TCP handshake,
//!   request upload, server think time, response download;
//! * [`profiles`] — the LAN/WAN environments of §5.1.2, a mobile profile
//!   for the paper's Fennec/N810 future-work experiment, and loopback;
//! * [`world`] — the deterministic world: a seeded in-process network
//!   fabric ([`world::SimNet`]) of named hosts, [`world::SimConn`] byte
//!   streams with seeded latency/jitter/loss from a [`link::LinkModel`],
//!   partition/heal controls, and virtual-time advancement — what the
//!   world sim's pump-mode server driver and participants run over, on
//!   one thread with zero sockets.

pub mod fetch;
pub mod link;
pub mod profiles;
pub mod world;

pub use fetch::{request_response, FetchCost};
pub use link::{LinkModel, LinkSpec, Pipe};
pub use profiles::NetProfile;
pub use world::{SimConn, SimListener, SimNet, World};
