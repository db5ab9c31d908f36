//! Stand-in for [`crate::epoll`] on targets without the epoll shims.
//!
//! Never constructed at runtime: `ServerBackend::effective()` degrades
//! `EpollSharded` to `Workers` wherever this module is the one compiled
//! in, so `HttpServer::bind_with` / `bind_split` never reach
//! [`EpollServer::bind`]. The type exists so the server facade's `Engine`
//! enum and its match arms compile identically on every target — the
//! platform `cfg` lives on the module declarations in `lib.rs` and nowhere
//! else in the crate.

use std::convert::Infallible;
use std::net::SocketAddr;

use rcb_util::Result;

use crate::server::{Handler, ServerConfig, ServerStats, TryHandler};

/// This module variant is the stub (backs `server::EPOLL_SUPPORTED`).
pub(crate) const SUPPORTED: bool = false;

/// Uninhabited: holds an [`Infallible`], so instances cannot exist and
/// the accessors below type-check by matching on the void.
pub(crate) struct EpollServer {
    void: Infallible,
}

impl EpollServer {
    pub(crate) fn bind(
        _addr: &str,
        _handler: Handler,
        _try_handler: Option<TryHandler>,
        _config: &ServerConfig,
        _shard_count: usize,
    ) -> Result<EpollServer> {
        unreachable!(
            "epoll backend not compiled in; ServerBackend::effective() degrades to workers"
        )
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        match self.void {}
    }

    pub(crate) fn shard_count(&self) -> usize {
        match self.void {}
    }

    pub(crate) fn stats(&self) -> ServerStats {
        match self.void {}
    }

    pub(crate) fn shutdown(&mut self) {
        match self.void {}
    }
}
