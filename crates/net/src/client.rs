//! A small blocking client for the gateway protocol.
//!
//! One [`NetClient`] is one connection (and therefore one tenant — the
//! tenant is fixed by the handshake). Calls are synchronous
//! request/response; a [`WireFault`] reply surfaces as
//! [`NetError::Server`] with the typed [`ErrorCode`] intact, so callers
//! can distinguish shedding from deadline aborts from bad requests.

use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use cca_storage::TenantId;
use serde::Serialize;

use crate::codec::{self, WireError, DEFAULT_MAX_FRAME};
use crate::proto::{
    Hello, NetRequest, NetResponse, SolveReply, SolveRequest, StatsReply, WireFault,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum NetError {
    /// The transport or codec failed underneath the protocol.
    Wire(WireError),
    /// The server answered with a typed fault (shed, aborted, bad
    /// request, …) — inspect [`WireFault::code`]. Boxed because an
    /// abort fault carries the run's full partial stats.
    Server(Box<WireFault>),
    /// The server closed the connection.
    Closed,
    /// The server answered with a frame the call didn't expect.
    Unexpected(&'static str),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Server(fault) => write!(f, "server fault: {fault}"),
            NetError::Closed => write!(f, "server closed the connection"),
            NetError::Unexpected(what) => write!(f, "unexpected reply to {what}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// A blocking connection to a [`crate::NetServer`], bound to one tenant.
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame: usize,
    tenant: TenantId,
}

impl NetClient {
    /// Connects, performs the tenant handshake and returns a ready
    /// client. Fails with [`NetError::Server`] on a version mismatch.
    pub fn connect(addr: impl ToSocketAddrs, tenant: TenantId) -> Result<Self, NetError> {
        Self::connect_with(addr, tenant, DEFAULT_MAX_FRAME)
    }

    /// [`NetClient::connect`] with a custom per-frame size bound (must
    /// match the server's to make use of it).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        tenant: TenantId,
        max_frame: usize,
    ) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr).map_err(|e| NetError::Wire(WireError::Io(e)))?;
        // Each frame is one whole message the server waits for.
        stream
            .set_nodelay(true)
            .map_err(|e| NetError::Wire(WireError::Io(e)))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| NetError::Wire(WireError::Io(e)))?;
        let mut client = NetClient {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            max_frame,
            tenant,
        };
        client.send(&Hello::new(tenant))?;
        match client.recv()? {
            NetResponse::Hello(_) => Ok(client),
            NetResponse::Error(fault) => Err(NetError::Server(Box::new(fault))),
            _ => Err(NetError::Unexpected("handshake")),
        }
    }

    /// The tenant this connection authenticated as.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Submits one solve and blocks for its outcome. Shed or aborted
    /// queries come back as [`NetError::Server`] with the distinct
    /// [`crate::ErrorCode`] (and, for aborts, the partial stats).
    pub fn solve(&mut self, request: SolveRequest) -> Result<SolveReply, NetError> {
        self.send(&NetRequest::Solve(request))?;
        match self.recv()? {
            NetResponse::Solved(reply) => Ok(reply),
            NetResponse::Error(fault) => Err(NetError::Server(Box::new(fault))),
            _ => Err(NetError::Unexpected("solve")),
        }
    }

    /// Fetches the per-tenant serving stats (all tenants, not just this
    /// connection's).
    pub fn stats(&mut self) -> Result<StatsReply, NetError> {
        self.send(&NetRequest::Stats)?;
        match self.recv()? {
            NetResponse::Stats(reply) => Ok(reply),
            NetResponse::Error(fault) => Err(NetError::Server(Box::new(fault))),
            _ => Err(NetError::Unexpected("stats")),
        }
    }

    /// Round-trips a ping.
    pub fn ping(&mut self) -> Result<(), NetError> {
        self.send(&NetRequest::Ping)?;
        match self.recv()? {
            NetResponse::Pong => Ok(()),
            NetResponse::Error(fault) => Err(NetError::Server(Box::new(fault))),
            _ => Err(NetError::Unexpected("ping")),
        }
    }

    fn send<T: Serialize>(&mut self, msg: &T) -> Result<(), NetError> {
        codec::send_message(&mut self.writer, msg, self.max_frame).map_err(NetError::from)
    }

    fn recv(&mut self) -> Result<NetResponse, NetError> {
        match codec::recv_message(&mut self.reader, self.max_frame)? {
            Some(response) => Ok(response),
            None => Err(NetError::Closed),
        }
    }
}
