//! `cca-net` — the network gateway over a persistent CCA serving
//! instance.
//!
//! Three layers, each usable without the one above it:
//!
//! * [`codec`] — transport-agnostic length-prefixed frames over any
//!   `Read`/`Write` pair, each handed to the writer in one write, with
//!   serde-encoded payloads and typed [`WireError`]s for every way bytes
//!   can go wrong.
//! * [`proto`] — the request/response vocabulary (protocol v2: matchings
//!   and inline problems as columns, floats as exact hex bit patterns): a
//!   per-connection tenant [`Hello`] handshake, solves against inline
//!   problem data or a server-preloaded dataset (with priority, deadline
//!   and I/O budget),
//!   a stats request returning per-tenant [`cca_serve::TenantStats`]
//!   (queue counters, attributed I/O, sliding-window QPS), and
//!   structured errors: every admission shed
//!   ([`cca_serve::Rejected`]) and every in-flight abort
//!   ([`cca_storage::AbortReason`]) maps to its own [`ErrorCode`] — no
//!   silent drops.
//! * the transport — a blocking thread-per-connection TCP server
//!   ([`NetServer`]) over a transport-free protocol engine
//!   ([`Gateway`]), and a small blocking [`NetClient`], both with
//!   `TCP_NODELAY` set. The server enforces a connection cap and an idle
//!   read timeout ([`NetServerConfig`]), both surfaced to the peer as
//!   typed wire faults rather than silent drops.
//!
//! The gateway's [`cca_serve::ServingInstance`] is persistent: it
//! outlives individual connections, so in-process callers can submit
//! solves to [`Gateway::instance`] while it serves TCP tenants, with
//! quotas, fairness and cumulative per-tenant stats spanning both worlds.
//!
//! ```no_run
//! use std::sync::Arc;
//! use cca_net::{Gateway, NetClient, NetServer, ProblemSpec, SolveRequest};
//! use cca::{ServeConfig, SolverConfig, TenantId};
//!
//! let gateway = Arc::new(Gateway::builder()
//!     .serve_config(ServeConfig::default().workers(2))
//!     .start());
//! let server = NetServer::bind("127.0.0.1:0", Arc::clone(&gateway)).unwrap();
//!
//! let mut client = NetClient::connect(server.local_addr(), TenantId(7)).unwrap();
//! let reply = client.solve(SolveRequest::new(
//!     SolverConfig::new("ida"),
//!     ProblemSpec::Inline {
//!         providers: vec![(cca::geo::Point::new(0.0, 0.0), 4)],
//!         customers: vec![cca::geo::Point::new(1.0, 1.0)],
//!     },
//! )).unwrap();
//! assert_eq!(reply.matching.size(), 1);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod proto;

mod client;
mod server;

pub use client::{NetClient, NetError};
pub use codec::{WireError, DEFAULT_MAX_FRAME};
pub use proto::{
    ErrorCode, Hello, HelloAck, NetRequest, NetResponse, ProblemSpec, SolveReply, SolveRequest,
    StatsReply, WireFault, PROTOCOL_VERSION,
};
pub use server::{Gateway, GatewayBuilder, NetServer, NetServerConfig};
