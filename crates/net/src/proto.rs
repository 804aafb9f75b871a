//! The typed request/response vocabulary the gateway speaks, plus its
//! serde impls (enums as tagged maps, the workspace enum idiom).
//!
//! Every way a query can fail inside the serving stack maps to a distinct
//! [`ErrorCode`] on the wire — admission shedding
//! ([`Rejected::QueueFull`], [`Rejected::TenantQuotaExceeded`]) and every
//! [`AbortReason`] included — so a client can always tell *why* it got no
//! matching back. Nothing is silently dropped: aborted queries return
//! their partial [`AlgoStats`] alongside the error.
//!
//! # Columns (protocol v2)
//!
//! The two payloads that grow with the problem travel as parallel
//! columns, one entry per item, instead of an array of per-item maps:
//!
//! * a [`SolveReply`]'s matching is
//!   `{"customer":[..],"dist":"..","provider":[..],"units":[..],"x":"..","y":".."}`,
//!   where `x`/`y` is the customer's position;
//! * a [`ProblemSpec::Inline`] is `"providers":{"k":[..],"x":"..","y":".."}`
//!   and `"customers":{"x":"..","y":".."}`.
//!
//! Integer columns are JSON arrays. A float column is one JSON string: the
//! `f64::to_bits` pattern of each value as 16 lowercase hex digits,
//! concatenated. Writing one is a table lookup per digit instead of a
//! shortest-decimal search, and the value arrives bit-exact by
//! construction. Columns are written straight from the pairs and points.
//! The decoder refuses columns of unequal length, a float column whose
//! length is not a multiple of 16, any byte outside `[0-9a-f]` and a NaN or
//! infinite pattern, each as a [`crate::WireError::Malformed`]; so, as in
//! v1, only finite floats cross the wire. Every other message (stats,
//! config, faults, the handshake) keeps its v1 encoding.

use std::borrow::Cow;
use std::time::Duration;

use cca_core::{AlgoStats, MatchPair, Matching, SolverConfig};
use cca_geo::Point;
use cca_serve::{Rejected, TenantStats};
use cca_storage::{AbortReason, Priority, TenantId};
use serde::json::{required, Parser, Writer};
use serde::{Deserialize, Error, Serialize};

/// Version tag exchanged in the handshake; bumped on incompatible wire
/// changes. Version 2 sends matchings and inline problems as
/// [columns](self#columns-protocol-v2).
pub const PROTOCOL_VERSION: u32 = 2;

/// First frame on every connection: the client introduces its tenant and
/// protocol version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    pub tenant: TenantId,
    pub version: u32,
}

impl Hello {
    /// A current-version handshake for `tenant`.
    pub fn new(tenant: TenantId) -> Self {
        Hello {
            tenant,
            version: PROTOCOL_VERSION,
        }
    }
}

/// The server's handshake acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelloAck {
    pub version: u32,
}

/// What a solve runs against: a dataset preloaded on the server (solved
/// against its disk-backed R-tree, warm cache) or problem data shipped
/// inline in the request (solved in memory).
#[derive(Clone, Debug, PartialEq)]
pub enum ProblemSpec {
    Dataset(String),
    Inline {
        providers: Vec<(Point, u32)>,
        customers: Vec<Point>,
    },
}

/// One capacity-constrained assignment query.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// Which solver and with what knobs ([`SolverConfig`]).
    pub config: SolverConfig,
    pub problem: ProblemSpec,
    /// Scheduling priority inside the serving queue.
    pub priority: Priority,
    /// Deadline measured from admission (queue wait included).
    pub deadline: Option<Duration>,
    /// Page-fault budget for dataset solves.
    pub io_budget: Option<u64>,
}

impl SolveRequest {
    /// A normal-priority, unbounded request.
    pub fn new(config: SolverConfig, problem: ProblemSpec) -> Self {
        SolveRequest {
            config,
            problem,
            priority: Priority::Normal,
            deadline: None,
            io_budget: None,
        }
    }

    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn io_budget(mut self, faults: u64) -> Self {
        self.io_budget = Some(faults);
        self
    }
}

/// A client→server frame (after the handshake).
#[derive(Clone, Debug)]
pub enum NetRequest {
    Solve(SolveRequest),
    /// Ask for the per-tenant serving stats.
    Stats,
    Ping,
}

/// A successful solve: the matching plus the algorithm/I-O counters.
#[derive(Clone, Debug)]
pub struct SolveReply {
    pub matching: Matching,
    pub stats: AlgoStats,
}

/// Per-tenant serving stats, one entry per tenant the instance has seen.
#[derive(Clone, Debug)]
pub struct StatsReply {
    pub tenants: Vec<TenantStats>,
}

/// Why a request failed, as a stable numeric code. Codes 1–2 are
/// admission shedding ([`Rejected`]), 3–5 are in-flight aborts
/// ([`AbortReason`]) — each source variant gets its own code, so nothing
/// collapses into a generic failure on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The instance's global queue was full ([`Rejected::QueueFull`]).
    QueueFull,
    /// The tenant's own queue-slot quota was exhausted
    /// ([`Rejected::TenantQuotaExceeded`]).
    TenantQuotaExceeded,
    /// The query was cancelled ([`AbortReason::Cancelled`]).
    Cancelled,
    /// The query ran past its deadline ([`AbortReason::DeadlineExceeded`]).
    DeadlineExceeded,
    /// The query exhausted its page-fault budget
    /// ([`AbortReason::IoBudgetExceeded`]).
    IoBudgetExceeded,
    /// The request named a solver the registry doesn't know.
    UnknownSolver,
    /// The request named a dataset the gateway hasn't preloaded.
    UnknownDataset,
    /// The frame decoded but the request is invalid.
    BadRequest,
    /// Handshake version disagreed — the client spoke a different
    /// protocol revision.
    VersionMismatch,
    /// The server failed internally (e.g. a solver panic).
    Internal,
    /// The server is at its connection limit and refused this connection.
    ConnectionLimit,
    /// The connection sat idle past the server's per-connection read
    /// timeout and was closed.
    ReadTimeout,
}

impl ErrorCode {
    /// The stable wire code.
    pub fn code(self) -> u16 {
        match self {
            ErrorCode::QueueFull => 1,
            ErrorCode::TenantQuotaExceeded => 2,
            ErrorCode::Cancelled => 3,
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::IoBudgetExceeded => 5,
            ErrorCode::UnknownSolver => 6,
            ErrorCode::UnknownDataset => 7,
            ErrorCode::BadRequest => 8,
            ErrorCode::VersionMismatch => 9,
            ErrorCode::Internal => 10,
            ErrorCode::ConnectionLimit => 11,
            ErrorCode::ReadTimeout => 12,
        }
    }

    /// The code's enum, if known.
    pub fn from_code(code: u16) -> Option<Self> {
        Some(match code {
            1 => ErrorCode::QueueFull,
            2 => ErrorCode::TenantQuotaExceeded,
            3 => ErrorCode::Cancelled,
            4 => ErrorCode::DeadlineExceeded,
            5 => ErrorCode::IoBudgetExceeded,
            6 => ErrorCode::UnknownSolver,
            7 => ErrorCode::UnknownDataset,
            8 => ErrorCode::BadRequest,
            9 => ErrorCode::VersionMismatch,
            10 => ErrorCode::Internal,
            11 => ErrorCode::ConnectionLimit,
            12 => ErrorCode::ReadTimeout,
            _ => return None,
        })
    }

    /// All codes, for exhaustiveness tests.
    pub const ALL: [ErrorCode; 12] = [
        ErrorCode::QueueFull,
        ErrorCode::TenantQuotaExceeded,
        ErrorCode::Cancelled,
        ErrorCode::DeadlineExceeded,
        ErrorCode::IoBudgetExceeded,
        ErrorCode::UnknownSolver,
        ErrorCode::UnknownDataset,
        ErrorCode::BadRequest,
        ErrorCode::VersionMismatch,
        ErrorCode::Internal,
        ErrorCode::ConnectionLimit,
        ErrorCode::ReadTimeout,
    ];
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::QueueFull => "queue full",
            ErrorCode::TenantQuotaExceeded => "tenant quota exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::IoBudgetExceeded => "io budget exceeded",
            ErrorCode::UnknownSolver => "unknown solver",
            ErrorCode::UnknownDataset => "unknown dataset",
            ErrorCode::BadRequest => "bad request",
            ErrorCode::VersionMismatch => "version mismatch",
            ErrorCode::Internal => "internal error",
            ErrorCode::ConnectionLimit => "connection limit reached",
            ErrorCode::ReadTimeout => "connection read timeout",
        };
        write!(f, "{name} (code {})", self.code())
    }
}

impl From<&Rejected> for ErrorCode {
    fn from(r: &Rejected) -> Self {
        match r {
            Rejected::QueueFull { .. } => ErrorCode::QueueFull,
            Rejected::TenantQuotaExceeded { .. } => ErrorCode::TenantQuotaExceeded,
        }
    }
}

impl From<AbortReason> for ErrorCode {
    fn from(r: AbortReason) -> Self {
        match r {
            AbortReason::Cancelled => ErrorCode::Cancelled,
            AbortReason::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            AbortReason::IoBudgetExceeded => ErrorCode::IoBudgetExceeded,
        }
    }
}

/// A structured failure reply. Aborted solves (codes 3–5) carry their
/// partial counters so a shed-or-aborted query is still attributable.
#[derive(Clone, Debug)]
pub struct WireFault {
    pub code: ErrorCode,
    pub message: String,
    /// Partial [`AlgoStats`] for in-flight aborts; `None` for requests
    /// that never ran.
    pub partial_stats: Option<AlgoStats>,
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// A server→client frame.
#[derive(Clone, Debug)]
pub enum NetResponse {
    Hello(HelloAck),
    Solved(SolveReply),
    Stats(StatsReply),
    Pong,
    Error(WireFault),
}

// ---------------------------------------------------------------------
// Serde impls: structs through the shim's `derive_struct!`, enums as
// tagged maps written by hand, and the column messages by hand. Fields go
// in ascending key order. A tagged map is read in one field loop when each
// key has one type whatever the variant; `NetResponse`'s `reply` does not,
// so it reads the tag first.
// ---------------------------------------------------------------------

serde::derive_struct!(Hello { tenant, version });
serde::derive_struct!(HelloAck { version });
serde::derive_struct!(SolveRequest {
    config,
    deadline,
    io_budget,
    priority,
    problem,
});
serde::derive_struct!(StatsReply { tenants });
serde::derive_struct!(WireFault {
    code,
    message,
    partial_stats,
});

impl Serialize for ProblemSpec {
    fn serialize(&self, w: &mut Writer) {
        match self {
            ProblemSpec::Dataset(name) => w.object(|o| {
                o.field("kind", "dataset");
                o.field("name", name);
            }),
            ProblemSpec::Inline {
                providers,
                customers,
            } => w.object(|o| {
                o.field("customers", &Points(customers));
                o.field("kind", "inline");
                o.field("providers", &Providers(providers));
            }),
        }
    }
}

impl Deserialize for ProblemSpec {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let (mut kind, mut name, mut providers, mut customers) = (None, None, None, None);
        p.object(|p, key| {
            match key {
                "kind" => kind = Some(String::deserialize(p)?),
                "name" => name = Some(String::deserialize(p)?),
                "providers" => providers = Some(read_providers(p)?),
                "customers" => customers = Some(read_points(p)?),
                _ => p.skip()?,
            }
            Ok(())
        })?;
        match required(kind, "kind")?.as_str() {
            "dataset" => Ok(ProblemSpec::Dataset(required(name, "name")?)),
            "inline" => Ok(ProblemSpec::Inline {
                providers: required(providers, "providers")?,
                customers: required(customers, "customers")?,
            }),
            other => Err(Error(format!("unknown problem kind `{other}`"))),
        }
    }
}

impl Serialize for SolveReply {
    fn serialize(&self, w: &mut Writer) {
        w.object(|o| {
            o.field("matching", &MatchingColumns(&self.matching));
            o.field("stats", &self.stats);
        });
    }
}

impl Deserialize for SolveReply {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let (mut matching, mut stats) = (None, None);
        p.object(|p, key| {
            match key {
                "matching" => matching = Some(read_matching(p)?),
                "stats" => stats = Some(AlgoStats::deserialize(p)?),
                _ => p.skip()?,
            }
            Ok(())
        })?;
        Ok(SolveReply {
            matching: required(matching, "matching")?,
            stats: required(stats, "stats")?,
        })
    }
}

/// A matching as its six columns.
struct MatchingColumns<'a>(&'a Matching);

impl Serialize for MatchingColumns<'_> {
    fn serialize(&self, w: &mut Writer) {
        let pairs = &self.0.pairs;
        w.object(|o| {
            o.field("customer", &IntColumn(pairs, |p| p.customer));
            o.field("dist", &HexColumn(pairs, |p| p.dist));
            o.field("provider", &IntColumn(pairs, |p| p.provider));
            o.field("units", &IntColumn(pairs, |p| p.units));
            o.field("x", &HexColumn(pairs, |p| p.customer_pos.x));
            o.field("y", &HexColumn(pairs, |p| p.customer_pos.y));
        });
    }
}

fn read_matching(p: &mut Parser<'_>) -> Result<Matching, Error> {
    let (mut customer, mut provider, mut units) = (None, None, None);
    let (mut dist, mut x, mut y) = (None, None, None);
    p.object(|p, key| {
        match key {
            "customer" => customer = Some(Vec::<u64>::deserialize(p)?),
            "dist" => dist = Some(p.str()?),
            "provider" => provider = Some(Vec::<usize>::deserialize(p)?),
            "units" => units = Some(Vec::<u32>::deserialize(p)?),
            "x" => x = Some(p.str()?),
            "y" => y = Some(p.str()?),
            _ => p.skip()?,
        }
        Ok(())
    })?;
    let customer = required(customer, "customer")?;
    let provider = required(provider, "provider")?;
    let units = required(units, "units")?;
    let n = customer.len();
    let dist = hex_column(required(dist, "dist")?, n)?;
    let x = hex_column(required(x, "x")?, n)?;
    let y = hex_column(required(y, "y")?, n)?;
    same_length(n, &[provider.len(), units.len()])?;
    let mut pairs = Vec::with_capacity(n);
    let columns = customer.into_iter().zip(provider).zip(units);
    for (((customer, provider), units), ((dist, x), y)) in columns.zip(dist.zip(x).zip(y)) {
        pairs.push(MatchPair {
            provider,
            customer,
            units,
            dist: dist?,
            customer_pos: Point::new(x?, y?),
        });
    }
    Ok(Matching { pairs })
}

/// Inline providers as their `k`, `x` and `y` columns.
struct Providers<'a>(&'a [(Point, u32)]);

impl Serialize for Providers<'_> {
    fn serialize(&self, w: &mut Writer) {
        w.object(|o| {
            o.field("k", &IntColumn(self.0, |&(_, k)| k));
            o.field("x", &HexColumn(self.0, |(q, _)| q.x));
            o.field("y", &HexColumn(self.0, |(q, _)| q.y));
        });
    }
}

fn read_providers(p: &mut Parser<'_>) -> Result<Vec<(Point, u32)>, Error> {
    let (mut k, mut x, mut y) = (None, None, None);
    p.object(|p, key| {
        match key {
            "k" => k = Some(Vec::<u32>::deserialize(p)?),
            "x" => x = Some(p.str()?),
            "y" => y = Some(p.str()?),
            _ => p.skip()?,
        }
        Ok(())
    })?;
    let k = required(k, "k")?;
    let x = hex_column(required(x, "x")?, k.len())?;
    let y = hex_column(required(y, "y")?, k.len())?;
    x.zip(y)
        .zip(k)
        .map(|((x, y), k)| Ok((Point::new(x?, y?), k)))
        .collect()
}

/// Inline customers as their `x` and `y` columns.
struct Points<'a>(&'a [Point]);

impl Serialize for Points<'_> {
    fn serialize(&self, w: &mut Writer) {
        w.object(|o| {
            o.field("x", &HexColumn(self.0, |q| q.x));
            o.field("y", &HexColumn(self.0, |q| q.y));
        });
    }
}

fn read_points(p: &mut Parser<'_>) -> Result<Vec<Point>, Error> {
    let (mut x, mut y) = (None, None);
    p.object(|p, key| {
        match key {
            "x" => x = Some(p.str()?),
            "y" => y = Some(p.str()?),
            _ => p.skip()?,
        }
        Ok(())
    })?;
    let x = required(x, "x")?;
    let n = x.len() / HEX_WIDTH;
    let x = hex_column(x, n)?;
    let y = hex_column(required(y, "y")?, n)?;
    x.zip(y).map(|(x, y)| Ok(Point::new(x?, y?))).collect()
}

/// An integer column: one JSON array of a field of each item.
struct IntColumn<'a, T, N>(&'a [T], fn(&T) -> N);

impl<T, N: Serialize> Serialize for IntColumn<'_, T, N> {
    fn serialize(&self, w: &mut Writer) {
        w.seq(|s| {
            for item in self.0 {
                s.elem(&(self.1)(item));
            }
        });
    }
}

/// Hex digits per value in a float column.
const HEX_WIDTH: usize = 16;

/// A float column: one JSON string of the bit patterns of a field of each
/// item, [`HEX_WIDTH`] lowercase hex digits per value.
struct HexColumn<'a, T>(&'a [T], fn(&T) -> f64);

impl<T> Serialize for HexColumn<'_, T> {
    /// # Panics
    /// On NaN and infinities, which the decoder refuses.
    fn serialize(&self, w: &mut Writer) {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut hex = Vec::with_capacity(HEX_WIDTH * self.0.len());
        for item in self.0 {
            let x = (self.1)(item);
            assert!(x.is_finite(), "the wire cannot carry {x}");
            let bits = x.to_bits();
            let mut value = [0u8; HEX_WIDTH];
            for (i, digit) in value.iter_mut().enumerate() {
                *digit = DIGITS[(bits >> (60 - 4 * i)) as usize & 0xf];
            }
            hex.extend_from_slice(&value);
        }
        w.str(std::str::from_utf8(&hex).expect("hex digits are ASCII"));
    }
}

/// The values of a float column that must hold `n` of them, each decoded
/// as the iterator reaches it: a byte outside `[0-9a-f]` or a non-finite
/// pattern is an error there.
fn hex_column(
    text: Cow<'_, str>,
    n: usize,
) -> Result<impl Iterator<Item = Result<f64, Error>> + '_, Error> {
    if !text.len().is_multiple_of(HEX_WIDTH) {
        return Err(Error(format!(
            "float column of {} hex digits is not whole {HEX_WIDTH}-digit values",
            text.len()
        )));
    }
    same_length(n, &[text.len() / HEX_WIDTH])?;
    let values = (0..n).map(move |i| hex_value(&text.as_bytes()[HEX_WIDTH * i..][..HEX_WIDTH]));
    Ok(values)
}

/// Each byte's value as a lowercase hex digit, or [`NOT_HEX`].
const NIBBLES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        i += 1;
    }
    table
};
const NOT_HEX: u8 = 0x10;

fn hex_value(digits: &[u8]) -> Result<f64, Error> {
    let (mut bits, mut seen) = (0u64, 0u8);
    for &b in digits {
        let nibble = NIBBLES[usize::from(b)];
        seen |= nibble;
        bits = bits << 4 | u64::from(nibble & 0xf);
    }
    if seen & NOT_HEX != 0 {
        let &b = digits
            .iter()
            .find(|&&b| NIBBLES[usize::from(b)] == NOT_HEX)
            .expect("a byte that is not a digit set the flag");
        return Err(Error(format!(
            "float column holds `{}`, not a lowercase hex digit",
            b.escape_ascii()
        )));
    }
    let x = f64::from_bits(bits);
    if x.is_finite() {
        Ok(x)
    } else {
        Err(Error(format!("float column holds non-finite {bits:016x}")))
    }
}

fn same_length(n: usize, others: &[usize]) -> Result<(), Error> {
    match others.iter().find(|&&len| len != n) {
        Some(len) => Err(Error(format!("columns of unequal lengths {n} and {len}"))),
        None => Ok(()),
    }
}

impl Serialize for NetRequest {
    fn serialize(&self, w: &mut Writer) {
        w.object(|o| match self {
            NetRequest::Solve(req) => {
                o.field("kind", "solve");
                o.field("request", req);
            }
            NetRequest::Stats => o.field("kind", "stats"),
            NetRequest::Ping => o.field("kind", "ping"),
        });
    }
}

impl Deserialize for NetRequest {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let (mut kind, mut request) = (None, None);
        p.object(|p, key| {
            match key {
                "kind" => kind = Some(String::deserialize(p)?),
                "request" => request = Some(SolveRequest::deserialize(p)?),
                _ => p.skip()?,
            }
            Ok(())
        })?;
        match required(kind, "kind")?.as_str() {
            "solve" => Ok(NetRequest::Solve(required(request, "request")?)),
            "stats" => Ok(NetRequest::Stats),
            "ping" => Ok(NetRequest::Ping),
            other => Err(Error(format!("unknown request kind `{other}`"))),
        }
    }
}

impl Serialize for ErrorCode {
    fn serialize(&self, w: &mut Writer) {
        self.code().serialize(w);
    }
}

impl Deserialize for ErrorCode {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let code = u16::deserialize(p)?;
        ErrorCode::from_code(code).ok_or_else(|| Error(format!("unknown error code {code}")))
    }
}

impl Serialize for NetResponse {
    fn serialize(&self, w: &mut Writer) {
        w.object(|o| match self {
            NetResponse::Hello(ack) => {
                o.field("ack", ack);
                o.field("kind", "hello");
            }
            NetResponse::Solved(reply) => {
                o.field("kind", "solved");
                o.field("reply", reply);
            }
            NetResponse::Stats(reply) => {
                o.field("kind", "stats");
                o.field("reply", reply);
            }
            NetResponse::Pong => o.field("kind", "pong"),
            NetResponse::Error(fault) => {
                o.field("fault", fault);
                o.field("kind", "error");
            }
        });
    }
}

impl Deserialize for NetResponse {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        match &*p.tag("kind")? {
            "hello" => Ok(NetResponse::Hello(p.field("ack")?)),
            "solved" => Ok(NetResponse::Solved(p.field("reply")?)),
            "stats" => Ok(NetResponse::Stats(p.field("reply")?)),
            "pong" => p.skip().map(|()| NetResponse::Pong),
            "error" => Ok(NetResponse::Error(p.field("fault")?)),
            other => Err(Error(format!("unknown response kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_are_distinct_and_roundtrip() {
        let mut seen = std::collections::HashSet::new();
        for code in ErrorCode::ALL {
            assert!(seen.insert(code.code()), "{code:?} reuses a wire code");
            assert_eq!(ErrorCode::from_code(code.code()), Some(code));
        }
        assert_eq!(ErrorCode::from_code(0), None);
        assert_eq!(ErrorCode::from_code(13), None);
    }

    #[test]
    fn every_shed_and_abort_variant_maps_to_its_own_code() {
        use cca_storage::TenantId;
        let codes = [
            ErrorCode::from(&Rejected::QueueFull { capacity: 1 }),
            ErrorCode::from(&Rejected::TenantQuotaExceeded {
                tenant: TenantId(1),
                queue_slots: 1,
            }),
            ErrorCode::from(AbortReason::Cancelled),
            ErrorCode::from(AbortReason::DeadlineExceeded),
            ErrorCode::from(AbortReason::IoBudgetExceeded),
        ];
        let distinct: std::collections::HashSet<u16> = codes.iter().map(|c| c.code()).collect();
        assert_eq!(distinct.len(), codes.len(), "no two sources share a code");
    }

    #[test]
    fn request_and_response_json_roundtrip() {
        let req = NetRequest::Solve(
            SolveRequest::new(
                SolverConfig::new("ida").theta(8.0),
                ProblemSpec::Inline {
                    providers: vec![(Point::new(1.0, 2.0), 3)],
                    customers: vec![Point::new(4.0, 5.0)],
                },
            )
            .priority(Priority::High)
            .deadline(Duration::from_millis(250))
            .io_budget(1000),
        );
        let json = serde::json::to_string(&req);
        let back: NetRequest = serde::json::from_str(&json).unwrap();
        // Objects are written in ascending key order, so equal JSON means
        // equal message.
        assert_eq!(serde::json::to_string(&back), json);

        let resp = NetResponse::Error(WireFault {
            code: ErrorCode::DeadlineExceeded,
            message: "query ran 300ms past its 250ms deadline".into(),
            partial_stats: None,
        });
        let json = serde::json::to_string(&resp);
        let back: NetResponse = serde::json::from_str(&json).unwrap();
        assert_eq!(serde::json::to_string(&back), json);
        match back {
            NetResponse::Error(fault) => {
                assert_eq!(fault.code, ErrorCode::DeadlineExceeded);
                assert!(fault.partial_stats.is_none());
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn handshake_frames_roundtrip() {
        use cca_storage::TenantId;
        let hello = Hello::new(TenantId(42));
        let back: Hello = serde::json::from_str(&serde::json::to_string(&hello)).unwrap();
        assert_eq!(back, hello);
        assert_eq!(back.version, PROTOCOL_VERSION);

        let ack = HelloAck {
            version: PROTOCOL_VERSION,
        };
        let back: HelloAck = serde::json::from_str(&serde::json::to_string(&ack)).unwrap();
        assert_eq!(back, ack);
    }
}
