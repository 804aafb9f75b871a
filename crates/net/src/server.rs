//! The gateway (protocol → serving stack) and the blocking TCP server
//! that drives it thread-per-connection.
//!
//! [`Gateway`] is transport-free: it owns the persistent
//! [`ServingInstance`] and the preloaded datasets, and turns one
//! [`NetRequest`] into one [`NetResponse`]. [`NetServer`] is the TCP
//! shell around it — an accept loop spawning one blocking
//! thread per connection, each of which performs the tenant handshake and
//! then loops request/response over the frame codec. Embedders that want
//! a different transport (unix sockets, an in-process harness, async)
//! reuse [`Gateway::handle`] unchanged.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cca::geo::Point;
use cca::{Problem, QueryResult, SpatialAssignment};
use cca_core::solver::{SolverConfigError, SolverRegistry};
use cca_serve::{Request, ServeConfig, ServingInstance};
use cca_storage::{QueryContext, TenantId};

use crate::codec::{self, WireError, DEFAULT_MAX_FRAME};
use crate::proto::{
    ErrorCode, Hello, HelloAck, NetRequest, NetResponse, ProblemSpec, SolveReply, SolveRequest,
    StatsReply, WireFault, PROTOCOL_VERSION,
};

/// Configures and starts a [`Gateway`].
pub struct GatewayBuilder {
    serve: ServeConfig,
    datasets: Vec<(String, Arc<SpatialAssignment>)>,
    max_frame: usize,
}

impl GatewayBuilder {
    /// The serving configuration (workers, queue capacity, tenant quotas,
    /// aging, rate window) for the gateway's persistent instance.
    pub fn serve_config(mut self, config: ServeConfig) -> Self {
        self.serve = config;
        self
    }

    /// Preloads `data` under `name` for [`ProblemSpec::Dataset`] solves.
    pub fn dataset(mut self, name: impl Into<String>, data: Arc<SpatialAssignment>) -> Self {
        self.datasets.push((name.into(), data));
        self
    }

    /// Per-frame size bound for the gateway's connections.
    pub fn max_frame(mut self, max: usize) -> Self {
        assert!(max >= 64, "frames must at least fit a handshake");
        self.max_frame = max;
        self
    }

    /// Starts the serving instance and returns the gateway.
    pub fn start(self) -> Gateway {
        Gateway {
            instance: ServingInstance::start(self.serve),
            datasets: self.datasets.into_iter().collect(),
            max_frame: self.max_frame,
        }
    }
}

/// The protocol engine over a persistent [`ServingInstance`]: maps typed
/// requests to scheduler submissions and outcomes (including every shed
/// and abort) to typed responses.
pub struct Gateway {
    instance: ServingInstance<QueryResult>,
    datasets: HashMap<String, Arc<SpatialAssignment>>,
    max_frame: usize,
}

impl Gateway {
    /// A builder with default serving config, no datasets and the default
    /// frame bound.
    pub fn builder() -> GatewayBuilder {
        GatewayBuilder {
            serve: ServeConfig::default(),
            datasets: Vec::new(),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }

    /// The underlying serving instance — shared with any other submitter,
    /// e.g. in-process solves submitted alongside network traffic.
    pub fn instance(&self) -> &ServingInstance<QueryResult> {
        &self.instance
    }

    /// The per-frame size bound connections should enforce.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// Handles one request from `tenant`, blocking until the outcome is
    /// known. Every failure path returns a typed [`NetResponse::Error`].
    pub fn handle(&self, tenant: TenantId, request: NetRequest) -> NetResponse {
        match request {
            NetRequest::Ping => NetResponse::Pong,
            NetRequest::Stats => NetResponse::Stats(StatsReply {
                tenants: self.instance.tenant_stats(),
            }),
            NetRequest::Solve(req) => self.solve(tenant, req),
        }
    }

    fn solve(&self, tenant: TenantId, req: SolveRequest) -> NetResponse {
        // Validate before burning a queue slot: a bad solver name,
        // parameter or dataset must not count against the tenant's quota.
        let solver = match SolverRegistry::with_defaults().build(&req.config) {
            Ok(solver) => solver,
            Err(e @ SolverConfigError::UnknownName { .. }) => {
                return fault(ErrorCode::UnknownSolver, e.to_string())
            }
            Err(e @ SolverConfigError::BadParameter { .. }) => {
                return fault(ErrorCode::BadRequest, e.to_string())
            }
        };
        if solver.needs_tree() && matches!(req.problem, ProblemSpec::Inline { .. }) {
            return fault(
                ErrorCode::BadRequest,
                format!(
                    "`{}` needs a dataset: inline problems have no R-tree",
                    solver.name()
                ),
            );
        }

        let mut ctx = QueryContext::new()
            .with_tenant(tenant)
            .with_priority(req.priority);
        if let Some(deadline) = req.deadline {
            ctx = ctx.with_timeout(deadline);
        }
        if let Some(faults) = req.io_budget {
            ctx = ctx.with_io_budget(faults);
        }

        // Resolve a dataset name now, so an unknown one fails before a
        // queue slot is spent.
        enum Source {
            Resident(Arc<SpatialAssignment>),
            Inline(Vec<(Point, u32)>, Vec<Point>),
        }
        let source = match req.problem {
            ProblemSpec::Dataset(name) => match self.datasets.get(&name) {
                Some(data) => Source::Resident(Arc::clone(data)),
                None => return fault(ErrorCode::UnknownDataset, format!("no dataset `{name}`")),
            },
            ProblemSpec::Inline {
                providers,
                customers,
            } => Source::Inline(providers, customers),
        };
        let config = req.config;
        let work = move |ctx: &QueryContext| {
            let problem = match &source {
                Source::Resident(data) => data.problem(),
                Source::Inline(providers, customers) => {
                    Problem::new(providers).with_customers(customers)
                }
            };
            let outcome = solver.run(&problem.with_context(ctx));
            let aborted = outcome.abort_reason();
            let (matching, stats) = outcome.into_parts();
            QueryResult {
                index: 0,
                label: solver.label(),
                config,
                matching,
                stats,
                aborted,
            }
        };

        let ticket = match self.instance.submit(Request::new(work).context(ctx)) {
            Ok(ticket) => ticket,
            // Admission shedding → its own wire code per variant.
            Err(rejected) => return fault(ErrorCode::from(&rejected), rejected.to_string()),
        };
        let result = match catch_unwind(AssertUnwindSafe(move || ticket.wait())) {
            Ok(result) => result,
            Err(_) => return fault(ErrorCode::Internal, "query execution panicked"),
        };
        match result.aborted {
            // In-flight aborts → their own codes, with the partial
            // counters attached (the run's exact attributed I/O).
            Some(reason) => NetResponse::Error(WireFault {
                code: ErrorCode::from(reason),
                message: reason.to_string(),
                partial_stats: Some(result.stats),
            }),
            None => NetResponse::Solved(SolveReply {
                matching: result.matching,
                stats: result.stats,
            }),
        }
    }
}

fn fault(code: ErrorCode, message: impl Into<String>) -> NetResponse {
    NetResponse::Error(WireFault {
        code,
        message: message.into(),
        partial_stats: None,
    })
}

/// Connection-level limits for a [`NetServer`].
///
/// Both limits exist to keep a blocking thread-per-connection server from
/// being pinned down by misbehaving peers: a connection flood would
/// otherwise spawn unbounded threads, and an idle-but-open connection
/// would park one thread forever in a blocking read. Every enforcement is
/// a *typed* wire fault ([`ErrorCode::ConnectionLimit`] /
/// [`ErrorCode::ReadTimeout`]) before the socket closes — never a silent
/// drop or a hang.
#[derive(Clone, Copy, Debug)]
pub struct NetServerConfig {
    /// Maximum simultaneously served connections; further connections are
    /// refused with [`ErrorCode::ConnectionLimit`].
    pub max_connections: usize,
    /// How long a connection may sit idle between frames before it is
    /// closed with [`ErrorCode::ReadTimeout`]. `None` waits forever.
    pub read_timeout: Option<Duration>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_connections: 256,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl NetServerConfig {
    /// Sets the connection cap.
    pub fn max_connections(mut self, max: usize) -> Self {
        assert!(max >= 1, "a server that accepts nothing serves nothing");
        self.max_connections = max;
        self
    }

    /// Sets (or clears) the per-connection idle read timeout.
    pub fn read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }
}

/// A blocking thread-per-connection TCP front-end over a [`Gateway`].
///
/// Binding spawns an accept-loop thread; each accepted connection gets its
/// own thread that handshakes ([`Hello`] / [`HelloAck`]) and then serves
/// the request/response loop, subject to the [`NetServerConfig`] limits.
/// [`NetServer::shutdown`] (or drop) stops accepting, shuts every live
/// connection's socket down and joins all threads.
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<ConnHandle>>>,
}

struct ConnHandle {
    stream: TcpStream,
    thread: JoinHandle<()>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port, then
    /// [`NetServer::local_addr`]) and starts serving `gateway` with the
    /// default connection limits.
    pub fn bind(addr: impl ToSocketAddrs, gateway: Arc<Gateway>) -> io::Result<NetServer> {
        Self::bind_with(addr, gateway, NetServerConfig::default())
    }

    /// [`NetServer::bind`] with explicit connection limits.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        gateway: Arc<Gateway>,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<ConnHandle>>> = Arc::default();
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("cca-net-accept".into())
                .spawn(move || accept_loop(listener, gateway, config, stop, conns))
                .expect("spawn accept thread")
        };
        Ok(NetServer {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            conns,
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, disconnects every live connection and joins all
    /// server threads. In-flight requests on those connections finish or
    /// fail their reply write; queued work in the gateway's instance is
    /// unaffected (the instance outlives its front-ends).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop is blocked in `accept`; a throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for conn in conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
            let _ = conn.thread.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    gateway: Arc<Gateway>,
    config: NetServerConfig,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<ConnHandle>>>,
) {
    let live = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Admission check before spawning anything: a refused connection
        // gets a typed goodbye, not a thread.
        if live.load(Ordering::SeqCst) >= config.max_connections {
            let max = gateway.max_frame();
            let mut writer = BufWriter::new(&stream);
            let _ = codec::send_message(
                &mut writer,
                &fault(
                    ErrorCode::ConnectionLimit,
                    format!(
                        "server is at its {}-connection limit",
                        config.max_connections
                    ),
                ),
                max,
            );
            drop(writer);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        // Keep a raw clone so shutdown can sever the socket under the
        // connection thread and join it.
        let Ok(raw) = stream.try_clone() else {
            continue;
        };
        live.fetch_add(1, Ordering::SeqCst);
        let gateway = Arc::clone(&gateway);
        let live_in_thread = Arc::clone(&live);
        let thread = std::thread::Builder::new()
            .name("cca-net-conn".into())
            .spawn(move || {
                serve_connection(gateway, stream, config.read_timeout);
                live_in_thread.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn connection thread");
        let mut conns = conns.lock().expect("conns lock");
        // Reap finished handles so a long-lived server's registry doesn't
        // grow with every connection it ever served.
        conns.retain(|c| !c.thread.is_finished());
        conns.push(ConnHandle {
            stream: raw,
            thread,
        });
    }
}

/// One connection's lifetime: handshake, then frames until the peer
/// closes, the stream dies, framing desynchronises, or the idle timeout
/// fires.
fn serve_connection(gateway: Arc<Gateway>, stream: TcpStream, read_timeout: Option<Duration>) {
    // A blocking read observes the timeout as `WouldBlock`/`TimedOut`;
    // the connection loop turns that into a typed `ReadTimeout` fault.
    let _ = stream.set_read_timeout(read_timeout);
    // Each reply frame is one whole message the client waits for.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    connection_loop(&gateway, &mut reader, &mut writer);
    // The accept loop retains its own clone of this socket (so shutdown
    // can sever blocked connections), which keeps the connection open
    // past this thread's exit. Shut the socket down explicitly or the
    // peer would never observe EOF. Every reply was flushed frame-by-
    // frame, so nothing is lost.
    let _ = writer.get_ref().shutdown(Shutdown::Both);
}

fn connection_loop(
    gateway: &Gateway,
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
) {
    let max = gateway.max_frame();

    // Handshake: the first frame must be a `Hello` naming the tenant.
    let hello: Hello = match codec::recv_message(reader, max) {
        Ok(Some(hello)) => hello,
        Ok(None) => return,
        Err(e) => {
            let _ = send_wire_fault(writer, &e, max);
            return;
        }
    };
    if hello.version != PROTOCOL_VERSION {
        let _ = codec::send_message(
            writer,
            &fault(
                ErrorCode::VersionMismatch,
                format!(
                    "client speaks protocol v{}, server speaks v{PROTOCOL_VERSION}",
                    hello.version
                ),
            ),
            max,
        );
        return;
    }
    if codec::send_message(
        writer,
        &NetResponse::Hello(HelloAck {
            version: PROTOCOL_VERSION,
        }),
        max,
    )
    .is_err()
    {
        return;
    }

    loop {
        let request: NetRequest = match codec::recv_message(reader, max) {
            Ok(Some(request)) => request,
            // Clean close at a frame boundary: the client is done.
            Ok(None) => return,
            // The frame arrived whole but didn't decode — framing is still
            // in sync, so answer with a typed error and keep serving.
            Err(WireError::Malformed(msg)) => {
                if codec::send_message(writer, &fault(ErrorCode::BadRequest, msg), max).is_err() {
                    return;
                }
                continue;
            }
            // Oversized length prefix, truncation, transport death: the
            // byte stream cannot be trusted any further.
            Err(e) => {
                let _ = send_wire_fault(writer, &e, max);
                return;
            }
        };
        let response = gateway.handle(hello.tenant, request);
        if codec::send_message(writer, &response, max).is_err() {
            return;
        }
    }
}

/// Best-effort typed goodbye for codec-level failures before closing.
/// An expired idle read timeout surfaces here as a transport error and
/// gets its own [`ErrorCode::ReadTimeout`]; everything else is a
/// [`ErrorCode::BadRequest`].
fn send_wire_fault(
    writer: &mut impl io::Write,
    error: &WireError,
    max: usize,
) -> Result<(), WireError> {
    let response = if is_read_timeout(error) {
        fault(
            ErrorCode::ReadTimeout,
            "connection idle past the server's read timeout",
        )
    } else {
        fault(ErrorCode::BadRequest, error.to_string())
    };
    codec::send_message(writer, &response, max)
}

/// Whether a codec failure is an expired `set_read_timeout` deadline.
/// Platforms disagree on the error kind (`WouldBlock` on unix,
/// `TimedOut` on windows), so accept both.
fn is_read_timeout(error: &WireError) -> bool {
    match error {
        WireError::Io(e) => matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_core::SolverConfig;
    use cca_geo::Point;

    fn tiny_gateway() -> Gateway {
        Gateway::builder()
            .serve_config(ServeConfig::default().workers(1).queue_capacity(4))
            .start()
    }

    #[test]
    fn gateway_solves_an_inline_problem_without_any_transport() {
        let gateway = tiny_gateway();
        let request = NetRequest::Solve(SolveRequest::new(
            SolverConfig::new("sspa"),
            ProblemSpec::Inline {
                providers: vec![(Point::new(0.0, 0.0), 2), (Point::new(10.0, 0.0), 2)],
                customers: vec![
                    Point::new(1.0, 0.0),
                    Point::new(2.0, 0.0),
                    Point::new(9.0, 0.0),
                ],
            },
        ));
        match gateway.handle(TenantId(1), request) {
            NetResponse::Solved(reply) => {
                assert_eq!(reply.matching.size(), 3, "all customers assigned");
            }
            other => panic!("expected a solve reply, got {other:?}"),
        }
    }

    #[test]
    fn unknown_solver_and_dataset_fail_without_burning_quota() {
        let customers: Vec<Point> = (0..20).map(|i| Point::new(f64::from(i), 0.0)).collect();
        let providers = vec![(Point::new(0.0, 1.0), 10), (Point::new(19.0, 1.0), 10)];
        let data = SpatialAssignment::build(providers.clone(), customers.clone());
        let gateway = Gateway::builder()
            .serve_config(ServeConfig::default().workers(1).queue_capacity(4))
            .dataset("d", Arc::new(data))
            .start();
        let inline = ProblemSpec::Inline {
            providers,
            customers,
        };
        let dataset = ProblemSpec::Dataset("d".into());
        let solve = |config: SolverConfig, problem: &ProblemSpec| {
            let request = SolveRequest::new(config.clone(), problem.clone());
            match gateway.handle(TenantId(1), NetRequest::Solve(request)) {
                NetResponse::Error(fault) => fault.code,
                other => panic!("{config:?}: expected a fault, got {other:?}"),
            }
        };
        assert_eq!(
            solve(SolverConfig::new("no-such-solver"), &inline),
            ErrorCode::UnknownSolver
        );
        assert_eq!(
            solve(
                SolverConfig::new("sspa"),
                &ProblemSpec::Dataset("not-loaded".into())
            ),
            ErrorCode::UnknownDataset
        );
        // Inputs a solver would panic on are bad requests, caught before
        // submit: θ ≤ 0 (RIA), δ = 0 (CA's partition), a tree-only solver
        // on an inline problem, and an empty ANN group.
        for (config, problem) in [
            (SolverConfig::new("ria").theta(0.0), &inline),
            (SolverConfig::new("ria").theta(-1.0), &inline),
            (SolverConfig::new("ca").delta(0.0), &dataset),
            (SolverConfig::new("sa"), &inline),
            (SolverConfig::new("ca"), &inline),
            (SolverConfig::new("ida-grouped").group_size(0), &dataset),
        ] {
            assert_eq!(solve(config, problem), ErrorCode::BadRequest);
        }
        // None of these requests registered with the scheduler.
        assert!(gateway.instance().tenant_stats().is_empty());

        // The same gateway and dataset serve a well-formed request, which
        // is the tenant's first submission.
        let request = SolveRequest::new(SolverConfig::new("ca"), dataset);
        let reply = gateway.handle(TenantId(1), NetRequest::Solve(request));
        assert!(matches!(reply, NetResponse::Solved(_)), "{reply:?}");
        let stats = gateway.instance().tenant_stats_for(TenantId(1)).unwrap();
        assert_eq!(stats.submitted, 1);
    }

    #[test]
    fn connections_past_the_cap_get_a_typed_rejection() {
        let gateway = Arc::new(tiny_gateway());
        let server = NetServer::bind_with(
            "127.0.0.1:0",
            Arc::clone(&gateway),
            NetServerConfig::default().max_connections(1),
        )
        .unwrap();
        let addr = server.local_addr();
        let max = gateway.max_frame();

        // The first connection takes the only slot (and works normally).
        let mut first = crate::NetClient::connect(addr, TenantId(1)).unwrap();
        first.ping().unwrap();

        // The second is refused before any handshake: the server sends a
        // `ConnectionLimit` fault unprompted and closes.
        let mut second = TcpStream::connect(addr).unwrap();
        let reply: NetResponse = codec::recv_message(&mut second, max).unwrap().unwrap();
        match reply {
            NetResponse::Error(fault) => assert_eq!(fault.code, ErrorCode::ConnectionLimit),
            other => panic!("expected connection-limit fault, got {other:?}"),
        }
        assert!(
            codec::recv_message::<NetResponse>(&mut second, max)
                .unwrap()
                .is_none(),
            "refused connection is closed"
        );

        // Releasing the slot re-admits new connections (the live count
        // decrements when the connection thread exits).
        drop(first);
        let mut readmitted = None;
        for _ in 0..2_000 {
            match crate::NetClient::connect(addr, TenantId(1)) {
                Ok(client) => {
                    readmitted = Some(client);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        readmitted
            .expect("slot frees after disconnect")
            .ping()
            .unwrap();

        server.shutdown();
    }

    #[test]
    fn idle_connections_time_out_with_a_typed_fault() {
        let gateway = Arc::new(tiny_gateway());
        let server = NetServer::bind_with(
            "127.0.0.1:0",
            Arc::clone(&gateway),
            NetServerConfig::default().read_timeout(Some(Duration::from_millis(50))),
        )
        .unwrap();
        let addr = server.local_addr();
        let max = gateway.max_frame();

        // A connection that never sends its Hello trips the idle timeout:
        // the server answers with a `ReadTimeout` fault and closes.
        let mut silent = TcpStream::connect(addr).unwrap();
        let reply: NetResponse = codec::recv_message(&mut silent, max).unwrap().unwrap();
        match reply {
            NetResponse::Error(fault) => assert_eq!(fault.code, ErrorCode::ReadTimeout),
            other => panic!("expected read-timeout fault, got {other:?}"),
        }
        assert!(
            codec::recv_message::<NetResponse>(&mut silent, max)
                .unwrap()
                .is_none(),
            "timed-out connection is closed"
        );

        // A connection that keeps talking inside the window is unaffected.
        let mut chatty = crate::NetClient::connect(addr, TenantId(1)).unwrap();
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(20));
            chatty.ping().unwrap();
        }

        server.shutdown();
    }

    #[test]
    fn deeply_nested_frames_get_bad_request_and_the_connection_keeps_serving() {
        let gateway = Arc::new(tiny_gateway());
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&gateway)).unwrap();
        let max = gateway.max_frame();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        codec::send_message(&mut stream, &Hello::new(TenantId(1)), max).unwrap();
        let ack: NetResponse = codec::recv_message(&mut stream, max).unwrap().unwrap();
        assert!(matches!(ack, NetResponse::Hello(_)), "{ack:?}");

        // A mebibyte of `[`, bare and inside a field the request type
        // skips: each once overflowed the decoder's stack and killed the
        // whole server.
        let brackets = vec![b'['; 1 << 20];
        let mut hidden = br#"{"kind":"ping","pad":"#.to_vec();
        hidden.extend_from_slice(&brackets);
        for frame in [brackets, hidden] {
            codec::write_frame(&mut stream, &frame, max).unwrap();
            match codec::recv_message(&mut stream, max).unwrap() {
                Some(NetResponse::Error(fault)) => assert_eq!(fault.code, ErrorCode::BadRequest),
                other => panic!("expected a bad-request fault, got {other:?}"),
            }
        }

        codec::send_message(&mut stream, &NetRequest::Ping, max).unwrap();
        let pong: NetResponse = codec::recv_message(&mut stream, max).unwrap().unwrap();
        assert!(matches!(pong, NetResponse::Pong), "{pong:?}");
        server.shutdown();
    }

    #[test]
    fn a_version_1_client_gets_version_mismatch() {
        let gateway = Arc::new(tiny_gateway());
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&gateway)).unwrap();
        let max = gateway.max_frame();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let hello = Hello {
            tenant: TenantId(1),
            version: 1,
        };
        codec::send_message(&mut stream, &hello, max).unwrap();
        match codec::recv_message(&mut stream, max).unwrap() {
            Some(NetResponse::Error(fault)) => {
                assert_eq!(fault.code, ErrorCode::VersionMismatch);
                assert!(fault.message.contains("v1"), "{}", fault.message);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
        assert!(
            codec::recv_message::<NetResponse>(&mut stream, max)
                .unwrap()
                .is_none(),
            "server closes a v1 connection"
        );
        server.shutdown();
    }

    #[test]
    fn ping_and_stats_answer_without_solving() {
        let gateway = tiny_gateway();
        assert!(matches!(
            gateway.handle(TenantId(1), NetRequest::Ping),
            NetResponse::Pong
        ));
        match gateway.handle(TenantId(1), NetRequest::Stats) {
            NetResponse::Stats(reply) => assert!(reply.tenants.is_empty()),
            other => panic!("expected stats, got {other:?}"),
        }
    }
}
