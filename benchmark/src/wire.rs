//! The two wire workloads: closed-loop `NetClient`s over TCP loopback to a
//! `NetServer`/`Gateway`, one connection and one tenant per client.
//!
//! * `wire_dataset` — solves against server-preloaded datasets whose
//!   buffer holds the whole tree (warmed once): the only workload that
//!   crosses all seven layers with a production-sized reply and a
//!   *resident* working set (the storage hit path). It shows what a wire
//!   client really waits for.
//! * `wire_inline` — tiny problems shipped inside the request: the fixed
//!   per-request cost of codec + gateway + `cca-serve` hand-off dominates,
//!   and `cca-rtree`/`cca-storage` are untouched, so an R-tree or storage
//!   change must predict "no change" here and a scheduler or codec change
//!   shows here first.
//!
//! The untraced run uses the library's own `NetServer` and `NetClient`.
//! The traced run swaps both ends for equivalent loops written here from
//! the same public pieces (`codec::{encode, decode, write_frame,
//! read_frame}`, `Gateway::handle`) so every step is a span; its second
//! pass goes under the gateway the way `Gateway::solve` does
//! (`SolverRegistry::build`, `ServingInstance::submit`, `wait`), with the
//! benchmark's closure stamping its own start and end around
//! `Solver::run`.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cca::datagen::SpatialDistribution;
use cca::geo::Point;
use cca::serve::Request;
use cca::{
    Problem, QueryContext, QueryResult, ServeConfig, SolverConfig, SolverRegistry,
    SpatialAssignment, TenantId,
};
use cca_net::{
    codec, ErrorCode, Gateway, Hello, HelloAck, NetClient, NetRequest, NetResponse, NetServer,
    ProblemSpec, SolveReply, SolveRequest, WireFault, PROTOCOL_VERSION,
};

use crate::inputs::{check_cost, host_cores, instance, solver, sub_seed};
use crate::layers::{self, Counts};
use crate::report::{median_setup, Report, Tally, MIN_SAMPLES};
use crate::stats::median;
use crate::trace::{span_times, Clock, Span, SpanBuf, SpanTimes};
use crate::{probes, Args};

/// Closed-loop connections (clamped to two per hardware thread) and
/// scheduler workers (clamped to one). Two connections per core keep the
/// cores busy: with one, a core idles while its request is on the other
/// side of a thread hand-off, and the wake-up cost of an idle virtual CPU
/// — which drifts by the minute on a shared host — moved `wire_inline`'s
/// throughput by 8–12 % from run to run, against 3 % this way.
const CLIENTS: usize = 4;
const WORKERS: usize = 2;
const QUEUE: usize = 64;
const WARMUP_TENANT: TenantId = TenantId(99);
/// Empty round trips timed for `net.ping_rtt_us` in the traced run.
const PINGS: usize = 2_000;

/// What distinguishes the two wire workloads.
pub struct Shape {
    name: &'static str,
    /// Distinct problems per run; requests cycle problem × solver.
    problems: usize,
    providers: usize,
    customers: usize,
    capacity: u32,
    dist: SpatialDistribution,
    solvers: &'static [&'static str],
    /// Preloaded on the server (and probed as a tree), or shipped inline.
    preloaded: bool,
}

pub const DATASET: Shape = Shape {
    name: "wire_dataset",
    problems: 16,
    providers: 50,
    customers: 1_000,
    capacity: 16,
    dist: SpatialDistribution::Clustered,
    solvers: &["ida", "ca"],
    preloaded: true,
};

pub const INLINE: Shape = Shape {
    name: "wire_inline",
    problems: 16,
    providers: 4,
    customers: 60,
    capacity: 20,
    dist: SpatialDistribution::Uniform,
    solvers: &["sspa"],
    preloaded: false,
};

struct Target {
    spec: ProblemSpec,
    providers: Vec<(Point, u32)>,
    customers: Vec<Point>,
    /// Each solver's cost from an in-process solve in setup, in the
    /// shape's solver order; the first solver is exact, so its cost is
    /// the optimum.
    reference: Vec<f64>,
}

struct Stack {
    gateway: Arc<Gateway>,
    server: NetServer,
    targets: Vec<Target>,
    datasets: HashMap<String, Arc<SpatialAssignment>>,
}

fn setup(shape: &Shape, seed: u64, workers: usize) -> Result<Stack, String> {
    let registry = SolverRegistry::with_defaults();
    let mut builder = Gateway::builder().serve_config(
        ServeConfig::default()
            .workers(workers)
            .queue_capacity(QUEUE),
    );
    let mut targets = Vec::new();
    let mut datasets = HashMap::new();
    for i in 0..shape.problems {
        let w = instance(
            sub_seed(seed, i as u64),
            shape.providers,
            shape.customers,
            shape.capacity,
            shape.dist,
        );
        let solve = |problem: &Problem<'_>| -> Result<Vec<f64>, String> {
            shape
                .solvers
                .iter()
                .map(|name| {
                    let solver = registry.build(&solver(name)).map_err(|e| e.to_string())?;
                    let outcome = solver.run(problem);
                    let matching = outcome.matching();
                    matching.validate_unit(&w.providers, &w.customers)?;
                    Ok(matching.cost())
                })
                .collect()
        };
        let (spec, reference) = if shape.preloaded {
            let name = format!("d{i}");
            let data = Arc::new(SpatialAssignment::build_with_storage_sharded(
                w.providers.clone(),
                w.customers.clone(),
                1024,
                100.0,
                cca::storage::default_shards(),
            ));
            let reference = solve(&data.problem())?;
            builder = builder.dataset(name.clone(), Arc::clone(&data));
            datasets.insert(name.clone(), data);
            (ProblemSpec::Dataset(name), reference)
        } else {
            let reference = solve(&Problem::new(&w.providers).with_customers(&w.customers))?;
            let spec = ProblemSpec::Inline {
                providers: w.providers.clone(),
                customers: w.customers.clone(),
            };
            (spec, reference)
        };
        targets.push(Target {
            spec,
            providers: w.providers,
            customers: w.customers,
            reference,
        });
    }
    let gateway = Arc::new(builder.start());
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&gateway))
        .map_err(|e| format!("bind loopback: {e}"))?;

    // Warm-up. The reference solves above ran on the datasets' own
    // stores without clearing them, so every page a measured request will
    // read is already resident; what is left is to bring up a connection
    // and check one reply per solver through the codec.
    let mut client = NetClient::connect(server.local_addr(), WARMUP_TENANT)
        .map_err(|e| format!("warm-up connect: {e}"))?;
    let warm = drive(
        &mut client,
        &targets[..1],
        shape.solvers,
        0,
        &Stop::after_one_cycle(),
    );
    if let Some(why) = warm.tally.first_failure {
        return Err(format!("warm-up: {why}"));
    }
    Ok(Stack {
        gateway,
        server,
        targets,
        datasets,
    })
}

/// One connection, as a client sees it. The untraced run uses the
/// library's `NetClient`; the traced run substitutes [`TracedLink`].
trait Link {
    fn solve(&mut self, request: SolveRequest) -> Result<SolveReply, String>;

    /// Request and reply payload bytes so far (0 where not observable).
    fn bytes(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Link for NetClient {
    fn solve(&mut self, request: SolveRequest) -> Result<SolveReply, String> {
        NetClient::solve(self, request).map_err(|e| e.to_string())
    }
}

/// When a client stops: once `seconds` have passed since `started` and it
/// holds `min_samples`, but never before its first full cycle.
struct Stop {
    started: Instant,
    seconds: f64,
    min_samples: usize,
}

impl Stop {
    fn after_one_cycle() -> Stop {
        Stop {
            started: Instant::now(),
            seconds: 0.0,
            min_samples: 0,
        }
    }
}

struct Driven {
    tally: Tally,
    /// Counts and payload bytes over the first full cycle.
    first_cycle: Counts,
    first_cycle_bytes: (u64, u64),
}

/// Checks one reply; returns its cost ratio to the optimum.
fn verify(reply: &SolveReply, name: &str, target: &Target, reference: f64) -> Result<f64, String> {
    reply
        .matching
        .validate_unit(&target.providers, &target.customers)
        .map_err(|e| format!("{name}: {e}"))?;
    check_cost(name, reply.matching.cost(), reference, target.reference[0])
}

/// The closed loop of one client: cycle problem × solver, starting at
/// problem `first` so concurrent clients are not in lock-step.
fn drive(
    link: &mut impl Link,
    targets: &[Target],
    solvers: &[&str],
    first: usize,
    stop: &Stop,
) -> Driven {
    let configs: Vec<SolverConfig> = solvers.iter().map(|s| solver(s)).collect();
    let mut out = Driven {
        tally: Tally::default(),
        first_cycle: Counts::default(),
        first_cycle_bytes: (0, 0),
    };
    for cycle in 0.. {
        for step in 0..targets.len() {
            let target = &targets[(first + step) % targets.len()];
            for ((name, config), &reference) in solvers.iter().zip(&configs).zip(&target.reference)
            {
                let request = SolveRequest::new(config.clone(), target.spec.clone());
                let t0 = Instant::now();
                let reply = link.solve(request);
                let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                let reply = match reply {
                    Ok(reply) => reply,
                    // A transport error or server fault ends this client:
                    // a dead connection would fail every later request.
                    Err(why) => {
                        out.tally.fail(why);
                        return out;
                    }
                };
                match verify(&reply, name, target, reference) {
                    Ok(ratio) => {
                        out.tally.ok(latency_ms);
                        out.tally.cost_ratio(ratio);
                    }
                    Err(why) => out.tally.fail(why),
                }
                if cycle == 0 {
                    out.first_cycle.add(&reply.stats);
                }
            }
            // Stop only between problems, so every solver is sampled
            // equally often.
            let last_of_cycle = step + 1 == targets.len();
            if cycle == 0 && last_of_cycle {
                out.first_cycle_bytes = link.bytes();
            }
            let enough = out.tally.latencies_ms.len() >= stop.min_samples;
            let due = enough && stop.started.elapsed().as_secs_f64() >= stop.seconds;
            if due && (cycle > 0 || last_of_cycle) {
                return out;
            }
        }
    }
    unreachable!("the cycle loop only ends by returning")
}

struct Phase {
    tally: Tally,
    wall_s: f64,
    first_cycle: Counts,
    first_cycle_bytes: (u64, u64),
}

impl Phase {
    fn collect(started: Instant, driven: Vec<Driven>) -> Phase {
        let mut phase = Phase {
            tally: Tally::default(),
            wall_s: started.elapsed().as_secs_f64(),
            first_cycle: Counts::default(),
            first_cycle_bytes: (0, 0),
        };
        for d in driven {
            phase.tally.merge(d.tally);
            phase.first_cycle.merge(&d.first_cycle);
            phase.first_cycle_bytes.0 += d.first_cycle_bytes.0;
            phase.first_cycle_bytes.1 += d.first_cycle_bytes.1;
        }
        phase
    }
}

/// Start offset of client `c`'s cycle.
fn first_problem(c: usize, clients: usize, problems: usize) -> usize {
    c * problems / clients
}

/// The untraced measured phase: `clients` `NetClient`s against the
/// library's `NetServer`.
fn measure(
    stack: &Stack,
    shape: &Shape,
    clients: usize,
    seconds: f64,
    min_samples: usize,
) -> Result<Phase, String> {
    let addr = stack.server.local_addr();
    let stop = Stop {
        started: Instant::now(),
        seconds,
        min_samples: min_samples.div_ceil(clients),
    };
    let driven = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (stop, targets) = (&stop, &stack.targets);
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr, TenantId(c as u32 + 1))
                        .map_err(|e| format!("client {c} connect: {e}"))?;
                    let first = first_problem(c, clients, targets.len());
                    Ok(drive(&mut client, targets, shape.solvers, first, stop))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Phase::collect(stop.started, driven))
}

// ---------------------------------------------------------------------
// The traced run: both ends of the connection written from public pieces.
// ---------------------------------------------------------------------

/// How deep the traced server goes.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    /// A span around the real `Gateway::handle`.
    Handle,
    /// The benchmark's replica of `Gateway::solve`, opened down to
    /// `Solver::run`.
    UnderGateway,
}

/// Spans of one request share this id on both ends of the connection:
/// the connection index and the frame's sequence number after the
/// handshake (one request is in flight per connection).
fn request_id(pass: Pass, conn: usize, seq: u64) -> u64 {
    ((pass as u64) << 48) | ((conn as u64) << 32) | seq
}

/// The client end of a traced connection.
struct TracedLink {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame: usize,
    pass: Pass,
    conn: usize,
    seq: u64,
    buf: SpanBuf,
    bytes: (u64, u64),
}

impl TracedLink {
    fn connect(
        addr: SocketAddr,
        pass: Pass,
        conn: usize,
        max_frame: usize,
        clock: Clock,
    ) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let read_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut link = TracedLink {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            max_frame,
            pass,
            conn,
            seq: 0,
            buf: SpanBuf::new(clock),
            bytes: (0, 0),
        };
        let hello = Hello::new(TenantId(conn as u32 + 1));
        codec::send_message(&mut link.writer, &hello, max_frame).map_err(|e| e.to_string())?;
        match codec::recv_message(&mut link.reader, max_frame).map_err(|e| e.to_string())? {
            Some(NetResponse::Hello(_)) => Ok(link),
            other => Err(format!("handshake answered {other:?}")),
        }
    }
}

impl Link for TracedLink {
    fn solve(&mut self, request: SolveRequest) -> Result<SolveReply, String> {
        self.seq += 1;
        let req = request_id(self.pass, self.conn, self.seq);
        let root = Some("request");
        let start = self.buf.now_ns();
        let message = NetRequest::Solve(request);
        let payload = self
            .buf
            .span("net.req_encode", root, req, || codec::encode(&message));
        let (writer, reader, max) = (&mut self.writer, &mut self.reader, self.max_frame);
        let answer = self.buf.span("net.frame_io", root, req, || {
            codec::write_frame(writer, &payload, max)?;
            codec::read_frame(reader, max)
        });
        let answer = answer
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        let response = self.buf.span("net.resp_decode", root, req, || {
            codec::decode::<NetResponse>(&answer)
        });
        let end = self.buf.now_ns();
        self.buf.push("request", None, req, start, end);
        self.bytes.0 += payload.len() as u64;
        self.bytes.1 += answer.len() as u64;
        match response.map_err(|e| e.to_string())? {
            NetResponse::Solved(reply) => Ok(reply),
            NetResponse::Error(fault) => Err(format!("server fault: {fault}")),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    fn bytes(&self) -> (u64, u64) {
        self.bytes
    }
}

fn internal_fault(message: String) -> NetResponse {
    NetResponse::Error(WireFault {
        code: ErrorCode::Internal,
        message,
        partial_stats: None,
    })
}

/// The server end of the traced connections.
struct TracedServer<'a> {
    gateway: &'a Gateway,
    datasets: &'a HashMap<String, Arc<SpatialAssignment>>,
    registry: SolverRegistry,
    pass: Pass,
    clock: Clock,
}

impl TracedServer<'_> {
    /// `NetServer`'s connection loop, with a span per step. The blocking
    /// `read_frame` between requests is idle time, not part of a request;
    /// the reply's `write_frame` falls in the client's `net.frame_io`.
    fn serve(&self, stream: TcpStream, conn: usize) -> Result<Vec<Span>, String> {
        let max = self.gateway.max_frame();
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = BufWriter::new(stream);
        let hello: Hello = codec::recv_message(&mut reader, max)
            .map_err(|e| e.to_string())?
            .ok_or("client closed before the handshake")?;
        let ack = NetResponse::Hello(HelloAck {
            version: PROTOCOL_VERSION,
        });
        codec::send_message(&mut writer, &ack, max).map_err(|e| e.to_string())?;

        let mut buf = SpanBuf::new(self.clock);
        let parent = Some("net.frame_io");
        let mut seq = 0;
        while let Some(payload) = codec::read_frame(&mut reader, max).map_err(|e| e.to_string())? {
            seq += 1;
            let req = request_id(self.pass, conn, seq);
            let request = buf
                .span("net.req_decode", parent, req, || {
                    codec::decode::<NetRequest>(&payload)
                })
                .map_err(|e| e.to_string())?;
            let response = match (self.pass, request) {
                (Pass::UnderGateway, NetRequest::Solve(solve)) => {
                    self.solve_under_gateway(hello.tenant, solve, &mut buf, req)
                }
                (_, request) => buf.span("net.gateway", parent, req, || {
                    self.gateway.handle(hello.tenant, request)
                }),
            };
            let bytes = buf.span("net.resp_encode", parent, req, || codec::encode(&response));
            codec::write_frame(&mut writer, &bytes, max).map_err(|e| e.to_string())?;
        }
        Ok(buf.spans)
    }

    /// What `Gateway::solve` does, step by step, each step a span under
    /// `net.gateway`: build the solver, submit a closure to the gateway's
    /// own `ServingInstance`, wait for the ticket.
    fn solve_under_gateway(
        &self,
        tenant: TenantId,
        request: SolveRequest,
        buf: &mut SpanBuf,
        req: u64,
    ) -> NetResponse {
        let gateway_span = Some("net.gateway");
        let start = buf.now_ns();
        let solver = match self.registry.build(&request.config) {
            Ok(solver) => solver,
            Err(e) => return internal_fault(e.to_string()),
        };
        let solve_span = layers::solve_span(solver.name());
        let ctx = QueryContext::new()
            .with_tenant(tenant)
            .with_priority(request.priority);
        let data = match &request.problem {
            ProblemSpec::Dataset(name) => match self.datasets.get(name) {
                Some(data) => Some(Arc::clone(data)),
                None => return internal_fault(format!("no dataset `{name}`")),
            },
            ProblemSpec::Inline { .. } => None,
        };

        // The closure stamps its own start and end: queue wait is submit →
        // start, the wake-up is end → `wait` returning.
        let stamps = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let (clock, config, label) = (self.clock, request.config, solver.label());
        let work = {
            let stamps = Arc::clone(&stamps);
            move |ctx: &QueryContext| {
                stamps[0].store(clock.now_ns(), Ordering::Relaxed);
                let outcome = match (&data, &request.problem) {
                    (Some(data), _) => solver.run(&data.problem().with_context(ctx)),
                    (
                        None,
                        ProblemSpec::Inline {
                            providers,
                            customers,
                        },
                    ) => solver.run(
                        &Problem::new(providers)
                            .with_customers(customers)
                            .with_context(ctx),
                    ),
                    (None, ProblemSpec::Dataset(_)) => unreachable!("datasets resolve above"),
                };
                stamps[1].store(clock.now_ns(), Ordering::Relaxed);
                let aborted = outcome.abort_reason();
                let (matching, stats) = outcome.into_parts();
                QueryResult {
                    index: 0,
                    label,
                    config,
                    matching,
                    stats,
                    aborted,
                }
            }
        };
        let ticket = buf.span("serve.submit", gateway_span, req, || {
            self.gateway
                .instance()
                .submit(Request::new(work).context(ctx))
        });
        let submitted = buf.now_ns();
        let result = match ticket {
            Ok(ticket) => ticket.wait(),
            Err(rejected) => return internal_fault(rejected.to_string()),
        };
        let woke = buf.now_ns();
        // The join on the ticket orders these loads after the stores.
        let ran_from = stamps[0].load(Ordering::Relaxed);
        let ran_to = stamps[1].load(Ordering::Relaxed);
        buf.push("serve.queue_wait", gateway_span, req, submitted, ran_from);
        buf.push(solve_span, gateway_span, req, ran_from, ran_to);
        buf.push("serve.wake", gateway_span, req, ran_to, woke);

        let response = match result.aborted {
            Some(reason) => internal_fault(reason.to_string()),
            None => NetResponse::Solved(SolveReply {
                matching: result.matching,
                stats: result.stats,
            }),
        };
        buf.push(
            "net.gateway",
            Some("net.frame_io"),
            req,
            start,
            buf.now_ns(),
        );
        response
    }
}

/// One traced pass: `clients` [`TracedLink`]s against a [`TracedServer`]
/// on its own loopback listener. Returns the phase and all spans.
fn measure_traced(
    stack: &Stack,
    shape: &Shape,
    clients: usize,
    seconds: f64,
    pass: Pass,
    clock: Clock,
) -> Result<(Phase, Vec<Span>), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server = TracedServer {
        gateway: &stack.gateway,
        datasets: &stack.datasets,
        registry: SolverRegistry::with_defaults(),
        pass,
        clock,
    };
    let max_frame = stack.gateway.max_frame();
    let stop = Stop {
        started: Instant::now(),
        seconds,
        min_samples: 0,
    };
    std::thread::scope(|scope| {
        // Connect one client at a time, so connection index and tenant
        // agree on both ends.
        let mut servers = Vec::new();
        let mut links = Vec::new();
        for c in 0..clients {
            let connecting =
                scope.spawn(move || TracedLink::connect(addr, pass, c, max_frame, clock));
            let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
            let server = &server;
            servers.push(scope.spawn(move || server.serve(stream, c)));
            links.push(connecting.join().expect("connect thread")?);
        }
        let handles: Vec<_> = links
            .into_iter()
            .enumerate()
            .map(|(c, mut link)| {
                let (stop, targets) = (&stop, &stack.targets);
                scope.spawn(move || {
                    let first = first_problem(c, clients, targets.len());
                    let driven = drive(&mut link, targets, shape.solvers, first, stop);
                    // Dropping the link closes the connection; its server
                    // thread then sees a clean end of stream.
                    (driven, link.buf.spans)
                })
            })
            .collect();
        let mut spans = Vec::new();
        let mut driven = Vec::new();
        for h in handles {
            let (d, s) = h.join().expect("client thread");
            driven.push(d);
            spans.extend(s);
        }
        let phase = Phase::collect(stop.started, driven);
        for h in servers {
            spans.extend(h.join().expect("server thread")?);
        }
        Ok((phase, spans))
    })
}

/// Median round trip of an empty request through the real server, µs.
fn ping_rtt_us(stack: &Stack) -> Result<f64, String> {
    let mut client = NetClient::connect(stack.server.local_addr(), WARMUP_TENANT)
        .map_err(|e| format!("ping connect: {e}"))?;
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t0 = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&rtts))
}

/// Median of a span's self time over both passes, µs.
fn own_us(passes: [&SpanTimes; 2], name: &str) -> f64 {
    let all: Vec<f64> = passes
        .iter()
        .flat_map(|t| t.own_of(name).iter().copied())
        .collect();
    median(&all) / 1e3
}

pub fn run(shape: &Shape, args: &Args, spans_out: &mut Vec<Span>) -> Result<Report, String> {
    let mut report = Report::default();
    let cores = host_cores();
    let (clients, workers) = (CLIENTS.min(2 * cores), WORKERS.min(cores));
    let (stack, setup_s) = median_setup(|| setup(shape, args.seed, workers))?;
    report.note(format!(
        "{}: {} problems of |Q|={} |P|={} k={}, solvers {:?}, {clients} closed-loop connections \
         (asked {CLIENTS}) and {workers} workers (asked {WORKERS}) on {cores} cores, TCP loopback",
        shape.name, shape.problems, shape.providers, shape.customers, shape.capacity, shape.solvers,
    ));

    if !args.trace {
        let phase = measure(&stack, shape, clients, args.seconds, MIN_SAMPLES)?;
        report.count(&phase.tally);
        report.end_to_end(&phase.tally, phase.wall_s, setup_s)?;
        stack.server.shutdown();
        return Ok(report);
    }

    // Traced run: a third of the time each for the untraced baseline, the
    // pass around `Gateway::handle`, and the pass under the gateway.
    let third = args.seconds / 3.0;
    let ping_us = ping_rtt_us(&stack)?;
    let plain = measure(&stack, shape, clients, third, 0)?;
    let clock = Clock::start();
    let (handle, mut handle_spans) =
        measure_traced(&stack, shape, clients, third, Pass::Handle, clock)?;
    let store_stats = |f: &dyn Fn(&cca::storage::PageStore) -> u64| -> u64 {
        stack.datasets.values().map(|d| f(d.tree().store())).sum()
    };
    let locks_before = store_stats(&|s| s.lock_acquisitions());
    let reads_before = store_stats(&|s| s.io_stats().logical_reads());
    let (under, mut under_spans) =
        measure_traced(&stack, shape, clients, third, Pass::UnderGateway, clock)?;
    let locks = store_stats(&|s| s.lock_acquisitions()) - locks_before;
    let reads = store_stats(&|s| s.io_stats().logical_reads()) - reads_before;
    for phase in [&plain, &handle, &under] {
        report.count(&phase.tally);
    }
    let handle_times = span_times(&mut handle_spans);
    let under_times = span_times(&mut under_spans);
    let both = [&handle_times, &under_times];

    // cca-net.
    report.set("net.req_encode_us", own_us(both, "net.req_encode"));
    report.set("net.req_decode_us", own_us(both, "net.req_decode"));
    report.set("net.resp_encode_us", own_us(both, "net.resp_encode"));
    report.set("net.resp_decode_us", own_us(both, "net.resp_decode"));
    report.set("net.frame_io_us", own_us(both, "net.frame_io"));
    // The steps of `Gateway::solve` around submit and wait, timed on the
    // benchmark's replica of it; the first pass, around the real
    // `Gateway::handle`, shows the replica costs the same as the original.
    report.set(
        "net.gateway_self_us",
        median(under_times.own_of("net.gateway")) / 1e3,
    );
    report.note(format!(
        "Gateway::handle p50 {:.3} ms, the benchmark's replica of it {:.3} ms",
        median(handle_times.total_of("net.gateway")) / 1e6,
        median(under_times.total_of("net.gateway")) / 1e6,
    ));
    report.set("net.ping_rtt_us", ping_us);
    let cycle_requests = under.first_cycle.requests.max(1) as f64;
    report.set(
        "net.req_bytes",
        under.first_cycle_bytes.0 as f64 / cycle_requests,
    );
    report.set(
        "net.resp_bytes",
        under.first_cycle_bytes.1 as f64 / cycle_requests,
    );
    let root_ns = under_times.total_sum("request");
    let net_ns: f64 = [
        "net.req_encode",
        "net.frame_io",
        "net.req_decode",
        "net.gateway",
        "net.resp_encode",
        "net.resp_decode",
    ]
    .iter()
    .map(|name| under_times.own_sum(name))
    .sum();
    report.set("net.share_pct", net_ns / root_ns * 100.0);

    // cca-serve.
    report.set(
        "serve.submit_us",
        median(under_times.own_of("serve.submit")) / 1e3,
    );
    report.set(
        "serve.queue_wait_us",
        median(under_times.own_of("serve.queue_wait")) / 1e3,
    );
    report.set(
        "serve.wake_us",
        median(under_times.own_of("serve.wake")) / 1e3,
    );
    let tenants = stack.gateway.instance().tenant_stats();
    let loaded: Vec<_> = tenants
        .iter()
        .filter(|t| t.tenant != WARMUP_TENANT)
        .collect();
    let dispatched: u64 = loaded.iter().map(|t| t.dispatched).sum();
    let first = loaded
        .iter()
        .find(|t| t.tenant == TenantId(1))
        .ok_or("tenant 1 has no serving stats")?;
    report.set(
        "serve.rejected",
        tenants.iter().map(|t| t.rejected).sum::<u64>() as f64,
    );
    report.set(
        "serve.tenant_share",
        first.dispatched as f64 / dispatched as f64,
    );
    report.set(
        "serve.tenant_mean_latency_ms",
        first.mean_latency().as_secs_f64() * 1e3,
    );

    // cca-core and below.
    report.not_exercised(layers::DYNAMIC);
    layers::set_solver_times(&mut report, &under_times);
    under.first_cycle.set_algo(&mut report);
    under
        .first_cycle
        .set_storage(&mut report, locks as f64 * 1e3 / reads.max(1) as f64);
    let probe = &stack.targets[0];
    let queries: Vec<_> = probe.providers.iter().map(|&(p, _)| p).collect();
    layers::set_probes(
        &mut report,
        &probes::rtree(&probe.customers, &queries, &[]),
        &probes::storage(&probe.customers),
        &probes::flow(&probe.providers, &probe.customers),
    );
    if !shape.preloaded {
        report.note(
            "the rtree.* and storage.*_read_ns probes ran on a tree this workload never builds"
                .into(),
        );
    }

    let traced_latencies: Vec<f64> = [&handle, &under]
        .iter()
        .flat_map(|p| p.tally.latencies_ms.iter().copied())
        .collect();
    layers::set_trace_quality(
        &mut report,
        &under_times,
        layers::overhead_pct(&plain.tally.latencies_ms, &traced_latencies),
    );
    report.note(format!(
        "{} + {} traced requests (around / under the gateway), {} untraced; \
         solve spans cover {:.1} % of the under-gateway requests",
        handle.tally.verified(),
        under.tally.verified(),
        plain.tally.verified(),
        layers::solve_total_ns(&under_times) / root_ns * 100.0,
    ));
    spans_out.append(&mut handle_spans);
    spans_out.append(&mut under_spans);
    stack.server.shutdown();
    Ok(report)
}
