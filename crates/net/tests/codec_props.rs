//! Property tests for the frame codec and the protocol encodings:
//! arbitrary payloads and messages roundtrip; truncated, oversized and
//! garbage inputs produce typed [`WireError`]s — never a panic, never a
//! silent wrong answer.

use std::io::Cursor;
use std::time::{Duration, Instant};

use cca_core::{AlgoStats, MatchPair, Matching, SolverConfig};
use cca_geo::Point;
use cca_net::codec::{self, WireError};
use cca_net::{
    ErrorCode, NetRequest, NetResponse, ProblemSpec, SolveReply, SolveRequest, StatsReply,
    WireFault,
};
use cca_serve::TenantStats;
use cca_storage::{IoStats, Priority, TenantId};
use proptest::collection;
use proptest::prelude::*;

const MAX: usize = 64 * 1024;

fn arb_point() -> impl Strategy<Value = Point> {
    (-1.0e6f64..1.0e6, -1.0e6f64..1.0e6).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_problem() -> impl Strategy<Value = ProblemSpec> {
    prop_oneof![
        (0usize..5).prop_map(|i| ProblemSpec::Dataset(format!("dataset-{i}"))),
        (
            collection::vec((arb_point(), 1u32..50), 1..6),
            collection::vec(arb_point(), 0..8),
        )
            .prop_map(|(providers, customers)| ProblemSpec::Inline {
                providers,
                customers,
            }),
    ]
}

fn arb_solve() -> impl Strategy<Value = SolveRequest> {
    let names = ["ida", "sspa", "ria", "nia", "ca"];
    let priority = prop_oneof![
        Just(Priority::Low),
        Just(Priority::Normal),
        Just(Priority::High),
        Just(Priority::Critical),
    ];
    (
        0usize..names.len(),
        arb_problem(),
        priority,
        prop_oneof![Just(None), (1u64..60_000).prop_map(Some)],
        prop_oneof![Just(None), (1u64..1_000_000).prop_map(Some)],
    )
        .prop_map(move |(name, problem, priority, deadline_ms, io_budget)| {
            let mut req =
                SolveRequest::new(SolverConfig::new(names[name]), problem).priority(priority);
            if let Some(ms) = deadline_ms {
                req = req.deadline(Duration::from_millis(ms));
            }
            if let Some(faults) = io_budget {
                req = req.io_budget(faults);
            }
            req
        })
}

fn arb_request() -> impl Strategy<Value = NetRequest> {
    prop_oneof![
        arb_solve().prop_map(NetRequest::Solve),
        Just(NetRequest::Stats),
        Just(NetRequest::Ping),
    ]
}

/// Any finite `f64`, drawn by bit pattern: every exponent, the subnormal
/// range, both zeros and the extremes.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(|bits| {
            let x = f64::from_bits(bits);
            // NaN and ±inf have an all-ones exponent; clearing its top bit
            // keeps the rest of the pattern.
            if x.is_finite() {
                x
            } else {
                f64::from_bits(bits & !(1 << 62))
            }
        }),
        // An all-zeros exponent: subnormals and ±0.0.
        any::<u64>().prop_map(|bits| f64::from_bits(bits & !(0x7ff << 52))),
        prop_oneof![
            Just(-0.0),
            Just(5e-324),
            Just(f64::MIN_POSITIVE),
            Just(1e308),
            Just(-1e308),
            Just(f64::MAX),
        ],
    ]
}

fn arb_duration() -> impl Strategy<Value = Duration> {
    (any::<u64>(), 0u32..1_000_000_000).prop_map(|(secs, nanos)| Duration::new(secs, nanos))
}

fn arb_io() -> impl Strategy<Value = IoStats> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(hits, faults, writes)| IoStats {
        hits,
        faults,
        writes,
    })
}

fn arb_stats() -> impl Strategy<Value = AlgoStats> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        arb_duration(),
        arb_io(),
    )
        .prop_map(
            |((esub_edges, dijkstra_runs, settled), (pua, iters, invalid, fast), cpu_time, io)| {
                AlgoStats {
                    esub_edges,
                    dijkstra_runs,
                    settled,
                    pua_runs: pua,
                    iterations: iters,
                    invalid_paths: invalid,
                    fast_phase_matches: fast,
                    cpu_time,
                    io,
                }
            },
        )
}

fn arb_pair() -> impl Strategy<Value = MatchPair> {
    (
        any::<usize>(),
        any::<u64>(),
        any::<u32>(),
        arb_f64(),
        (arb_f64(), arb_f64()),
    )
        .prop_map(|(provider, customer, units, dist, (x, y))| MatchPair {
            provider,
            customer,
            units,
            dist,
            customer_pos: Point::new(x, y),
        })
}

fn arb_tenant() -> impl Strategy<Value = TenantStats> {
    (
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<usize>(), any::<usize>(), arb_io()),
        (arb_duration(), arb_duration(), arb_f64()),
    )
        .prop_map(
            |(
                (tenant, weight, submitted, rejected),
                (dispatched, completed, aborted, cancelled_queued),
                (queued, in_flight, io),
                (total_latency, max_latency, qps),
            )| TenantStats {
                tenant: TenantId(tenant),
                weight,
                submitted,
                rejected,
                dispatched,
                completed,
                aborted,
                cancelled_queued,
                queued,
                in_flight,
                io,
                total_latency,
                max_latency,
                qps,
            },
        )
}

fn arb_response() -> impl Strategy<Value = NetResponse> {
    let codes = ErrorCode::ALL;
    prop_oneof![
        (collection::vec(arb_pair(), 0..40), arb_stats()).prop_map(|(pairs, stats)| {
            NetResponse::Solved(SolveReply {
                matching: Matching { pairs },
                stats,
            })
        }),
        (0..codes.len(), arb_stats(), any::<bool>()).prop_map(move |(code, stats, ran)| {
            NetResponse::Error(WireFault {
                code: codes[code],
                message: format!("fault \"{code}\"\n\u{1} ü"),
                partial_stats: ran.then_some(stats),
            })
        }),
        collection::vec(arb_tenant(), 0..5)
            .prop_map(|tenants| NetResponse::Stats(StatsReply { tenants })),
        Just(NetResponse::Pong),
    ]
}

fn bits(p: &MatchPair) -> [u64; 3] {
    [
        p.dist.to_bits(),
        p.customer_pos.x.to_bits(),
        p.customer_pos.y.to_bits(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_payloads_roundtrip_through_frames(
        payloads in collection::vec(collection::vec(any::<u8>(), 0..512), 1..8),
    ) {
        let mut wire = Vec::new();
        for payload in &payloads {
            codec::write_frame(&mut wire, payload, MAX).unwrap();
        }
        let mut reader = Cursor::new(wire);
        for payload in &payloads {
            let got = codec::read_frame(&mut reader, MAX).unwrap().unwrap();
            prop_assert_eq!(&got, payload);
        }
        prop_assert!(codec::read_frame(&mut reader, MAX).unwrap().is_none());
    }

    #[test]
    fn any_truncation_is_a_typed_error_never_a_panic(
        payload in collection::vec(any::<u8>(), 0..256),
        cut_seed in any::<u64>(),
    ) {
        let mut wire = Vec::new();
        codec::write_frame(&mut wire, &payload, MAX).unwrap();
        // Cut strictly inside the frame (cut == len would be a clean EOF
        // *after* it, cut == 0 a clean EOF *before* it).
        let cut = 1 + (cut_seed as usize) % (wire.len() - 1);
        let mut reader = Cursor::new(wire[..cut].to_vec());
        prop_assert!(matches!(
            codec::read_frame(&mut reader, MAX),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn garbage_bytes_never_panic_the_frame_reader(
        garbage in collection::vec(any::<u8>(), 0..64),
    ) {
        // Whatever the bytes, the reader returns a frame, a clean EOF or
        // a typed error — the match is exhaustive on purpose.
        let mut reader = Cursor::new(garbage);
        match codec::read_frame(&mut reader, 16) {
            Ok(Some(frame)) => assert!(frame.len() <= 16),
            Ok(None) => {}
            Err(WireError::Truncated)
            | Err(WireError::FrameTooLarge { .. })
            | Err(WireError::Io(_))
            | Err(WireError::Malformed(_)) => {}
        }
    }

    #[test]
    fn garbage_bytes_never_panic_the_message_decoder(
        garbage in collection::vec(any::<u8>(), 0..128),
    ) {
        if let Err(e) = codec::decode::<NetRequest>(&garbage) {
            prop_assert!(matches!(e, WireError::Malformed(_)));
        }
    }

    #[test]
    fn oversized_declared_lengths_are_rejected_without_allocating(
        declared in (17u32..u32::MAX),
        trailing in collection::vec(any::<u8>(), 0..16),
    ) {
        let mut wire = declared.to_be_bytes().to_vec();
        wire.extend_from_slice(&trailing);
        let mut reader = Cursor::new(wire);
        prop_assert!(matches!(
            codec::read_frame(&mut reader, 16),
            Err(WireError::FrameTooLarge { max: 16, .. })
        ));
    }

    #[test]
    fn protocol_messages_roundtrip_through_the_codec(request in arb_request()) {
        let bytes = codec::encode(&request);
        prop_assert!(bytes.len() <= MAX, "requests stay well under the bound");
        let back: NetRequest = codec::decode(&bytes).unwrap();
        // Objects are written in ascending key order, so byte-equal
        // re-encoding means the decoded message is the same message.
        prop_assert_eq!(codec::encode(&back), bytes);
    }

    #[test]
    fn replies_roundtrip_through_the_codec(response in arb_response()) {
        let bytes = codec::encode(&response);
        let back: NetResponse = codec::decode(&bytes).unwrap();
        prop_assert_eq!(codec::encode(&back), bytes);
        if let (NetResponse::Solved(sent), NetResponse::Solved(got)) = (&response, &back) {
            let sent: Vec<_> = sent.matching.pairs.iter().map(bits).collect();
            let got: Vec<_> = got.matching.pairs.iter().map(bits).collect();
            prop_assert_eq!(got, sent);
        }
    }

    #[test]
    fn finite_floats_roundtrip_bit_exactly(x in arb_f64()) {
        let back: f64 = codec::decode(&codec::encode(&x)).unwrap();
        prop_assert_eq!(back.to_bits(), x.to_bits());
    }
}

/// A two-pair reply and a two-provider, two-customer inline request whose
/// float columns hold 1.0–6.0, so tests can find each column's text.
fn column_messages() -> (String, String) {
    let pair = |i: usize, dist: f64, x: f64, y: f64| MatchPair {
        provider: i,
        customer: i as u64,
        units: 1,
        dist,
        customer_pos: Point::new(x, y),
    };
    let reply = NetResponse::Solved(SolveReply {
        matching: Matching {
            pairs: vec![pair(0, 1.0, 3.0, 5.0), pair(1, 2.0, 4.0, 6.0)],
        },
        stats: AlgoStats::default(),
    });
    let request = NetRequest::Solve(SolveRequest::new(
        SolverConfig::new("sspa"),
        ProblemSpec::Inline {
            providers: vec![(Point::new(1.0, 3.0), 1), (Point::new(2.0, 4.0), 1)],
            customers: vec![Point::new(5.0, 1.0), Point::new(6.0, 2.0)],
        },
    ));
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).unwrap();
    (text(codec::encode(&reply)), text(codec::encode(&request)))
}

const ONE: &str = "3ff0000000000000";
const TWO: &str = "4000000000000000";

#[test]
fn malformed_columns_are_typed_errors() {
    let (reply, request) = column_messages();
    let dist = format!(r#""dist":"{ONE}{TWO}""#);
    assert!(reply.contains(&dist), "{reply}");
    let x = format!(r#""x":"{ONE}{TWO}""#);
    assert!(request.contains(&x), "{request}");
    codec::decode::<NetResponse>(reply.as_bytes()).unwrap();
    codec::decode::<NetRequest>(request.as_bytes()).unwrap();

    let float_cases = [
        // Length not a multiple of 16.
        format!("{ONE}{}", &TWO[1..]),
        format!("{ONE}{TWO}0"),
        // Bytes outside [0-9a-f]: a letter past f, uppercase, non-ASCII.
        format!("{ONE}400000000000000g"),
        format!("3FF0000000000000{TWO}"),
        format!("{ONE}4000000000000é"),
        // NaN (quiet, signalling, with a payload) and ±∞.
        format!("{ONE}7ff8000000000000"),
        format!("{ONE}7ff0000000000001"),
        format!("{ONE}fff8000000000001"),
        format!("{ONE}7ff0000000000000"),
        format!("{ONE}fff0000000000000"),
        // One value where the other columns hold two.
        ONE.to_string(),
        format!("{ONE}{TWO}{ONE}"),
    ];
    let int_cases = [
        (r#""customer":[0,1]"#, r#""customer":[0,1,2]"#),
        (r#""provider":[0,1]"#, r#""provider":[0]"#),
        (r#""units":[1,1]"#, r#""units":[]"#),
    ];
    let mut replies: Vec<String> = float_cases
        .iter()
        .map(|bad| reply.replacen(&dist, &format!(r#""dist":"{bad}""#), 1))
        .collect();
    for (good, bad) in int_cases {
        assert!(reply.contains(good), "{reply}");
        replies.push(reply.replacen(good, bad, 1));
    }
    for bad in &replies {
        assert_ne!(bad, &reply);
        assert!(
            matches!(
                codec::decode::<NetResponse>(bad.as_bytes()),
                Err(WireError::Malformed(_))
            ),
            "{bad}"
        );
    }

    let mut requests: Vec<String> = float_cases
        .iter()
        .map(|bad| request.replacen(&x, &format!(r#""x":"{bad}""#), 1))
        .collect();
    requests.push(request.replacen(r#""k":[1,1]"#, r#""k":[1,1,1]"#, 1));
    for bad in &requests {
        assert_ne!(bad, &request);
        assert!(
            matches!(
                codec::decode::<NetRequest>(bad.as_bytes()),
                Err(WireError::Malformed(_))
            ),
            "{bad}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn corrupted_column_messages_never_panic_the_decoder(
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let (reply, request) = column_messages();
        for (text, is_reply) in [(reply, true), (request, false)] {
            let mut bytes = text.into_bytes();
            let at = at % bytes.len();
            bytes[at] = byte;
            let err = if is_reply {
                codec::decode::<NetResponse>(&bytes).err()
            } else {
                codec::decode::<NetRequest>(&bytes).err()
            };
            if let Some(e) = err {
                prop_assert!(matches!(e, WireError::Malformed(_)), "{e}");
            }
        }
    }
}

#[test]
fn a_mebibyte_of_brackets_is_malformed_not_a_stack_overflow() {
    let brackets = vec![b'['; 1 << 20];
    assert!(matches!(
        codec::decode::<NetRequest>(&brackets),
        Err(WireError::Malformed(_))
    ));
    // The same nesting where a decoder has to walk it: inside a key the
    // request type skips, and as a dynamic tree.
    let mut hidden = br#"{"kind":"ping","pad":"#.to_vec();
    hidden.extend_from_slice(&brackets);
    for err in [
        codec::decode::<NetRequest>(&hidden).map(drop),
        codec::decode::<serde::Value>(&brackets).map(drop),
    ] {
        match err {
            Err(WireError::Malformed(msg)) => assert!(msg.contains("nesting deeper than 128")),
            other => panic!("expected a nesting error, got {other:?}"),
        }
    }
}

/// A `Solved` reply of `pairs` pairs, shaped like a real one.
fn reply(pairs: usize) -> Vec<u8> {
    let pairs = (0..pairs)
        .map(|i| {
            let t = i as f64;
            MatchPair {
                provider: i % 61,
                customer: i as u64,
                units: 1,
                dist: (t * 0.37).sin().abs() * 812.3,
                customer_pos: Point::new(t * 13.71 % 997.3, t * 7.13 % 991.7),
            }
        })
        .collect();
    codec::encode(&NetResponse::Solved(SolveReply {
        matching: Matching { pairs },
        stats: AlgoStats::default(),
    }))
}

/// Best-of-5 decode time per byte, decoding `payload` `reps` times a run.
fn decode_ns_per_byte(payload: &[u8], reps: usize) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(codec::decode::<NetResponse>(payload).unwrap());
            }
            start.elapsed().as_nanos() as f64 / (payload.len() * reps) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing test: run with --release")]
fn decode_time_is_linear_in_reply_size() {
    let small = reply(128);
    let large = reply(16_384);
    assert!((7_000..10_000).contains(&small.len()), "{}", small.len());
    assert!(
        (900_000..1_200_000).contains(&large.len()),
        "{}",
        large.len()
    );
    let small_rate = decode_ns_per_byte(&small, large.len() / small.len());
    let large_rate = decode_ns_per_byte(&large, 1);
    assert!(
        large_rate < 2.0 * small_rate,
        "decode costs {large_rate:.2} ns/B at {} B but {small_rate:.2} ns/B at {} B",
        large.len(),
        small.len(),
    );
}
