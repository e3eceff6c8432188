//! Protocol hardening for `elfie-serve`: every frame round-trips, every
//! corruption is a typed error, and no input — truncated, oversized, or
//! arbitrary bytes — ever panics the decoder.

use elfie::trace::{HistogramSnapshot, MetricsSnapshot, HISTOGRAM_BUCKETS};
use elfie_serve::protocol::{read_frame, write_frame};
use elfie_serve::{
    frame_rid, with_rid, FrameError, JobKind, JobPhase, JobSpec, JobSummary, Request, Response,
    ServeStats, MAX_FRAME,
};
use proptest::collection::{btree_map, vec};
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = JobKind> {
    prop_oneof![
        Just(JobKind::Record),
        Just(JobKind::Validate),
        Just(JobKind::Replay),
        Just(JobKind::Simulate),
    ]
}

/// Arbitrary job specs: unicode workload/scale/sim names (the protocol
/// must carry them even if the daemon later rejects them) and the full
/// u64 domain on every knob.
fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    (
        (kind_strategy(), ".*", ".*", ".*"),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((kind, workload, scale, sim), (slice, warmup, maxk, seed), (fuel, start, length))| {
                JobSpec {
                    kind,
                    workload,
                    scale,
                    slice,
                    warmup,
                    maxk,
                    seed,
                    fuel,
                    start,
                    length,
                    sim,
                }
            },
        )
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        (".*", spec_strategy(), any::<bool>()).prop_map(|(tenant, job, follow)| Request::Submit {
            tenant,
            job,
            follow
        }),
        any::<u64>().prop_map(|watch_ms| Request::Jobs { watch_ms }),
        Just(Request::Stats),
        Just(Request::Metrics),
        Just(Request::Shutdown),
    ]
}

fn summary_strategy() -> impl Strategy<Value = JobSummary> {
    (
        any::<u64>(),
        ".*",
        kind_strategy(),
        ".*",
        any::<u64>(),
        ".*",
        ".*",
    )
        .prop_map(
            |(id, tenant, kind, workload, shard, state, phase)| JobSummary {
                id,
                tenant,
                kind,
                workload,
                shard,
                state,
                phase,
            },
        )
}

fn phase_strategy() -> impl Strategy<Value = JobPhase> {
    prop_oneof![Just(JobPhase::Queued), Just(JobPhase::Run)]
}

fn histogram_strategy() -> impl Strategy<Value = HistogramSnapshot> {
    // Sparse bucket fills: the wire format keys buckets by floor value
    // and drops empty ones, so a few scattered non-zero counts exercise
    // the interesting encode/decode paths.
    (
        btree_map(0..HISTOGRAM_BUCKETS, 1..u64::MAX, 0..6),
        any::<u64>(),
    )
        .prop_map(|(filled, sum)| {
            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            for (i, n) in filled {
                buckets[i] = n;
            }
            HistogramSnapshot { buckets, sum }
        })
}

fn metrics_strategy() -> impl Strategy<Value = MetricsSnapshot> {
    (
        btree_map(".*", any::<u64>(), 0..4),
        btree_map(".*", any::<i64>(), 0..4),
        btree_map(".*", histogram_strategy(), 0..3),
    )
        .prop_map(|(counters, gauges, histograms)| MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
}

fn stats_strategy() -> impl Strategy<Value = ServeStats> {
    (
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |(
                (accepted, rejected_busy, completed, failed, connections),
                (cache_hits, cache_misses, store_hits, store_puts, peak_rss_bytes, owned_rss_bytes),
            )| ServeStats {
                accepted,
                rejected_busy,
                completed,
                failed,
                connections,
                cache_hits,
                cache_misses,
                store_hits,
                store_puts,
                peak_rss_bytes,
                owned_rss_bytes,
            },
        )
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        (".*", any::<u64>()).prop_map(|(version, protocol)| Response::Pong { version, protocol }),
        (
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            ".*"
        )
            .prop_map(|((id, shard, queue_ns, run_ns), report)| Response::Done {
                id,
                shard,
                queue_ns,
                run_ns,
                report,
            }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(shard, capacity)| Response::Busy { shard, capacity }),
        ".*".prop_map(|message| Response::Error { message }),
        vec(summary_strategy(), 0..5).prop_map(|jobs| Response::Jobs { jobs }),
        stats_strategy().prop_map(|stats| Response::Stats { stats }),
        metrics_strategy().prop_map(|metrics| Response::Metrics { metrics }),
        (any::<u64>(), any::<u64>(), phase_strategy())
            .prop_map(|(id, shard, phase)| Response::Progress { id, shard, phase }),
        any::<u64>().prop_map(|drained| Response::Bye { drained }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request survives encode → frame → deframe → decode exactly,
    /// arbitrary payload strings included.
    #[test]
    fn requests_roundtrip(req in request_strategy()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.to_json()).expect("write");
        let doc = read_frame(&mut buf.as_slice()).expect("read");
        prop_assert_eq!(Request::from_json(&doc).expect("decode"), req);
    }

    /// Every response survives the same loop — including `jobs` tables
    /// and full-domain counters.
    #[test]
    fn responses_roundtrip(resp in response_strategy()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp.to_json()).expect("write");
        let doc = read_frame(&mut buf.as_slice()).expect("read");
        prop_assert_eq!(Response::from_json(&doc).expect("decode"), resp);
    }

    /// A request-id stamped onto any request envelope survives the
    /// frame loop: the decoded document reports the same rid, and the
    /// request body decodes unchanged. A zero rid stamps nothing.
    #[test]
    fn request_ids_survive_the_frame_loop(req in request_strategy(), rid in any::<u64>()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &with_rid(req.to_json(), rid)).expect("write");
        let doc = read_frame(&mut buf.as_slice()).expect("read");
        prop_assert_eq!(frame_rid(&doc), rid);
        prop_assert_eq!(Request::from_json(&doc).expect("decode"), req);
    }

    /// Truncating a valid frame at ANY offset yields a typed error
    /// (`Closed` at the boundary, `Truncated` inside) — never a panic,
    /// never a bogus success.
    #[test]
    fn truncation_at_any_offset_is_typed(req in request_strategy()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.to_json()).expect("write");
        prop_assert_eq!(read_frame(&mut [].as_slice()), Err(FrameError::Closed));
        for cut in 1..buf.len() {
            match read_frame(&mut &buf[..cut]) {
                Err(FrameError::Truncated { expected, got }) => {
                    prop_assert_eq!(got, cut);
                    prop_assert!(expected > got);
                }
                other => {
                    return Err(TestCaseError::fail(format!("cut at {cut}: {other:?}")));
                }
            }
        }
    }

    /// The streamed frames get the same truncation guarantee: `metrics`
    /// and `progress` responses cut at any offset are typed errors.
    #[test]
    fn response_truncation_at_any_offset_is_typed(resp in response_strategy()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp.to_json()).expect("write");
        for cut in 1..buf.len() {
            match read_frame(&mut &buf[..cut]) {
                Err(FrameError::Truncated { expected, got }) => {
                    prop_assert_eq!(got, cut);
                    prop_assert!(expected > got);
                }
                other => {
                    return Err(TestCaseError::fail(format!("cut at {cut}: {other:?}")));
                }
            }
        }
    }

    /// A length prefix above [`MAX_FRAME`] is rejected before any
    /// allocation, whatever follows it.
    #[test]
    fn oversized_prefix_is_rejected(extra in any::<u32>(), tail in vec(any::<u8>(), 0..64)) {
        let len = MAX_FRAME.saturating_add(extra.max(1));
        let mut frame = len.to_be_bytes().to_vec();
        frame.extend_from_slice(&tail);
        prop_assert_eq!(
            read_frame(&mut frame.as_slice()),
            Err(FrameError::Oversized { len })
        );
    }

    /// Arbitrary bytes under a correct length prefix never panic: the
    /// decoder answers `Ok` (it happened to be JSON) or a typed
    /// `Malformed` — and envelope decoding of whatever parsed is also
    /// panic-free.
    #[test]
    fn arbitrary_payload_bytes_never_panic(payload in vec(any::<u8>(), 0..256)) {
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&payload);
        match read_frame(&mut frame.as_slice()) {
            Ok(doc) => {
                let _ = Request::from_json(&doc);
                let _ = Response::from_json(&doc);
            }
            Err(FrameError::Malformed(m)) => prop_assert!(!m.is_empty()),
            other => {
                return Err(TestCaseError::fail(format!("unexpected: {other:?}")));
            }
        }
    }

    /// Envelope decoding is total over arbitrary `type` strings: any
    /// unknown type is a named error, never a panic or silent default.
    #[test]
    fn unknown_envelope_types_are_named(ty in ".*") {
        use elfie::trace::json::Json;
        let doc = Json::Obj(vec![("type".to_string(), Json::Str(ty.clone()))]);
        match (Request::from_json(&doc), ty.as_str()) {
            (Ok(_), "ping" | "submit" | "jobs" | "stats" | "metrics" | "shutdown") => {}
            (Ok(req), other) => {
                return Err(TestCaseError::fail(format!("`{other}` decoded to {req:?}")));
            }
            (Err(e), _) => prop_assert!(!e.is_empty()),
        }
    }

    /// A `progress` frame whose phase name is outside the wire set is a
    /// typed error naming the offender — never a panic or a default.
    /// `slice` and `render` are phase names of the retired sharded
    /// simulate, whose frames also carried `done`/`total`.
    #[test]
    fn unknown_phase_strings_are_typed_errors(
        name in prop_oneof![".*", Just("slice".to_string()), Just("render".to_string())],
        done in any::<u64>(),
        total in any::<u64>(),
    ) {
        use elfie::trace::json::Json;
        let doc = Json::Obj(vec![
            ("type".to_string(), Json::Str("progress".to_string())),
            ("id".to_string(), Json::U64(1)),
            ("shard".to_string(), Json::U64(0)),
            ("phase".to_string(), Json::Str(name.clone())),
            ("done".to_string(), Json::U64(done)),
            ("total".to_string(), Json::U64(total)),
        ]);
        match (Response::from_json(&doc), name.as_str()) {
            (Ok(Response::Progress { phase, .. }), "queued" | "run") => {
                prop_assert_eq!(phase.name(), name.as_str());
            }
            (Ok(resp), other) => {
                return Err(TestCaseError::fail(format!("phase `{other}` decoded to {resp:?}")));
            }
            (Err(e), _) => prop_assert!(e.contains("unknown job phase"), "{}", e),
        }
    }
}
