//! The perf-regression gate's contracts, property-tested:
//!
//! 1. the threshold comparator is **monotone** — a faster measurement
//!    never fails, a slower-beyond-band measurement always fails, and
//!    passing is upward-closed (downward for cost metrics);
//! 2. baseline documents **round-trip exactly** through the v1 JSON
//!    schema (field-for-field and as a render→parse→render fixed point);
//! 3. every checked-in `BENCH_*.json` parses under the shared schema, so
//!    snapshots cannot drift back to ad-hoc shapes, and CI gates each
//!    one;
//! 4. a synthetically 2×-slower candidate trips the gate with an
//!    actionable per-metric diff (the negative self-test for CI).

use elfie::trace::json::Json;
use elfie_bench::harness::compare::{compare, judge};
use elfie_bench::harness::doc::{check_schema, BenchDoc, Direction, Metric, ScenarioResult};
use proptest::prelude::*;

/// A positive, finite metric value built from integer parts (the
/// vendored proptest shim has no float range strategy); spans ~9 orders
/// of magnitude with non-trivial fractional bits.
fn value_strategy() -> impl Strategy<Value = f64> {
    (1u64..1_000_000_000, 0u64..1000)
        .prop_map(|(mantissa, frac)| mantissa as f64 / 1000.0 + frac as f64 / 1_000_000.0)
}

fn metric(value: f64, tol: f64, dir: Direction, calibrated: bool) -> Metric {
    let m = match dir {
        Direction::HigherIsBetter => Metric::higher("m", value, "u", tol),
        Direction::LowerIsBetter => Metric::lower("m", value, "u", tol),
    };
    if calibrated {
        m
    } else {
        m.uncalibrated()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Passing is monotone in the measurement: for higher-is-better,
    /// pass(m) implies pass(m') for every m' ≥ m; mirrored for
    /// lower-is-better. "Faster never fails" is the upward closure.
    #[test]
    fn judge_is_monotone(
        value in value_strategy(),
        tol_millis in 0u64..1500,
        probe_millis in 50u64..20_000,
        a in value_strategy(),
        b in value_strategy(),
        dir_higher in 0u8..2,
        calibrated in 0u8..2,
    ) {
        let dir = if dir_higher == 1 { Direction::HigherIsBetter } else { Direction::LowerIsBetter };
        let m = metric(value, tol_millis as f64 / 1000.0, dir, calibrated == 1);
        let probe_ratio = probe_millis as f64 / 1000.0;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (_, _, pass_lo) = judge(&m, lo, probe_ratio);
        let (_, _, pass_hi) = judge(&m, hi, probe_ratio);
        match dir {
            // Once a value passes, every larger one does.
            Direction::HigherIsBetter => prop_assert!(!pass_lo || pass_hi,
                "pass({lo}) but fail({hi}) against baseline {value}"),
            // Once a value passes, every smaller one does.
            Direction::LowerIsBetter => prop_assert!(!pass_hi || pass_lo,
                "pass({hi}) but fail({lo}) against baseline {value}"),
        }
    }

    /// Meeting or beating the (probe-scaled) expectation always passes,
    /// whatever the band; a regression strictly beyond the band always
    /// fails.
    #[test]
    fn improvements_pass_and_beyond_band_fails(
        value in value_strategy(),
        tol_millis in 0u64..900,
        probe_millis in 50u64..20_000,
        dir_higher in 0u8..2,
        calibrated in 0u8..2,
    ) {
        let dir = if dir_higher == 1 { Direction::HigherIsBetter } else { Direction::LowerIsBetter };
        let m = metric(value, tol_millis as f64 / 1000.0, dir, calibrated == 1);
        let probe_ratio = probe_millis as f64 / 1000.0;
        let (expected, threshold, _) = judge(&m, value, probe_ratio);
        prop_assert!(judge(&m, expected, probe_ratio).2, "meeting expectation must pass");
        prop_assert!(judge(&m, threshold, probe_ratio).2, "the band edge itself passes");
        match dir {
            Direction::HigherIsBetter => {
                prop_assert!(judge(&m, expected * 1e6, probe_ratio).2, "improvement must pass");
                let beyond = threshold * 0.99 - 1e-9;
                prop_assert!(!judge(&m, beyond, probe_ratio).2,
                    "regression beyond the band must fail ({beyond} vs floor {threshold})");
            }
            Direction::LowerIsBetter => {
                prop_assert!(judge(&m, expected / 1e6, probe_ratio).2, "improvement must pass");
                let beyond = threshold * 1.01 + 1e-9;
                prop_assert!(!judge(&m, beyond, probe_ratio).2,
                    "regression beyond the band must fail ({beyond} vs ceiling {threshold})");
            }
        }
    }

    /// Documents survive JSON exactly: every field equal after a
    /// round-trip, and render→parse→render is a fixed point (so
    /// re-snapshotting an unchanged baseline produces a zero diff).
    #[test]
    fn document_roundtrips_exactly_for_arbitrary_content(
        probe in value_strategy(),
        values in proptest::collection::vec(value_strategy(), 1..6),
        tol_millis in 0u64..1500,
        runs in 1u64..12,
        name in ".*",
        notes in ".*",
    ) {
        let metrics: Vec<Metric> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let dir = if i % 2 == 0 { Direction::HigherIsBetter } else { Direction::LowerIsBetter };
                let mut m = metric(v, tol_millis as f64 / 1000.0, dir, i % 3 != 0);
                m.name = format!("metric_{i}");
                m.unit = format!("u{i}");
                m
            })
            .collect();
        let doc = BenchDoc {
            profile: "smoke".to_string(),
            probe_mips: probe,
            date: "2026-08-08".to_string(),
            notes,
            scenarios: vec![ScenarioResult {
                name,
                runs,
                notes: "prop fixture".to_string(),
                metrics,
            }],
        };
        let text = doc.to_json().render_pretty();
        let parsed = Json::parse(&text).unwrap();
        check_schema(&parsed).unwrap();
        let back = BenchDoc::from_json(&parsed).unwrap();
        prop_assert_eq!(&back, &doc);
        prop_assert_eq!(back.to_json().render_pretty(), text, "render is a fixed point");
    }
}

/// Every checked-in baseline parses under the shared v1 schema — the
/// guard against snapshots drifting back to ad-hoc shapes.
#[test]
fn checked_in_baselines_follow_the_v1_schema() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&root).expect("repo root") {
        let path = entry.expect("dir entry").path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read baseline");
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        check_schema(&json).unwrap_or_else(|e| panic!("{name}: schema: {e}"));
        let doc = BenchDoc::from_json(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!doc.scenarios.is_empty(), "{name}: no scenarios");
        assert!(doc.probe_mips > 0.0, "{name}: missing calibration probe");
        for s in &doc.scenarios {
            assert!(!s.metrics.is_empty(), "{name}/{}: no metrics", s.name);
            assert!(s.runs > 0, "{name}/{}: zero runs recorded", s.name);
        }
        // An unchanged baseline re-snapshots to the identical file.
        let mut rendered = doc.to_json().render_pretty();
        rendered.push('\n');
        assert_eq!(rendered, text, "{name} is not in canonical v1 form");
        found.push(name.to_string());
    }
    for required in [
        "BENCH_vm.json",
        "BENCH_mem.json",
        "BENCH_trace.json",
        "BENCH_fleet.json",
        "BENCH_serve.json",
    ] {
        assert!(
            found.iter().any(|n| n == required),
            "baseline {required} is missing (found {found:?})"
        );
    }
}

/// Every checked-in baseline is gated by a `bench check --baseline`
/// step of CI's workflow; a baseline nothing checks gates nothing.
#[test]
fn every_checked_in_baseline_is_gated_in_ci() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
    for entry in std::fs::read_dir(&root).expect("repo root") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let gate = format!("bench check --baseline {name} ");
            assert!(
                ci.lines().any(|l| l.contains(&gate)),
                "baseline {name} is not gated by any `{}` line of ci.yml",
                gate.trim_end()
            );
        }
    }
}

/// The negative self-test: a candidate that is uniformly 2× slower on
/// every timed metric must fail the gate, and the report must say which
/// metrics regressed, by how much, and how to legitimately refresh the
/// baseline.
#[test]
fn two_times_slower_candidate_trips_the_gate_with_actionable_diff() {
    let baseline = BenchDoc {
        profile: "smoke".to_string(),
        probe_mips: 120.0,
        date: "2026-08-08".to_string(),
        notes: "negative self-test".to_string(),
        scenarios: vec![ScenarioResult {
            name: "vm_fastpath".to_string(),
            runs: 3,
            notes: String::new(),
            metrics: vec![
                Metric::higher("fast_mips", 200.0, "mips", 0.40),
                Metric::lower("wall_ms", 8.0, "ms", 0.40),
                Metric::higher("block_hit_rate", 0.99, "rate", 0.02).uncalibrated(),
            ],
        }],
    };
    // Same probe (same machine), every timed figure 2× worse; the
    // deterministic hit rate is unchanged and must NOT be blamed.
    let mut candidate = baseline.clone();
    for m in &mut candidate.scenarios[0].metrics {
        match (m.name.as_str(), m.direction) {
            ("block_hit_rate", _) => {}
            (_, Direction::HigherIsBetter) => m.value /= 2.0,
            (_, Direction::LowerIsBetter) => m.value *= 2.0,
        }
    }
    let report = compare(&baseline, &candidate);
    assert!(!report.passed(), "2x regression must fail:\n{report}");
    let failing: Vec<&str> = report
        .failures()
        .iter()
        .map(|d| d.metric.as_str())
        .collect();
    assert_eq!(failing, vec!["fast_mips", "wall_ms"], "\n{report}");

    let text = report.to_string();
    assert!(text.contains("FAIL vm_fastpath/fast_mips"), "{text}");
    assert!(text.contains("FAIL vm_fastpath/wall_ms"), "{text}");
    assert!(text.contains("PASS vm_fastpath/block_hit_rate"), "{text}");
    assert!(text.contains("min allowed"), "names the floor: {text}");
    assert!(text.contains("max allowed"), "names the ceiling: {text}");
    assert!(
        text.contains("ratio 0.500"),
        "quantifies the regression: {text}"
    );
    assert!(text.contains("gate: FAIL"), "{text}");
    assert!(
        text.contains("--update-baseline"),
        "points at the refresh flow: {text}"
    );
}

/// A half-speed machine (probe 2× lower) reporting proportionally slower
/// calibrated results passes — the probe moves the goalposts, so CI
/// boxes of different speeds can share one checked-in baseline.
#[test]
fn slower_machine_with_proportional_results_passes() {
    let baseline = BenchDoc {
        profile: "smoke".to_string(),
        probe_mips: 200.0,
        date: "2026-08-08".to_string(),
        notes: String::new(),
        scenarios: vec![ScenarioResult {
            name: "vm_fastpath".to_string(),
            runs: 3,
            notes: String::new(),
            metrics: vec![
                Metric::higher("fast_mips", 300.0, "mips", 0.10),
                Metric::lower("wall_ms", 10.0, "ms", 0.10),
                Metric::higher("fastpath_speedup", 5.0, "x", 0.10).uncalibrated(),
            ],
        }],
    };
    let mut candidate = baseline.clone();
    candidate.probe_mips = 100.0; // half-speed box
    for m in &mut candidate.scenarios[0].metrics {
        if !m.calibrated {
            continue;
        }
        match m.direction {
            Direction::HigherIsBetter => m.value /= 2.0,
            Direction::LowerIsBetter => m.value *= 2.0,
        }
    }
    let report = compare(&baseline, &candidate);
    assert!(
        report.passed(),
        "calibration must absorb machine speed:\n{report}"
    );
    assert_eq!(report.probe_ratio, 0.5);
}
