//! `validate_gcc`: cold `elfie validate gcc_like` at the CLI defaults on 2
//! workers, with a fresh in-memory cache each time.
//!
//! Capture dominates this workload: its 9 regions fast-forward Σ≈193M
//! instructions, where ≈47M would reach the last region. It does no
//! replay and no serving.

use crate::spans::{Recorder, SpanId};
use crate::stats::{median, ratio};
use crate::{Args, Outcome};
use elfie::isa::MarkerKind;
use elfie::parallel::BatchValidator;
use elfie::perf::{measure_elfie, measure_program};
use elfie::pipeline::{capture_pinpoint, make_elfie, RegionResult, ValidationReport};
use elfie::simpoint::{pick, prediction_error, profile_program_stats, weighted_prediction};
use elfie::simpoint::{PinPoints, PinPointsConfig};
use elfie::vm::{FastPathStats, MachineConfig};
use elfie::workloads::{find_workload, InputScale, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const WORKLOAD: &str = "gcc_like";
const WORKERS: usize = 2;
const FUEL: u64 = 2_000_000_000;
/// Workload generations per set-up batch. Set-up is only workload
/// generation (well under a millisecond). A batch runs before every
/// validate, so the median spans the whole run's host conditions rather
/// than one instant of it.
const SETUP_BATCH: usize = 21;

/// The `elfie validate` defaults.
fn config() -> PinPointsConfig {
    PinPointsConfig {
        slice_size: 100_000,
        warmup: 200_000,
        max_k: 10,
        ..PinPointsConfig::default()
    }
}

/// Guest work one traced validate did, by layer.
#[derive(Default)]
struct Layers {
    profile_insns: u64,
    capture_ff_insns: u64,
    capture_log_insns: u64,
    elf_bytes: u64,
    measure_insns: u64,
    vm: FastPathStats,
}

impl Layers {
    fn add_capture(&mut self, start_icount: u64, warmup: u64, length: u64) {
        let ff = start_icount.saturating_sub(warmup);
        self.capture_ff_insns += ff;
        self.capture_log_insns += start_icount - ff + length;
    }
}

/// One batch of workload generations, each timed into `setup`.
fn set_up(setup: &mut Vec<f64>) -> Result<Workload, String> {
    let mut workload = None;
    for _ in 0..SETUP_BATCH {
        let t0 = Instant::now();
        workload = Some(find_workload(WORKLOAD, InputScale::Train).ok_or("no gcc_like workload")?);
        setup.push(t0.elapsed().as_secs_f64());
    }
    Ok(workload.expect("a batch generates at least once"))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = config();
    let seed = args.seed;

    let mut setup = Vec::new();
    let w = set_up(&mut setup)?;

    // Timed phase. The traced run alternates the user's command with its
    // span-instrumented decomposition, so tracing overhead is measured
    // against interleaved untraced runs.
    let rec = Recorder::new();
    let mut walls = Vec::new();
    let mut traced = Vec::new();
    let mut reports = Vec::new();
    let mut guest_stats = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        if out.attempted > 0 {
            set_up(&mut setup)?;
        }
        out.attempted += 1;
        if args.trace && walls.len() > traced.len() {
            match validate_traced(&rec, &w, &cfg, seed) {
                Ok((report, layers, root)) => {
                    reports.push((format!("traced validate #{}", traced.len()), report));
                    traced.push((layers, root));
                }
                Err(e) => out.fail("traced validate", e),
            }
            continue;
        }
        let t0 = Instant::now();
        let result = BatchValidator::new()
            .with_workers(WORKERS)
            .validate(&w, &cfg, seed, FUEL);
        let wall = t0.elapsed().as_secs_f64();
        match result {
            Ok((report, stats)) => {
                walls.push(wall);
                guest_stats.get_or_insert(stats);
                reports.push((format!("validate #{}", walls.len()), report));
            }
            Err(e) => {
                walls.push(wall);
                out.fail("validate", e.to_string());
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rss = crate::stats::peak_rss_bytes(std::process::id())?;

    // Reference: the serial offline path, excluded from every metric.
    let (reference, _) = BatchValidator::serial()
        .validate(&w, &cfg, seed, FUEL)
        .map_err(|e| format!("serial reference validate: {e}"))?;
    let expected = elfie::render::validation_report(&w.name, &reference);
    for (op, report) in &reports {
        if elfie::render::validation_report(&w.name, report) != expected {
            out.fail(op.clone(), "report differs from the serial reference");
        }
    }
    out.notes.push(format!(
        "validate_gcc: {} validates ({} traced) in {elapsed:.2}s; untraced walls {walls:.3?}; reference true CPI {:.4} predicted {:.4}",
        walls.len(),
        traced.len(),
        reference.true_cpi,
        reference.predicted_cpi
    ));

    if args.trace {
        report_layers(&mut out, &rec, &traced, median(&walls));
        rec.write(&crate::out_dir().join(format!("spans-validate_gcc-seed{seed}.json")))?;
        return Ok(out);
    }

    // Guest instructions one validate retires: the engine's instrumented
    // runs (profile and measurements) plus every capture, whose logger is
    // not instrumented. A region starts at its slice and is one slice long.
    let mut capture = Layers::default();
    for region in &reference.regions {
        capture.add_capture(
            region.slice_index * cfg.slice_size,
            cfg.warmup,
            cfg.slice_size,
        );
    }
    let engine_insns = guest_stats.map_or(0, |s| s.guest_insns());
    let guest_insns = engine_insns + capture.capture_ff_insns + capture.capture_log_insns;

    // There is one distinct job, so its p50 and p95 across jobs are the
    // median validate too.
    let wall = median(&walls);
    out.set("setup_s", median(&setup));
    out.set("validate_s", wall);
    out.set("cpi_error_pct", reference.error.abs() * 100.0);
    out.set("sim_mips", ratio(guest_insns as f64 / 1e6, wall));
    out.set("job_p50_ms", wall * 1e3);
    out.set("job_p95_ms", wall * 1e3);
    out.set("jobs_per_s", ratio(1.0, wall));
    out.set("peak_rss_mb", rss as f64 / 1e6);
    Ok(out)
}

/// Per-layer figures: per traced validate, then the median across them.
fn report_layers(out: &mut Outcome, rec: &Recorder, traced: &[(Layers, SpanId)], untraced_s: f64) {
    let mut per: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut push = |name: &'static str, v: f64| per.entry(name).or_default().push(v);
    for (layers, root) in traced {
        let (selfs, critical) = rec.self_times(*root, "task.");
        let s = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
        let wall = rec.seconds(*root);
        let measure_s = s("perf.measure");
        let layer_s = s("simpoint.profile")
            + s("simpoint.pick")
            + s("pinplay.capture")
            + s("pinball2elf.convert")
            + measure_s;
        push("simpoint.profile_s", s("simpoint.profile"));
        push(
            "simpoint.profile_mips",
            ratio(layers.profile_insns as f64 / 1e6, s("simpoint.profile")),
        );
        push("simpoint.pick_s", s("simpoint.pick"));
        push("pinplay.capture_s", s("pinplay.capture"));
        push(
            "pinplay.capture_mips",
            ratio(
                (layers.capture_ff_insns + layers.capture_log_insns) as f64 / 1e6,
                s("pinplay.capture"),
            ),
        );
        push("pinplay.capture_ff_insns", layers.capture_ff_insns as f64);
        push("pinplay.capture_log_insns", layers.capture_log_insns as f64);
        push("pinball2elf.convert_s", s("pinball2elf.convert"));
        push("pinball2elf.elf_bytes", layers.elf_bytes as f64);
        push("perf.measure_s", measure_s);
        push(
            "perf.measure_mips",
            ratio(layers.measure_insns as f64 / 1e6, measure_s),
        );
        push("vm.block_hit_rate", layers.vm.block_hit_rate());
        push("vm.tlb_hit_rate", layers.vm.tlb_hit_rate());
        push("core.critical_task_s", critical);
        push("core.worker_busy_frac", layer_s / (WORKERS as f64 * wall));
        push(
            "trace.overhead_pct",
            ratio(wall - untraced_s, untraced_s) * 100.0,
        );
    }
    for (name, values) in per {
        out.set(name, median(&values));
    }
}

/// One validate decomposed into its public layer calls, with the same
/// task structure as `BatchValidator`: profile and pick first, then the
/// whole-program measurement and one capture→convert→measure chain per
/// cluster, pulled by `WORKERS` threads from a shared counter.
fn validate_traced(
    rec: &Recorder,
    w: &Workload,
    cfg: &PinPointsConfig,
    seed: u64,
) -> Result<(ValidationReport, Layers, SpanId), String> {
    let layers = Mutex::new(Layers::default());
    let lock = || layers.lock().expect("layer counters poisoned");
    let mut root = 0;
    let report = rec.span(None, "validate", |id| {
        root = id;
        let points = rec.span(Some(id), "task.select", |task| {
            let (profile, vm) = rec.span(Some(task), "simpoint.profile", |_| {
                profile_program_stats(
                    &w.program,
                    MachineConfig::default(),
                    cfg.slice_size,
                    FUEL,
                    |m| w.setup(m),
                )
            });
            let mut l = lock();
            l.profile_insns += vm.insns;
            l.vm.accumulate(vm);
            drop(l);
            rec.span(Some(task), "simpoint.pick", |_| pick(&profile, cfg))
        });

        let tasks = 1 + points.k;
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Task>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks {
                        break;
                    }
                    let done = if i == 0 {
                        rec.span(Some(id), "task.whole", |task| {
                            let m = rec.span(Some(task), "perf.measure", |_| {
                                measure_program(w, seed, FUEL)
                            });
                            let mut l = lock();
                            l.measure_insns += m.fastpath.insns;
                            l.vm.accumulate(m.fastpath);
                            Task::Whole(m.cpi)
                        })
                    } else {
                        rec.span(Some(id), "task.cluster", |task| {
                            Task::Cluster(cluster_chain(
                                rec,
                                task,
                                w,
                                &points,
                                i - 1,
                                seed,
                                &layers,
                            ))
                        })
                    };
                    *slots[i].lock().expect("task slot poisoned") = Some(done);
                });
            }
        });

        let mut regions = Vec::new();
        let mut samples = Vec::new();
        let mut true_cpi = 0.0;
        for slot in slots {
            match slot.into_inner().expect("task slot poisoned") {
                Some(Task::Whole(cpi)) => true_cpi = cpi,
                Some(Task::Cluster((records, sample))) => {
                    regions.extend(records);
                    samples.extend(sample);
                }
                None => return Err("a validation task did not run".to_string()),
            }
        }
        let predicted = weighted_prediction(&samples);
        Ok(ValidationReport {
            true_cpi,
            predicted_cpi: predicted,
            error: prediction_error(true_cpi, predicted),
            coverage: samples.iter().map(|(weight, _)| weight).sum(),
            regions,
            k: points.k,
        })
    })?;
    Ok((
        report,
        layers.into_inner().expect("layer counters poisoned"),
        root,
    ))
}

type ClusterOutcome = (Vec<RegionResult>, Option<(f64, f64)>);

enum Task {
    Whole(f64),
    Cluster(ClusterOutcome),
}

/// One cluster's candidates in rank order until one measures cleanly.
fn cluster_chain(
    rec: &Recorder,
    task: SpanId,
    w: &Workload,
    points: &PinPoints,
    cluster: usize,
    seed: u64,
    layers: &Mutex<Layers>,
) -> ClusterOutcome {
    let lock = || layers.lock().expect("layer counters poisoned");
    let mut regions = Vec::new();
    for cand in points.candidates(cluster) {
        let mut record = RegionResult {
            cluster,
            rank: cand.rank,
            slice_index: cand.slice_index,
            weight: cand.weight,
            measurement: None,
        };
        lock().add_capture(cand.start_icount, cand.warmup, cand.length);
        let measured = rec
            .span(Some(task), "pinplay.capture", |_| capture_pinpoint(w, cand))
            .map_err(|e| e.to_string())
            .and_then(|pb| {
                rec.span(Some(task), "pinball2elf.convert", |_| {
                    make_elfie(&pb, MarkerKind::Ssc)
                })
                .map_err(|e| e.to_string())
            })
            .and_then(|(elfie, sysstate)| {
                lock().elf_bytes += elfie.bytes.len() as u64;
                rec.span(Some(task), "perf.measure", |_| {
                    measure_elfie(
                        &elfie.bytes,
                        MarkerKind::Ssc,
                        cand.warmup,
                        seed,
                        FUEL,
                        |m| sysstate.stage_files(m),
                    )
                })
                .map_err(|e| e.to_string())
            });
        if let Ok(m) = &measured {
            let mut l = lock();
            l.measure_insns += m.fastpath.insns;
            l.vm.accumulate(m.fastpath);
        }
        let measured = measured.ok();
        record.measurement = measured;
        regions.push(record);
        if let Some(m) = measured.filter(|m| m.completed && m.insns > 0) {
            return (regions, Some((cand.weight, m.cpi)));
        }
    }
    (regions, None)
}
