//! `simulate_regions`: `elfie simulate`-equivalent runs of pinballs captured
//! and saved during set-up — load from disk, then `simulate_pinball` with
//! `RoiMode::Always`.
//!
//! Replay dispatch, page and syscall injection and the timing model do all
//! the work; capture sits in set-up. The four regions run the replay layer
//! three ways: a single-thread large image (gcc_like), race-ordered threads
//! (imagick_s_like, lbm_s_like) and injection-heavy (x264_like, a regular
//! pinball of the whole program).

use crate::spans::{Recorder, SpanId};
use crate::stats::{median, percentile, ratio, Rng};
use crate::{Args, KnownDefect, Outcome};
use elfie::pinball::{Pinball, RegionTrigger};
use elfie::pinplay::{Logger, LoggerConfig, ReplayConfig, ReplaySummary, Replayer};
use elfie::sim::{simulate_pinball, CoreParams, RoiMode, SimOutcome, Simulator};
use elfie::trace::json::Json;
use elfie::vm::{ExitReason, FastPathStats};
use elfie::workloads::{find_workload, InputScale};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// The hidden subcommand that captures the regions in a child process, so
/// the measured process's peak RSS holds no capture.
pub const SETUP_COMMAND: &str = "setup-regions";
const SETUP_REPEATS: usize = 3;
/// Longer than any workload runs: the region ends at program exit.
const TO_EXIT: u64 = 100_000_000_000;

pub struct Region {
    pub workload: &'static str,
    start: u64,
    length: u64,
    regular: bool,
    sim: &'static str,
}

pub const REGIONS: [Region; 4] = [
    Region {
        workload: "gcc_like",
        start: 10_000_000,
        length: 20_000_000,
        regular: false,
        sim: "gem5-haswell",
    },
    Region {
        workload: "imagick_s_like",
        start: 1_000_000,
        length: 4_000_000,
        regular: false,
        sim: "sniper",
    },
    Region {
        workload: "x264_like",
        start: 0,
        length: TO_EXIT,
        regular: true,
        sim: "coresim",
    },
    Region {
        workload: "lbm_s_like",
        start: 1_000_000,
        length: TO_EXIT,
        regular: false,
        sim: "sniper",
    },
];

/// The simulator a region or served job names; `coresim` for any other name.
pub fn simulator(name: &str) -> Simulator {
    let mut sim = match name {
        "gem5-haswell" => Simulator::gem5_se(CoreParams::haswell_like()),
        "sniper" => Simulator::sniper(),
        _ => Simulator::coresim_sde(),
    };
    // A raw pinball carries no ROI markers: the region is the ROI, as in
    // `elfie simulate`.
    sim.roi = RoiMode::Always;
    sim
}

fn capture(r: &Region) -> Result<Pinball, String> {
    let w = find_workload(r.workload, InputScale::Train).ok_or("unknown workload")?;
    let trigger = if r.start == 0 {
        RegionTrigger::ProgramStart
    } else {
        RegionTrigger::GlobalIcount(r.start)
    };
    let cfg = if r.regular {
        LoggerConfig::regular(&w.name, trigger, r.length)
    } else {
        LoggerConfig::fat(&w.name, trigger, r.length)
    };
    Logger::new(cfg)
        .capture(&w.program, |m| w.setup(m))
        .map_err(|e| format!("capture {}: {e}", r.workload))
}

/// Everything the reference compares, as exact text.
fn sim_fingerprint(o: &SimOutcome) -> String {
    format!(
        "cycles {} ipc {:?} cpi {:?} exit {:?} stats {:?}",
        o.cycles, o.ipc, o.cpi, o.exit, o.stats
    )
}

fn replay_fingerprint(s: &ReplaySummary) -> String {
    format!(
        "completed {} icount {} cycles {} injected {} lazy {} threads {:?} divergence {:?}",
        s.completed,
        s.global_icount,
        s.cycles,
        s.injected_syscalls,
        s.lazy_pages_injected,
        s.per_thread,
        s.divergence
    )
}

/// `setup-regions --dir DIR [--reference FILE]`: captures and saves the
/// four pinballs and prints `setup_s <seconds>`. With `--reference`, it
/// then simulates and replays the in-memory pinballs (the offline
/// `record` + `simulate` path) and writes their results to FILE.
pub fn setup_command(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let (mut dir, mut reference) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().map(PathBuf::from);
        match flag.as_str() {
            "--dir" => dir = value,
            "--reference" => reference = value,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let dir = dir.ok_or("--dir is required")?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let mut pinballs = Vec::new();
    for r in &REGIONS {
        let pb = capture(r)?;
        pb.save_dir(&dir)
            .map_err(|e| format!("save {}: {e}", r.workload))?;
        pinballs.push(pb);
    }
    println!("setup_s {}", t0.elapsed().as_secs_f64());
    let Some(path) = reference else { return Ok(()) };
    let mut regions = Vec::new();
    for (r, pb) in REGIONS.iter().zip(&pinballs) {
        let sim = simulate_pinball(pb, &simulator(r.sim));
        let replay = Replayer::new(ReplayConfig::default()).replay(pb, |_| {});
        regions.push(Json::Obj(vec![
            ("sim".into(), Json::Str(sim_fingerprint(&sim))),
            ("replay".into(), Json::Str(replay_fingerprint(&replay))),
            ("sim_cpi".into(), Json::F64(sim.cpi)),
            (
                "native_cpi".into(),
                Json::F64(ratio(replay.cycles as f64, replay.global_icount as f64)),
            ),
            (
                "divergence".into(),
                Json::Str(replay.divergence.map(|d| d.to_string()).unwrap_or_default()),
            ),
        ]));
    }
    std::fs::write(&path, Json::Arr(regions).render())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

struct Reference {
    sim: String,
    replay: String,
    sim_cpi: f64,
    native_cpi: f64,
    divergence: String,
}

fn read_reference(path: &Path) -> Result<Vec<Reference>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let str_of = |r: &Json, k: &str| {
        r.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("reference: no {k}"))
    };
    let f64_of = |r: &Json, k: &str| {
        r.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("reference: no {k}"))
    };
    doc.as_arr()
        .ok_or("reference is not an array")?
        .iter()
        .map(|r| {
            Ok(Reference {
                sim: str_of(r, "sim")?,
                replay: str_of(r, "replay")?,
                sim_cpi: f64_of(r, "sim_cpi")?,
                native_cpi: f64_of(r, "native_cpi")?,
                divergence: str_of(r, "divergence")?,
            })
        })
        .collect()
}

/// Runs `f` in a span under `parent` when tracing.
fn layer<T>(trace: Option<(&Recorder, SpanId)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some((rec, parent)) => rec.span(Some(parent), name, |_| f()),
        None => f(),
    }
}

/// Per-round sums of what the traced layers did.
#[derive(Default)]
struct RoundLayers {
    bytes: u64,
    replay_insns: u64,
    injected: u64,
    lazy: u64,
    sim_insns: u64,
    vm: FastPathStats,
    region_stats: Vec<(usize, SimOutcome)>,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = crate::out_dir().join(format!("regions-seed{}-{}", args.seed, std::process::id()));
    let reference_path = dir.join("reference.json");
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut setup = Vec::new();
    for i in 0..SETUP_REPEATS {
        let mut cmd = Command::new(&exe);
        cmd.arg(SETUP_COMMAND).arg("--dir").arg(&dir);
        if i + 1 == SETUP_REPEATS {
            cmd.arg("--reference").arg(&reference_path);
        }
        let child = cmd.output().map_err(|e| format!("spawn set-up: {e}"))?;
        if !child.status.success() {
            return Err(format!(
                "set-up failed: {}",
                String::from_utf8_lossy(&child.stderr)
            ));
        }
        let stdout = String::from_utf8_lossy(&child.stdout);
        let secs = stdout
            .lines()
            .find_map(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or("set-up printed no time")?;
        setup.push(secs);
    }
    let reference = read_reference(&reference_path)?;

    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..REGIONS.len()).collect();
    let rec = Recorder::new();
    let mut round_walls = Vec::new();
    // Untraced wall times of each region's job, and its simulated guest
    // instructions.
    let mut job_walls: Vec<Vec<f64>> = vec![Vec::new(); REGIONS.len()];
    let mut job_insns = vec![0u64; REGIONS.len()];
    let mut traced: Vec<(SpanId, RoundLayers)> = Vec::new();
    let start = Instant::now();
    while round_walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        rng.shuffle(&mut order);
        let tracing = args.trace && round_walls.len() > traced.len();
        let round = |root: Option<SpanId>, out: &mut Outcome| {
            let trace = root.map(|id| (&rec, id));
            let mut layers = RoundLayers::default();
            let mut jobs = Vec::new();
            for &i in &order {
                let r = &REGIONS[i];
                let t0 = Instant::now();
                let loaded = layer(trace, "pinball.load", || {
                    Pinball::load_dir(&dir, r.workload)
                });
                let pb = match loaded {
                    Ok(pb) => pb,
                    Err(e) => {
                        out.attempted += 1;
                        out.fail(format!("load {}", r.workload), e.to_string());
                        continue;
                    }
                };
                let replay = trace.map(|_| {
                    layer(trace, "pinplay.replay", || {
                        Replayer::new(ReplayConfig::default()).replay(&pb, |_| {})
                    })
                });
                let sim = layer(trace, "sim.simulate", || {
                    simulate_pinball(&pb, &simulator(r.sim))
                });
                let wall = t0.elapsed().as_secs_f64();
                check(out, r, &reference[i], &sim, replay.as_ref());
                let insns = sim.stats.user_insns + sim.stats.kernel_insns;
                layers.sim_insns += insns;
                jobs.push((i, wall, insns));
                if let Some(s) = replay {
                    layers.bytes += pinball_bytes(&dir, r.workload);
                    layers.replay_insns += s.global_icount;
                    layers.injected += s.injected_syscalls;
                    layers.lazy += s.lazy_pages_injected;
                    layers.vm.accumulate(sim.fastpath);
                    layers.region_stats.push((i, sim));
                }
            }
            (jobs, layers)
        };
        if tracing {
            let mut root = 0;
            let layers = rec.span(None, "round", |id| {
                root = id;
                round(Some(id), &mut out).1
            });
            traced.push((root, layers));
        } else {
            let (jobs, _) = round(None, &mut out);
            round_walls.push(jobs.iter().map(|&(_, wall, _)| wall).sum());
            for (i, wall, insns) in jobs {
                job_walls[i].push(wall);
                job_insns[i] = insns;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rss = crate::stats::peak_rss_bytes(std::process::id())?;
    let _ = std::fs::remove_dir_all(&dir);
    out.notes.push(format!(
        "simulate_regions: {} rounds ({} traced) of {} regions in {elapsed:.2}s; untraced round walls {:.3?}",
        round_walls.len() + traced.len(),
        traced.len(),
        REGIONS.len(),
        round_walls
    ));

    if args.trace {
        report_layers(&mut out, &rec, &traced, median(&round_walls));
        rec.write(
            &crate::out_dir().join(format!("spans-simulate_regions-seed{}.json", args.seed)),
        )?;
        return Ok(out);
    }
    let cpi_gap: Vec<f64> = reference
        .iter()
        .map(|r| ratio((r.sim_cpi - r.native_cpi).abs(), r.native_cpi) * 100.0)
        .collect();
    // A job is one region's load and simulate, as `elfie simulate` runs
    // it, and its time is the median of its walls. A round is one job of
    // each region.
    let job_s: Vec<f64> = job_walls.iter().map(|w| median(w)).collect();
    let round_s: f64 = job_s.iter().sum();
    let job_ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    out.set("setup_s", median(&setup));
    out.set("validate_s", round_s);
    out.set(
        "cpi_error_pct",
        cpi_gap.iter().sum::<f64>() / cpi_gap.len() as f64,
    );
    out.set(
        "sim_mips",
        ratio(job_insns.iter().sum::<u64>() as f64 / 1e6, round_s),
    );
    // Percentiles across the four distinct jobs.
    out.set("job_p50_ms", median(&job_ms));
    out.set("job_p95_ms", percentile(&job_ms, 95.0));
    out.set("jobs_per_s", ratio(REGIONS.len() as f64, round_s));
    out.set("peak_rss_mb", rss as f64 / 1e6);
    Ok(out)
}

/// Compares one job with the in-memory reference and counts it.
fn check(
    out: &mut Outcome,
    r: &Region,
    reference: &Reference,
    sim: &SimOutcome,
    replay: Option<&ReplaySummary>,
) {
    let known = (r.workload == "lbm_s_like" && reference.divergence.contains("syscall mismatch"))
        .then_some(KnownDefect::LbmExitDivergence);
    out.attempted += 1;
    let fingerprint = sim_fingerprint(sim);
    if fingerprint != reference.sim {
        out.fail(
            format!("simulate {}", r.workload),
            format!("{fingerprint} != reference {}", reference.sim),
        );
    } else if !matches!(sim.exit, ExitReason::AllExited(_)) {
        out.fail_known(
            format!("simulate {}", r.workload),
            format!(
                "exit {:?}; replay divergence: {}",
                sim.exit, reference.divergence
            ),
            known,
        );
    }
    if let Some(s) = replay {
        out.attempted += 1;
        let fingerprint = replay_fingerprint(s);
        if fingerprint != reference.replay {
            out.fail(
                format!("replay {}", r.workload),
                format!("{fingerprint} != reference {}", reference.replay),
            );
        } else if !s.completed {
            out.fail_known(
                format!("replay {}", r.workload),
                reference.divergence.clone(),
                known,
            );
        }
    }
}

/// Bytes on disk of one saved pinball.
fn pinball_bytes(dir: &Path, name: &str) -> u64 {
    let prefix = format!("{name}.");
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn report_layers(
    out: &mut Outcome,
    rec: &Recorder,
    traced: &[(SpanId, RoundLayers)],
    untraced_s: f64,
) {
    let mut per: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    let mut push = |name: &str, v: f64| per.entry(name.to_string()).or_default().push(v);
    for (root, l) in traced {
        let (selfs, _) = rec.self_times(*root, "round");
        let s = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
        let (load, replay, simulate) = (s("pinball.load"), s("pinplay.replay"), s("sim.simulate"));
        push("pinball.load_s", load);
        push("pinball.bytes", l.bytes as f64);
        push("pinplay.replay_s", replay);
        push(
            "pinplay.replay_mips",
            ratio(l.replay_insns as f64 / 1e6, replay),
        );
        push("pinplay.injected_syscalls", l.injected as f64);
        push("pinplay.lazy_pages", l.lazy as f64);
        push("sim.simulate_s", simulate);
        push("sim.timing_s", simulate - replay);
        push(
            "sim.host_ns_per_insn",
            ratio(simulate * 1e9, l.sim_insns as f64),
        );
        push("vm.block_hit_rate", l.vm.block_hit_rate());
        push("vm.tlb_hit_rate", l.vm.tlb_hit_rate());
        // The untraced round is load + simulate; replay is extra here.
        push(
            "trace.overhead_pct",
            ratio(load + simulate - untraced_s, untraced_s) * 100.0,
        );
        for (i, o) in &l.region_stats {
            let region = REGIONS[*i].workload;
            push(&format!("sim.{region}.cycles"), o.cycles as f64);
            push(
                &format!("sim.{region}.l1d_misses"),
                o.stats.l1d_misses as f64,
            );
            push(
                &format!("sim.{region}.mispredicts"),
                o.stats.mispredicts as f64,
            );
        }
    }
    for (name, values) in per {
        out.set(&name, median(&values));
    }
}
