//! `serve_mixed`: one client with 2 connections runs a closed loop against
//! an `elfie serve` daemon with 2 shards on a fresh store. The loop is
//! closed because `elfie submit` callers block on the reply.
//!
//! The mix spans 2 tenants: validate jobs at test scale with the fleet
//! knobs on four workloads, and record, replay and simulate jobs on 2M
//! instruction train regions of gcc_like and imagick_s_like. Each distinct
//! job repeats, so most jobs hit the cache and first occurrences write to
//! the store. Halfway through, the daemon restarts on the same store, so
//! first occurrences after the restart are store reads, not captures. This
//! is the only workload that exercises queueing, framing, the per-tenant
//! caches and the store.

use crate::spans::Recorder;
use crate::stats::{median, percentile, ratio, Rng};
use crate::{simulate, Args, KnownDefect, Outcome};
use elfie::parallel::BatchValidator;
use elfie::pinball::RegionTrigger;
use elfie::pinplay::{Logger, LoggerConfig, ReplayConfig, Replayer};
use elfie::simpoint::PinPointsConfig;
use elfie::workloads::{find_workload, InputScale};
use elfie_serve::{Client, JobKind, JobSpec, Response, ServeStats};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const TENANTS: [&str; 2] = ["acme", "globex"];
const VALIDATE_WORKLOADS: [&str; 4] = ["gcc_like", "mcf_like", "xz_like", "x264_like"];
/// (workload, start, simulator) of the 2M-instruction train regions.
const REGION_JOBS: [(&str, u64, &str); 2] = [
    ("gcc_like", 4_000_000, "coresim"),
    ("imagick_s_like", 1_000_000, "sniper"),
];
const REGION_LENGTH: u64 = 2_000_000;
const SHARDS: u32 = 2;
const CONNECTIONS: usize = 2;
/// Daemon starts timed as set-up at each of three points: before the timed
/// phase, at the restart and after it, so the median spans the run.
const SETUP_BATCH: usize = 8;
/// Seconds of measurement one repeat of the distinct jobs adds on a
/// 2-core host; the job list is sized from `--seconds` with it, so the
/// list is a function of the arguments alone.
const SECONDS_PER_REPEAT: f64 = 1.5;

/// One distinct job and the bytes the offline path produces for it.
struct Distinct {
    tenant: &'static str,
    spec: JobSpec,
    /// Jobs sharing an artifact (a validate's profile and pinballs, or a
    /// region's pinball) share this key: only the first of them is cold.
    artifact: usize,
    expected: String,
}

fn validate_spec(workload: &str, seed: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Validate,
        workload: workload.to_string(),
        scale: "test".to_string(),
        slice: 5_000,
        warmup: 2_000,
        maxk: 3,
        seed,
        ..JobSpec::default()
    }
}

/// The distinct jobs with their offline references: `validate --serial`
/// report bytes, and `record` + `replay` + `simulate` with
/// `RoiMode::Always` for the regions.
fn distinct_jobs(seed: u64) -> Result<(Vec<Distinct>, f64), String> {
    let mut validates = Vec::new();
    let mut cpi_errors = Vec::new();
    for name in VALIDATE_WORKLOADS {
        let spec = validate_spec(name, seed);
        let w = find_workload(name, InputScale::Test).ok_or("unknown workload")?;
        let cfg = PinPointsConfig {
            slice_size: spec.slice,
            warmup: spec.warmup,
            max_k: spec.maxk as usize,
            ..PinPointsConfig::default()
        };
        let (report, _) = BatchValidator::serial()
            .validate(&w, &cfg, spec.seed, spec.fuel)
            .map_err(|e| format!("reference validate {name}: {e}"))?;
        cpi_errors.push(report.error.abs() * 100.0);
        validates.push((spec, elfie::render::validation_report(&w.name, &report)));
    }
    let mut regions = Vec::new();
    for (name, start, sim) in REGION_JOBS {
        let w = find_workload(name, InputScale::Train).ok_or("unknown workload")?;
        let pb = Logger::new(LoggerConfig::fat(
            &w.name,
            RegionTrigger::GlobalIcount(start),
            REGION_LENGTH,
        ))
        .capture(&w.program, |m| w.setup(m))
        .map_err(|e| format!("reference capture {name}: {e}"))?;
        let region = &pb.region.name;
        let replay = Replayer::new(ReplayConfig::default()).replay(&pb, |_| {});
        let o = elfie::sim::simulate_pinball(&pb, &simulate::simulator(sim));
        let spec = |kind| JobSpec {
            kind,
            workload: name.to_string(),
            start,
            length: REGION_LENGTH,
            sim: sim.to_string(),
            ..JobSpec::default()
        };
        regions.push([
            (
                spec(JobKind::Record),
                format!(
                    "captured {region} ({} pages, {} thread(s), {} instructions)\n",
                    pb.image.page_count(),
                    pb.threads.len(),
                    pb.region.length
                ),
            ),
            (
                spec(JobKind::Replay),
                format!(
                    "replay {region}: completed={} injected={} lazy_pages={} instructions={}\n",
                    replay.completed,
                    replay.injected_syscalls,
                    replay.lazy_pages_injected,
                    replay.global_icount
                ),
            ),
            (
                spec(JobKind::Simulate),
                format!(
                    "sim {sim} on {region}: {} cycles, IPC {:.4}, CPI {:.4}, exit {:?}\n",
                    o.cycles, o.ipc, o.cpi, o.exit
                ),
            ),
        ]);
    }
    let mut jobs = Vec::new();
    for tenant in TENANTS {
        for (spec, expected) in &validates {
            let artifact = jobs.len();
            jobs.push(Distinct {
                tenant,
                spec: spec.clone(),
                artifact,
                expected: expected.clone(),
            });
        }
        for region in &regions {
            let artifact = jobs.len();
            for (spec, expected) in region {
                jobs.push(Distinct {
                    tenant,
                    spec: spec.clone(),
                    artifact,
                    expected: expected.clone(),
                });
            }
        }
    }
    Ok((
        jobs,
        cpi_errors.iter().sum::<f64>() / cpi_errors.len() as f64,
    ))
}

/// An `elfie serve` daemon process, killed and reaped if dropped early.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Spawns the daemon and returns once it answers a ping.
    fn start(elfie: &Path, store: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(elfie)
            .arg("serve")
            .arg("--store")
            .arg(store)
            .args(["--listen", "127.0.0.1:0", "--shards", &SHARDS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", elfie.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read daemon banner: {e}"))?;
        daemon.addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected daemon banner `{}`", line.trim()))?
            .to_string();
        Client::connect(&daemon.addr)
            .and_then(|mut c| c.ping())
            .map_err(|e| format!("ping daemon: {e}"))?;
        Ok(daemon)
    }

    /// Reads the daemon's counters and peak RSS, then drains it and waits
    /// for it to exit.
    fn stop(mut self) -> Result<(ServeStats, u64), String> {
        let mut c = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        let stats = c.stats().map_err(|e| format!("daemon stats: {e}"))?;
        let rss = crate::stats::peak_rss_bytes(self.child.id())?;
        c.shutdown().map_err(|e| format!("daemon shutdown: {e}"))?;
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok((stats, rss))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already reaped after a clean stop; errors here are moot.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One submitted job as the client saw it.
struct Sent {
    latency_s: f64,
    traced: bool,
    response: Result<Response, String>,
}

fn span_name(kind: JobKind) -> &'static str {
    match kind {
        JobKind::Record => "serve.record",
        JobKind::Validate => "serve.validate",
        JobKind::Replay => "serve.replay",
        JobKind::Simulate => "serve.simulate",
    }
}

/// Runs `list` (indices into `distinct`) as a closed loop over
/// `CONNECTIONS` connections. With a recorder, every other job is traced.
fn closed_loop(
    addr: &str,
    list: &[usize],
    distinct: &[Distinct],
    rec: Option<&Recorder>,
) -> Result<Vec<Sent>, String> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Sent>>> = list.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    let mut client = Client::connect_timeout(addr, Duration::from_secs(10))
                        .map_err(|e| e.to_string())?;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&job) = list.get(i) else {
                            return Ok(());
                        };
                        let d = &distinct[job];
                        let traced = rec.is_some() && i % 2 == 1;
                        let mut submit = || {
                            client
                                .submit(d.tenant, d.spec.clone())
                                .map_err(|e| e.to_string())
                        };
                        let t0 = Instant::now();
                        let response = match rec.filter(|_| traced) {
                            Some(rec) => rec.span(None, span_name(d.spec.kind), |_| submit()),
                            None => submit(),
                        };
                        let latency_s = t0.elapsed().as_secs_f64();
                        *slots[i].lock().expect("job slot poisoned") = Some(Sent {
                            latency_s,
                            traced,
                            response,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().map_err(|_| "client thread panicked".to_string())?)
    })?;
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("job slot poisoned")
                .ok_or_else(|| "a job was not sent".to_string())
        })
        .collect()
}

/// What the timed phase saw, pooled over both daemon lifetimes.
#[derive(Default)]
struct Tally {
    latency_ms: Vec<f64>,
    /// Served validate latencies by workload.
    validate_s: std::collections::BTreeMap<String, Vec<f64>>,
    simulate_s: Vec<f64>,
    queue_ms: Vec<f64>,
    run_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    warm_traced_ms: Vec<f64>,
    warm_untraced_ms: Vec<f64>,
    busy: u64,
    wall_s: f64,
    stats: Vec<ServeStats>,
    peak_rss: Vec<f64>,
}

impl Tally {
    fn record(&mut self, out: &mut Outcome, d: &Distinct, cold: bool, sent: Sent) {
        out.attempted += 1;
        let op = format!("{} {} {}", d.tenant, d.spec.kind.name(), d.spec.workload);
        let (queue_ns, run_ns, report) = match sent.response {
            Ok(Response::Done {
                queue_ns,
                run_ns,
                report,
                ..
            }) => (queue_ns, run_ns, report),
            Ok(Response::Busy { shard, .. }) => {
                self.busy += 1;
                return out.fail(op, format!("shed busy by shard {shard}"));
            }
            Ok(Response::Error { message }) => return out.fail(op, message),
            Ok(other) => return out.fail(op, format!("unexpected response {other:?}")),
            Err(e) => return out.fail(op, e),
        };
        if report != d.expected {
            let known = (d.spec.kind == JobKind::Simulate
                && report.contains(": 1 cycles, IPC 0.0000"))
            .then_some(KnownDefect::ServedSimulateRoi);
            out.fail_known(
                op,
                format!(
                    "served `{}` != offline `{}`",
                    report.trim(),
                    d.expected.trim()
                ),
                known,
            );
        }
        let ms = sent.latency_s * 1e3;
        let (queue, run) = (queue_ns as f64 / 1e6, run_ns as f64 / 1e6);
        self.latency_ms.push(ms);
        self.queue_ms.push(queue);
        self.run_ms.push(run);
        self.overhead_ms.push(ms - queue - run);
        match d.spec.kind {
            JobKind::Validate => self
                .validate_s
                .entry(d.spec.workload.clone())
                .or_default()
                .push(sent.latency_s),
            JobKind::Simulate => self.simulate_s.push(sent.latency_s),
            _ => {}
        }
        if cold {
            self.cold_ms.push(ms);
        } else {
            self.warm_ms.push(ms);
            if sent.traced {
                self.warm_traced_ms.push(ms);
            } else {
                self.warm_untraced_ms.push(ms);
            }
        }
    }

    fn stopped(&mut self, (stats, rss): (ServeStats, u64)) {
        self.stats.push(stats);
        self.peak_rss.push(rss as f64);
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let elfie = args
        .elfie
        .clone()
        .ok_or("serve_mixed needs --elfie PATH to the elfie binary")?;
    let base: PathBuf =
        crate::out_dir().join(format!("serve-seed{}-{}", args.seed, std::process::id()));
    let result = measure(args, &elfie, &base, &mut out);
    let _ = std::fs::remove_dir_all(&base);
    result.map(|()| out)
}

/// Times `SETUP_BATCH` daemon starts, each on a fresh store and stopped
/// once it answers.
fn time_starts(elfie: &Path, base: &Path, setup: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_BATCH {
        let dir = base.join(format!("setup{}", setup.len()));
        let t0 = Instant::now();
        let d = Daemon::start(elfie, &dir)?;
        setup.push(t0.elapsed().as_secs_f64());
        d.stop()?;
    }
    Ok(())
}

fn measure(args: &Args, elfie: &Path, base: &Path, out: &mut Outcome) -> Result<(), String> {
    // Set-up: a daemon on a fresh store, up to its first answered ping.
    let mut setup = Vec::new();
    time_starts(elfie, base, &mut setup)?;
    let store = base.join("store");
    let t0 = Instant::now();
    let mut daemon = Daemon::start(elfie, &store)?;
    setup.push(t0.elapsed().as_secs_f64());

    let (distinct, cpi_error) = distinct_jobs(args.seed)?;
    let repeats = (args.seconds / 2.0 / SECONDS_PER_REPEAT).ceil().max(1.0) as usize;
    let mut rng = Rng::new(args.seed);
    let rec = Recorder::new();
    let mut tally = Tally::default();
    for half in 0..2 {
        if half == 1 {
            tally.stopped(daemon.stop()?);
            time_starts(elfie, base, &mut setup)?;
            daemon = Daemon::start(elfie, &store)?;
        }
        let mut list: Vec<usize> = (0..distinct.len())
            .flat_map(|j| std::iter::repeat_n(j, repeats))
            .collect();
        rng.shuffle(&mut list);
        let t0 = Instant::now();
        let sent = closed_loop(&daemon.addr, &list, &distinct, args.trace.then_some(&rec))?;
        tally.wall_s += t0.elapsed().as_secs_f64();
        let mut seen = vec![false; distinct.len()];
        for (&job, s) in list.iter().zip(sent) {
            let d = &distinct[job];
            let cold = !std::mem::replace(&mut seen[d.artifact], true);
            tally.record(out, d, cold, s);
        }
    }
    tally.stopped(daemon.stop()?);
    time_starts(elfie, base, &mut setup)?;
    out.notes.push(format!(
        "serve_mixed: {} jobs ({} distinct x {repeats} x 2 daemon lifetimes) in {:.2}s",
        tally.latency_ms.len(),
        distinct.len(),
        tally.wall_s
    ));

    let t = &tally;
    if args.trace {
        let sum = |f: fn(&ServeStats) -> u64| t.stats.iter().map(f).sum::<u64>() as f64;
        let warm_untraced = median(&t.warm_untraced_ms);
        out.set("serve.queue_ms_p50", percentile(&t.queue_ms, 50.0));
        out.set("serve.queue_ms_p95", percentile(&t.queue_ms, 95.0));
        out.set("serve.run_ms_p50", percentile(&t.run_ms, 50.0));
        out.set("serve.run_ms_p95", percentile(&t.run_ms, 95.0));
        out.set("serve.overhead_ms_p50", percentile(&t.overhead_ms, 50.0));
        out.set("serve.cold_job_ms_p50", percentile(&t.cold_ms, 50.0));
        out.set("serve.warm_job_ms_p50", percentile(&t.warm_ms, 50.0));
        out.set(
            "serve.busy_frac",
            ratio(t.busy as f64, out.attempted as f64),
        );
        out.set(
            "core.cache_hit_rate",
            ratio(
                sum(|s| s.cache_hits),
                sum(|s| s.cache_hits + s.cache_misses),
            ),
        );
        out.set("store.hits", sum(|s| s.store_hits));
        out.set("store.puts", sum(|s| s.store_puts));
        out.set(
            "trace.overhead_pct",
            ratio(median(&t.warm_traced_ms) - warm_untraced, warm_untraced) * 100.0,
        );
        return rec
            .write(&crate::out_dir().join(format!("spans-serve_mixed-seed{}.json", args.seed)));
    }
    out.set("setup_s", median(&setup));
    // The four workloads' latencies form separate clusters, so a median
    // over all of them jumps between clusters; average their medians.
    let per_workload: Vec<f64> = t.validate_s.values().map(|v| median(v)).collect();
    out.set(
        "validate_s",
        per_workload.iter().sum::<f64>() / per_workload.len().max(1) as f64,
    );
    out.set("cpi_error_pct", cpi_error);
    out.set(
        "sim_mips",
        // Every simulate job runs one region; the median job is a warm one
        // however many of them the seed made cold.
        ratio(REGION_LENGTH as f64 / 1e6, median(&t.simulate_s)),
    );
    out.set("job_p50_ms", percentile(&t.latency_ms, 50.0));
    out.set("job_p95_ms", percentile(&t.latency_ms, 95.0));
    out.set("jobs_per_s", t.latency_ms.len() as f64 / t.wall_s);
    // Which heavy jobs overlap on the two shards sets each daemon's peak;
    // the mean over both lifetimes is steadier than either.
    out.set(
        "peak_rss_mb",
        t.peak_rss.iter().sum::<f64>() / t.peak_rss.len() as f64 / 1e6,
    );
    Ok(())
}
