//! The PinPlay logger: captures a region of a program's execution into a
//! [`Pinball`].
//!
//! The logger runs the test program on the guest machine with an
//! instrumentation observer attached (the Pin analogy), fast-forwards to
//! the region trigger, snapshots architectural and memory state, then logs
//! everything the region needs for constrained replay: system-call side
//! effects, the order of atomic operations, and the set of pages touched.
//! [`Logger::capture_all`] captures many regions in one fast-forward pass,
//! logging each on a copy-on-write fork of the machine.
//!
//! The paper's logger switches map directly:
//!
//! * `-log:whole_image` → [`LoggerConfig::log_whole_image`] — record *all*
//!   mapped pages (including never-touched static data) in the image;
//! * `-log:pages_early` → [`LoggerConfig::pages_early`] — place touched
//!   pages in the initial memory image instead of lazy injection records;
//! * `-log:fat` → [`LoggerConfig::fat`] — both at once. All pinballs used
//!   for ELFie generation must be fat.

use elfie_isa::{page_base, Insn, MarkerKind, Program, RegFile};
use elfie_pinball::{
    MemoryImage, PageRecord, Pinball, PinballMeta, RaceLog, RegImage, RegionInfo, RegionTrigger,
    SyncPoint, SyscallEffect, ThreadRecord,
};
use elfie_vm::{ExitReason, Machine, MachineConfig, Observer, StopWhen};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// ISA identifier stamped into pinball metadata.
pub const ARCH_ID: &str = "elfie-isa-v1";

/// Logger configuration.
#[derive(Debug, Clone)]
pub struct LoggerConfig {
    /// Pinball name.
    pub name: String,
    /// Region start trigger.
    pub trigger: RegionTrigger,
    /// Region length in global retired instructions.
    pub length: u64,
    /// `-log:whole_image`: capture every mapped page, not just used ones.
    pub log_whole_image: bool,
    /// `-log:pages_early`: pre-load used pages into the initial image.
    pub pages_early: bool,
    /// Warm-up instruction count recorded in the region descriptor.
    pub warmup: u64,
    /// SimPoint weight recorded in the region descriptor.
    pub weight: f64,
    /// Slice index recorded in the region descriptor.
    pub slice_index: u64,
    /// Machine configuration for the logging run.
    pub machine: MachineConfig,
}

impl LoggerConfig {
    /// A fat-pinball configuration (`-log:fat`): the kind required for
    /// ELFie generation.
    pub fn fat(name: &str, trigger: RegionTrigger, length: u64) -> LoggerConfig {
        LoggerConfig {
            name: name.to_string(),
            trigger,
            length,
            log_whole_image: true,
            pages_early: true,
            warmup: 0,
            weight: 1.0,
            slice_index: 0,
            machine: MachineConfig::default(),
        }
    }

    /// A regular (lazy-injection) pinball configuration.
    pub fn regular(name: &str, trigger: RegionTrigger, length: u64) -> LoggerConfig {
        LoggerConfig {
            log_whole_image: false,
            pages_early: false,
            ..LoggerConfig::fat(name, trigger, length)
        }
    }

    /// True when this configuration produces a fat pinball.
    pub fn is_fat(&self) -> bool {
        self.log_whole_image && self.pages_early
    }
}

/// Errors from a capture run.
#[derive(Debug, Clone)]
pub enum CaptureError {
    /// The program ended (or faulted) before the region trigger fired.
    TriggerNotReached(String),
    /// The program faulted inside the region.
    ProgramFault(String),
    /// No live threads at the region start.
    NoLiveThreads,
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::TriggerNotReached(why) => {
                write!(f, "region trigger not reached: {why}")
            }
            CaptureError::ProgramFault(why) => write!(f, "program faulted in region: {why}"),
            CaptureError::NoLiveThreads => write!(f, "no live threads at region start"),
        }
    }
}

impl std::error::Error for CaptureError {}

/// The logging observer: counts instructions, tracks touched pages,
/// records syscall side effects and the atomic-operation order.
#[derive(Debug, Default)]
pub struct LogObserver {
    active: bool,
    region_insns: BTreeMap<u32, u64>,
    pending_sys: Option<(u32, u64, [u64; 6])>,
    syscalls: BTreeMap<u32, Vec<SyscallEffect>>,
    atomic_seq: BTreeMap<u32, u64>,
    races: Vec<SyncPoint>,
    pending_atomic: Option<u32>,
    touched_pages: BTreeSet<u64>,
    spawned: Vec<u32>,
}

impl LogObserver {
    fn new() -> LogObserver {
        LogObserver::default()
    }
}

impl Observer for LogObserver {
    fn on_insn(&mut self, tid: u32, rip: u64, insn: &Insn, len: usize) {
        if !self.active {
            return;
        }
        *self.region_insns.entry(tid).or_insert(0) += 1;
        self.touched_pages.insert(page_base(rip));
        self.touched_pages.insert(page_base(rip + len as u64 - 1));
        if insn.is_atomic() {
            self.pending_atomic = Some(tid);
        }
    }

    fn on_mem_read(&mut self, tid: u32, addr: u64, size: u64) {
        if !self.active {
            return;
        }
        self.touched_pages.insert(page_base(addr));
        self.touched_pages.insert(page_base(addr + size.max(1) - 1));
        if self.pending_atomic == Some(tid) {
            let seq = self.atomic_seq.entry(tid).or_insert(0);
            self.races.push(SyncPoint {
                tid,
                seq: *seq,
                addr,
            });
            *seq += 1;
            self.pending_atomic = None;
        }
    }

    fn on_mem_write(&mut self, _tid: u32, addr: u64, size: u64) {
        if !self.active {
            return;
        }
        self.touched_pages.insert(page_base(addr));
        self.touched_pages.insert(page_base(addr + size.max(1) - 1));
    }

    fn on_syscall(&mut self, tid: u32, nr: u64, args: &[u64; 6]) {
        if self.active {
            self.pending_sys = Some((tid, nr, *args));
        }
    }

    fn on_syscall_ret(&mut self, tid: u32, nr: u64, ret: u64, writes: &[(u64, Vec<u8>)]) {
        let _ = tid;
        if !self.active {
            return;
        }
        if let Some((ptid, pnr, args)) = self.pending_sys.take() {
            debug_assert_eq!((ptid, pnr), (tid, nr), "syscall enter/exit pairing");
            self.syscalls.entry(tid).or_default().push(SyscallEffect {
                nr,
                args,
                ret,
                writes: writes.to_vec(),
            });
        }
    }

    fn on_thread_start(&mut self, _parent: u32, child: u32) {
        if self.active {
            self.spawned.push(child);
        }
    }

    fn on_marker(&mut self, _tid: u32, _kind: MarkerKind, _tag: u32) {}
}

/// Guest work done by one [`Logger::capture_all`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureStats {
    /// Instructions the fast-forward machine retired to reach the window
    /// starts (to the program's end when a trigger was never reached).
    pub ff_insns: u64,
    /// Instructions retired while logging regions, summed over windows.
    pub log_insns: u64,
}

impl CaptureStats {
    /// Adds `other`'s counts into `self` (saturating).
    pub fn accumulate(&mut self, other: CaptureStats) {
        self.ff_insns = self.ff_insns.saturating_add(other.ff_insns);
        self.log_insns = self.log_insns.saturating_add(other.log_insns);
    }
}

/// The PinPlay logger.
#[derive(Debug, Clone)]
pub struct Logger {
    cfg: LoggerConfig,
}

impl Logger {
    /// Creates a logger with the given configuration.
    pub fn new(cfg: LoggerConfig) -> Logger {
        Logger { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LoggerConfig {
        &self.cfg
    }

    /// Runs `prog` under instrumentation and captures the configured
    /// region. `setup` can pre-populate the machine (guest files, extra
    /// mappings) before execution starts. This is [`Logger::capture_all`]
    /// with one window.
    ///
    /// # Errors
    ///
    /// Returns [`CaptureError`] when the trigger is never reached or the
    /// program faults inside the region.
    pub fn capture(
        &self,
        prog: &Program,
        setup: impl FnOnce(&mut Machine<LogObserver>),
    ) -> Result<Pinball, CaptureError> {
        let (mut pinballs, _) = Logger::capture_all(prog, std::slice::from_ref(&self.cfg), setup);
        pinballs.pop().expect("one result per window")
    }

    /// Captures every window in one fast-forward pass: the PinPoints
    /// regions-file flow. One machine runs the program from the start
    /// with every window's trigger armed and stops at each start in turn.
    /// There it forks ([`Machine::fork`]): pages are shared copy-on-write,
    /// and the region is logged on the fork while the fast-forward
    /// machine resumes its interrupted scheduling slice. The last window
    /// is logged on the fast-forward machine itself.
    ///
    /// A fork starts a fresh scheduling slice, as a machine stopped at
    /// the trigger and run again does, and the fast-forward machine's
    /// stops leave its own schedule untouched
    /// ([`Machine::set_resume_slices`]). So each result is byte-identical
    /// to what [`Logger::capture`] returns for that window alone,
    /// multi-threaded programs included. Windows may overlap, repeat or
    /// come in any order; results are in window order. An empty list runs
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if the windows do not share one machine configuration.
    pub fn capture_all(
        prog: &Program,
        windows: &[LoggerConfig],
        setup: impl FnOnce(&mut Machine<LogObserver>),
    ) -> (Vec<Result<Pinball, CaptureError>>, CaptureStats) {
        let mut stats = CaptureStats::default();
        let Some(first) = windows.first() else {
            return (Vec::new(), stats);
        };
        let machine = &first.machine;
        assert!(
            windows
                .iter()
                .all(|w| w.machine.fingerprint() == machine.fingerprint()
                    && w.machine.block_cache == machine.block_cache),
            "capture_all windows must share one machine configuration"
        );
        let mut m = Machine::with_observer(machine.clone(), LogObserver::new());
        m.load_program(prog);
        setup(&mut m);
        m.set_resume_slices(true);

        // Windows still waiting for their trigger: `pending[j]` is armed
        // as `m.stop_conditions[j]`.
        let mut pending = Vec::new();
        let mut starting = Vec::new();
        for (i, w) in windows.iter().enumerate() {
            let stop = match w.trigger {
                RegionTrigger::ProgramStart => {
                    starting.push(i);
                    continue;
                }
                RegionTrigger::GlobalIcount(n) => StopWhen::GlobalInsns(n),
                RegionTrigger::PcCount { pc, count } => StopWhen::PcCount { pc, count },
            };
            pending.push(i);
            m.stop_conditions.push(stop);
        }

        let mut results: Vec<Option<Result<Pinball, CaptureError>>> =
            windows.iter().map(|_| None).collect();
        let mut unresolved = windows.len();
        loop {
            for i in std::mem::take(&mut starting) {
                unresolved -= 1;
                let mut fork;
                let logger = if unresolved == 0 {
                    // Nothing left to fast-forward to: log in place.
                    stats.ff_insns = m.global_icount();
                    m.set_resume_slices(false);
                    &mut m
                } else {
                    fork = m.fork(LogObserver::new());
                    &mut fork
                };
                let before = logger.global_icount();
                results[i] = Some(log_region(logger, &windows[i]));
                stats.log_insns += logger.global_icount() - before;
            }
            if pending.is_empty() {
                break;
            }
            let s = m.run(u64::MAX / 2);
            if !matches!(s.reason, ExitReason::StopCondition(_)) {
                stats.ff_insns = m.global_icount();
                for i in pending {
                    results[i] = Some(Err(CaptureError::TriggerNotReached(format!(
                        "{:?}",
                        s.reason
                    ))));
                }
                break;
            }
            // Every trigger that holds here starts here: a one-window run
            // would have stopped at this very instruction.
            for j in (0..pending.len()).rev() {
                if m.stop_condition_met(j) {
                    m.remove_stop_condition(j);
                    starting.push(pending.remove(j));
                }
            }
            starting.reverse();
        }
        let results = results
            .into_iter()
            .map(|r| r.expect("every window resolved"))
            .collect();
        (results, stats)
    }
}

/// Logs one region on a machine stopped at its trigger and assembles the
/// pinball.
fn log_region(m: &mut Machine<LogObserver>, cfg: &LoggerConfig) -> Result<Pinball, CaptureError> {
    // Snapshot at region start.
    let live: Vec<(u32, RegFile, u64)> = m
        .threads
        .iter()
        .filter(|t| !t.is_exited())
        .map(|t| (t.tid, t.regs.clone(), t.icount))
        .collect();
    if live.is_empty() {
        return Err(CaptureError::NoLiveThreads);
    }
    let start_pages: BTreeMap<u64, PageRecord> = m
        .mem
        .pages()
        .map(|(addr, perm, data)| (addr, PageRecord::new(perm.bits(), data)))
        .collect();
    let brk = m.kernel.brk();
    let brk_start = m.kernel.brk_start();
    let cwd = m.kernel.cwd.clone();
    let start_global = m.global_icount();
    let base_icounts: BTreeMap<u32, u64> = live.iter().map(|(tid, _, ic)| (*tid, *ic)).collect();

    // Log the region.
    m.obs.active = true;
    m.stop_conditions
        .push(StopWhen::GlobalInsns(start_global + cfg.length));
    let s = m.run(u64::MAX / 2);
    match s.reason {
        ExitReason::StopCondition(_) | ExitReason::AllExited(_) => {}
        ExitReason::Fault { tid, fault } => {
            return Err(CaptureError::ProgramFault(format!("tid {tid}: {fault}")));
        }
        other => return Err(CaptureError::ProgramFault(format!("{other:?}"))),
    }
    let region_global = s.insns;

    // Assemble the pinball.
    let obs = &m.obs;
    let mut thread_icounts: BTreeMap<u32, u64> = BTreeMap::new();
    for t in &m.threads {
        if let Some(b) = base_icounts.get(&t.tid) {
            thread_icounts.insert(t.tid, t.icount - b);
        } else if obs.spawned.contains(&t.tid) {
            // Spawned inside the region: every retired instruction
            // counts.
            thread_icounts.insert(t.tid, t.icount);
        }
    }

    let mut threads: Vec<ThreadRecord> = Vec::new();
    for (tid, regs, _) in &live {
        threads.push(ThreadRecord {
            tid: *tid,
            regs: RegImage::from(regs),
            syscalls: obs.syscalls.get(tid).cloned().unwrap_or_default(),
            spawned: false,
        });
    }
    for child in &obs.spawned {
        let regs = &m.threads[*child as usize].regs;
        threads.push(ThreadRecord {
            tid: *child,
            regs: RegImage::from(regs),
            syscalls: obs.syscalls.get(child).cloned().unwrap_or_default(),
            spawned: true,
        });
    }
    threads.sort_by_key(|t| t.tid);

    // Page sets.
    let minimal: BTreeSet<u64> = live
        .iter()
        .flat_map(|(_, regs, _)| [page_base(regs.rip), page_base(regs.rsp())])
        .collect();
    let base_set: BTreeSet<u64> = if cfg.log_whole_image {
        start_pages.keys().copied().collect()
    } else {
        minimal
            .into_iter()
            .filter(|a| start_pages.contains_key(a))
            .collect()
    };
    let zero_page = || elfie_pinball::PageArena::global().zero_page();
    let mut image = MemoryImage::new();
    let mut lazy: BTreeMap<u64, PageRecord> = BTreeMap::new();
    for &addr in &base_set {
        image.pages.insert(addr, start_pages[&addr].clone());
    }
    for &addr in &obs.touched_pages {
        if base_set.contains(&addr) {
            continue;
        }
        let record = start_pages
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| PageRecord::from_data(3, zero_page()));
        if cfg.pages_early {
            image.pages.insert(addr, record);
        } else {
            lazy.insert(addr, record);
        }
    }

    Ok(Pinball {
        meta: PinballMeta {
            name: cfg.name.clone(),
            fat: cfg.is_fat(),
            arch: ARCH_ID.to_string(),
            brk,
            brk_start,
            cwd,
        },
        region: RegionInfo {
            name: format!("{}.{}", cfg.name, cfg.slice_index),
            trigger: cfg.trigger,
            length: region_global,
            thread_icounts,
            warmup: cfg.warmup,
            weight: cfg.weight,
            slice_index: cfg.slice_index,
        },
        image,
        threads,
        races: RaceLog {
            order: obs.races.clone(),
        },
        lazy_pages: lazy,
    })
}
