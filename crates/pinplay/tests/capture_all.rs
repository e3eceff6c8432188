//! One-pass capture against per-window capture.
//!
//! `Logger::capture_all` fast-forwards one machine through every window
//! start and logs each region on a fork. Each pinball it returns must be
//! byte-identical to `Logger::capture` of that window alone, which runs
//! its own machine from the first instruction, and each error must be the
//! same error. Every workload of the int, fp and multi-threaded speed
//! suites is checked with windows that overlap, repeat, start at program
//! start, start on a pc count, run into the program's exit and start past
//! it, listed out of order.

use elfie_pinball::RegionTrigger;
use elfie_pinplay::{CaptureError, Logger, LoggerConfig};
use elfie_vm::{ExitReason, Machine, MachineConfig};
use elfie_workloads::{suite_fp, suite_int, suite_speed_mt, InputScale, Workload};

/// Instructions the workload retires from start to exit.
fn program_length(w: &Workload, machine: &MachineConfig) -> u64 {
    let mut m = Machine::new(machine.clone());
    m.load_program(&w.program);
    w.setup(&mut m);
    let s = m.run(u64::MAX / 2);
    assert!(
        matches!(s.reason, ExitReason::AllExited(_)),
        "{}: {:?}",
        w.name,
        s.reason
    );
    s.insns
}

fn windows(w: &Workload, total: u64, machine: &MachineConfig) -> Vec<LoggerConfig> {
    let third = total / 3;
    let window = |slice: u64, trigger, length| {
        let mut cfg = LoggerConfig::fat(&w.name, trigger, length);
        cfg.slice_index = slice;
        cfg.machine = machine.clone();
        cfg
    };
    let mut regular = window(7, RegionTrigger::GlobalIcount(2 * third), 4_000);
    regular.log_whole_image = false;
    regular.pages_early = false;
    let middle = window(1, RegionTrigger::GlobalIcount(third), 6_000);
    vec![
        window(0, RegionTrigger::GlobalIcount(total + 1_000), 2_000),
        middle.clone(),
        window(2, RegionTrigger::ProgramStart, 3_000),
        window(3, RegionTrigger::GlobalIcount(third + 2_000), 6_000),
        middle,
        window(
            5,
            RegionTrigger::PcCount {
                pc: w.program.entry,
                count: 1,
            },
            2_000,
        ),
        window(6, RegionTrigger::GlobalIcount(total - 500), 6_000),
        regular,
        window(8, RegionTrigger::GlobalIcount(1), 1_000),
    ]
}

fn describe(r: &Result<elfie_pinball::Pinball, CaptureError>) -> Result<Vec<u8>, String> {
    r.as_ref()
        .map(|pb| pb.to_bytes())
        .map_err(|e| format!("{e:?}"))
}

fn check_suite(suite: Vec<Workload>, machine: MachineConfig) {
    for w in suite {
        let total = program_length(&w, &machine);
        let ws = windows(&w, total, &machine);
        let (all, stats) = Logger::capture_all(&w.program, &ws, |m| w.setup(m));
        assert_eq!(all.len(), ws.len());
        let mut logged = 0;
        for (i, (cfg, got)) in ws.iter().zip(&all).enumerate() {
            let alone = Logger::new(cfg.clone()).capture(&w.program, |m| w.setup(m));
            assert!(
                describe(got) == describe(&alone),
                "{} window {i} ({:?}): one-pass {:?} != alone {:?}",
                w.name,
                cfg.trigger,
                got.as_ref().map(|pb| pb.region.length),
                alone.as_ref().map(|pb| pb.region.length),
            );
            if let Ok(pb) = got {
                logged += pb.region.length;
            }
        }
        assert!(
            matches!(&all[0], Err(CaptureError::TriggerNotReached(_))),
            "{}: a start past exit is never reached",
            w.name
        );
        assert!(all[1..].iter().all(Result::is_ok), "{}", w.name);
        assert_eq!(stats.ff_insns, total, "{}: ran to exit once", w.name);
        assert_eq!(stats.log_insns, logged, "{}", w.name);
    }
}

#[test]
fn int_suite_one_pass_matches_per_window_capture() {
    check_suite(suite_int(InputScale::Test), MachineConfig::default());
}

#[test]
fn fp_suite_one_pass_matches_per_window_capture() {
    check_suite(suite_fp(InputScale::Test), MachineConfig::default());
}

#[test]
fn mt_suite_one_pass_matches_per_window_capture() {
    check_suite(
        suite_speed_mt(InputScale::Test, 2),
        MachineConfig::default(),
    );
    // A coarse quantum: window starts land mid-slice.
    check_suite(
        suite_speed_mt(InputScale::Test, 4),
        MachineConfig {
            quantum: 256,
            ..MachineConfig::default()
        },
    );
}

#[test]
fn empty_window_list_runs_nothing() {
    let w = &suite_int(InputScale::Test)[0];
    let (all, stats) = Logger::capture_all(&w.program, &[], |_| panic!("no machine is built"));
    assert!(all.is_empty());
    assert_eq!((stats.ff_insns, stats.log_insns), (0, 0));
}
