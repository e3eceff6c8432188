//! Interval-snapshot capture/resume bit-identity.
//!
//! The contract under test: a session resumed from a snapshot walks
//! exactly the state sequence the capturing session walked. We prove it
//! two ways — re-capturing at the next boundary must reproduce the next
//! snapshot *byte for byte*, and running the last slice to completion
//! must reproduce the serial replay's summary and final machine state
//! bit for bit. Hand-written programs cover the edge cases; every
//! workload of the int, fp and multi-threaded speed suites covers real
//! programs.

use elfie_isa::{assemble, Fnv64};
use elfie_pinball::{RegImage, RegionTrigger, Snapshot};
use elfie_pinplay::{Logger, LoggerConfig, ReplayConfig, Replayer, SessionStep};
use elfie_vm::{Machine, MachineConfig, Observer};
use elfie_workloads::{suite_fp, suite_int, suite_speed_mt, InputScale, Workload};

fn counter_program(iters: u64) -> elfie_isa::Program {
    assemble(&format!(
        r#"
        .org 0x400000
        start:
            mov rbx, 0x30000000
            mov rcx, {iters}
        loop:
            mov rdx, rcx
            imul rdx, 17
            mov [rbx], rdx
            add rbx, 8
            and rbx, 0x3000ffff
            or rbx, 0x30000000
            sub rcx, 1
            cmp rcx, 0
            jne loop
            mov rax, 231
            mov rdi, 0
            syscall
        "#
    ))
    .expect("assembles")
}

/// Calls `gettimeofday` every `delay`-iteration spin and stores each
/// result's seconds and microseconds into the data array, so every logged
/// syscall leaves different bytes behind.
fn clock_program(calls: u64, delay: u64) -> elfie_isa::Program {
    assemble(&format!(
        r#"
        .org 0x400000
        start:
            mov rbx, 0x30000000
            mov r12, {calls}
        again:
            mov rax, 96
            mov rdi, tv
            mov rsi, 0
            syscall
            mov r13, tv
            mov rdx, [r13]
            mov [rbx], rdx
            mov rdx, [r13 + 8]
            mov [rbx + 8], rdx
            add rbx, 16
            mov rcx, {delay}
        spin:
            sub rcx, 1
            cmp rcx, 0
            jne spin
            sub r12, 1
            cmp r12, 0
            jne again
            mov rax, 231
            mov rdi, 0
            syscall
        .align 8
        tv: .quad 0, 0
        "#
    ))
    .expect("assembles")
}

fn two_thread_program() -> elfie_isa::Program {
    assemble(
        r#"
        .org 0x400000
        start:
            mov rax, 56
            mov rdi, 0
            mov rsi, 0x7f00200000
            syscall
            cmp rax, 0
            je child
        parent_work:
            mov rcx, 150
        ploop:
            mov rdx, 1
            mov rbx, shared
            xadd [rbx], rdx
            sub rcx, 1
            cmp rcx, 0
            jne ploop
        pwait:
            mov rdx, [done]
            cmp rdx, 1
            jne pwait
            mov rax, 231
            mov rdi, 0
            syscall
        child:
            mov rcx, 150
        cloop:
            mov rdx, 1
            mov rbx, shared
            xadd [rbx], rdx
            sub rcx, 1
            cmp rcx, 0
            jne cloop
            mov rdx, 1
            mov rbx, done
            mov [rbx], rdx
            mov rax, 60
            mov rdi, 0
            syscall
        .align 8
        shared: .quad 0
        done: .quad 0
        "#,
    )
    .expect("assembles")
}

/// Maps the counter program's data array before capture.
fn map_array<O: Observer>(m: &mut Machine<O>) {
    m.mem
        .map_range(0x3000_0000, 0x3001_0000, elfie_vm::Perm::RW)
        .unwrap();
}

/// Architectural digest of a final machine: every mapped page (address,
/// permissions, contents), every thread's registers and counters, and the
/// machine-global counters.
fn machine_digest<O: Observer>(m: &Machine<O>) -> u64 {
    let mut h = Fnv64::new();
    for (addr, perm, bytes) in m.mem.pages() {
        h = h.u64(addr).u64(perm.bits() as u64).bytes(bytes);
    }
    for t in &m.threads {
        let regs = RegImage::from(&t.regs);
        for g in regs.gpr {
            h = h.u64(g);
        }
        h = h
            .u64(regs.rip)
            .u64(regs.rflags)
            .u64(regs.fs_base)
            .u64(regs.gs_base)
            .bytes(&regs.xsave)
            .u64(t.icount)
            .u64(t.cycles);
    }
    h.u64(m.global_icount()).u64(m.cycles()).finish()
}

/// Replays `pb` serially on a `machine`-configured replayer while
/// capturing a snapshot every `interval` instructions, then re-runs every
/// slice from its snapshot and checks each slice reproduces the next
/// snapshot byte-for-byte (or, for the last slice, the serial end state).
fn check_chain(
    pb: &elfie_pinball::Pinball,
    machine: MachineConfig,
    interval: u64,
) -> Vec<Snapshot> {
    let replayer = Replayer::new(ReplayConfig {
        machine,
        ..ReplayConfig::default()
    });

    // Producer pass: serial run with interval captures.
    let mut session = replayer.session_with(pb, elfie_vm::NullObserver, None, |_| {});
    let mut snaps: Vec<Snapshot> = Vec::new();
    let mut boundary = interval;
    while let SessionStep::Paused = session.run_until(Some(boundary)) {
        snaps.push(session.capture(snaps.len() as u64 + 1, interval));
        // One scheduling sweep can cross several boundaries when the
        // interval is finer than a sweep; aim for the next multiple
        // strictly ahead of where the pause landed.
        boundary = (session.global_icount() / interval + 1) * interval;
    }
    let (serial_summary, serial_m) = session.finish();
    assert!(
        serial_summary.completed,
        "serial replay diverged: {:?}",
        serial_summary.divergence
    );
    let serial_digest = machine_digest(&serial_m);

    // Snapshots round-trip through their own codec.
    for s in &snaps {
        assert_eq!(&Snapshot::from_bytes(&s.to_bytes()).expect("decodes"), s);
    }

    // Consumer passes: each slice boots from its snapshot.
    for (k, snap) in snaps.iter().enumerate() {
        let mut slice = replayer.resume_with(pb, snap, elfie_vm::NullObserver, None);
        assert_eq!(slice.global_icount(), snap.meta.global_icount);
        match snaps.get(k + 1) {
            Some(next) => {
                assert_eq!(
                    slice.run_until(Some(next.meta.global_icount)),
                    SessionStep::Paused,
                    "slice {k} must pause at the next boundary"
                );
                let recapture = slice.capture(next.meta.slice_index, interval);
                assert_eq!(
                    recapture.to_bytes(),
                    next.to_bytes(),
                    "slice {k} re-capture must be byte-identical to snapshot {}",
                    k + 1
                );
            }
            None => {
                assert_eq!(slice.run_until(None), SessionStep::Done);
                let (sum, m) = slice.finish();
                assert_eq!(sum, serial_summary, "final slice summary != serial");
                assert_eq!(
                    machine_digest(&m),
                    serial_digest,
                    "final slice machine state != serial"
                );
            }
        }
    }
    snaps
}

#[test]
fn single_thread_chain_is_bit_identical() {
    let pb = Logger::new(LoggerConfig::fat(
        "ctr",
        RegionTrigger::GlobalIcount(50),
        5_000,
    ))
    .capture(&counter_program(5_000), map_array)
    .expect("captures");
    let n = check_chain(&pb, MachineConfig::default(), 700).len();
    assert!(n >= 4, "expected several snapshots, got {n}");
}

#[test]
fn fine_interval_chain_is_bit_identical() {
    let pb = Logger::new(LoggerConfig::fat(
        "ctr",
        RegionTrigger::GlobalIcount(50),
        2_000,
    ))
    .capture(&counter_program(5_000), map_array)
    .expect("captures");
    // Finer than the 64-insn scheduling slice: pauses land mid-thread-turn.
    let n = check_chain(&pb, MachineConfig::default(), 150).len();
    assert!(n >= 10, "expected a long chain, got {n}");
}

#[test]
fn multithreaded_chain_with_races_is_bit_identical() {
    let pb = Logger::new(LoggerConfig::fat(
        "mt",
        RegionTrigger::GlobalIcount(40),
        1_200,
    ))
    .capture(&two_thread_program(), |m| {
        m.mem
            .map_range(0x7f001f0000, 0x7f00200000, elfie_vm::Perm::RW)
            .unwrap();
    })
    .expect("captures");
    assert!(pb.threads.len() >= 2, "both threads captured");
    assert!(!pb.races.order.is_empty(), "atomic order recorded");
    let n = check_chain(&pb, MachineConfig::default(), 200).len();
    assert!(n >= 3, "expected several snapshots, got {n}");
}

#[test]
fn resume_injects_the_syscalls_logged_after_the_snapshot() {
    let pb = Logger::new(LoggerConfig::fat(
        "clock",
        RegionTrigger::GlobalIcount(50),
        20_000,
    ))
    .capture(&clock_program(12, 1_000), map_array)
    .expect("captures");
    let logged = pb.threads[0].syscalls.len() as u64;
    assert!(logged >= 5, "only {logged} syscalls logged");
    let snaps = check_chain(&pb, MachineConfig::default(), 2_500);
    // Some snapshot sits between two logged syscalls, so its resume must
    // start injecting partway down the log.
    assert!(
        snaps.iter().any(|s| {
            let consumed = s.consumed_syscalls.get(&0).copied().unwrap_or(0);
            consumed > 0 && consumed < logged
        }),
        "no snapshot between logged syscalls: {:?}",
        snaps
            .iter()
            .map(|s| s.consumed_syscalls.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn coarse_interval_produces_no_snapshots_and_matches_plain_replay() {
    let pb = Logger::new(LoggerConfig::fat(
        "ctr",
        RegionTrigger::GlobalIcount(50),
        1_000,
    ))
    .capture(&counter_program(2_000), map_array)
    .expect("captures");
    let replayer = Replayer::new(ReplayConfig::default());
    let (plain, plain_m) = replayer.replay_full(&pb, |_| {});
    let mut session = replayer.session_with(&pb, elfie_vm::NullObserver, None, |_| {});
    assert_eq!(session.run_until(Some(u64::MAX)), SessionStep::Done);
    let (sum, m) = session.finish();
    assert_eq!(sum, plain);
    assert_eq!(machine_digest(&m), machine_digest(&plain_m));
}

#[test]
fn snapshot_delta_shrinks_with_position_independent_of_interval() {
    // The delta is cumulative vs. the boot image, so a snapshot taken at
    // the same icount must be identical no matter which interval schedule
    // produced it.
    let pb = Logger::new(LoggerConfig::fat(
        "ctr",
        RegionTrigger::GlobalIcount(50),
        4_000,
    ))
    .capture(&counter_program(5_000), map_array)
    .expect("captures");
    let replayer = Replayer::new(ReplayConfig::default());
    let capture_at = |boundary: u64| {
        let mut s = replayer.session_with(&pb, elfie_vm::NullObserver, None, |_| {});
        assert_eq!(s.run_until(Some(boundary)), SessionStep::Paused);
        s.capture(1, boundary)
    };
    let a = capture_at(2_000);
    let mut direct = capture_at(2_000);
    assert_eq!(a, direct);
    // Delta stays bounded by the pages the loop actually writes.
    assert!(
        a.delta.len() <= pb.image.page_count() + 4,
        "delta has {} pages",
        a.delta.len()
    );
    direct.meta.interval = 0; // meta differences only affect meta bytes
    assert_ne!(a.to_bytes(), direct.to_bytes());
}

/// Region placement and fine interval for the workload suites: a trigger
/// past start-up, a region long enough for a dozen snapshots.
const SUITE_TRIGGER: u64 = 2_000;
const SUITE_REGION: u64 = 8_000;
const SUITE_INTERVAL: u64 = 600;

fn check_suite(suite: Vec<Workload>, machine: MachineConfig) {
    for w in suite {
        let pb = Logger::new(LoggerConfig::fat(
            &w.name,
            RegionTrigger::GlobalIcount(SUITE_TRIGGER),
            SUITE_REGION,
        ))
        .capture(&w.program, |m| w.setup(m))
        .unwrap_or_else(|e| panic!("{}: capture failed: {e:?}", w.name));
        let n = check_chain(&pb, machine.clone(), SUITE_INTERVAL).len();
        assert!(
            n > 0,
            "{}: the fine interval must produce snapshots",
            w.name
        );
    }
}

#[test]
fn int_suite_chains_are_bit_identical() {
    check_suite(suite_int(InputScale::Test), MachineConfig::default());
}

#[test]
fn fp_suite_chains_are_bit_identical() {
    check_suite(suite_fp(InputScale::Test), MachineConfig::default());
}

#[test]
fn mt_suite_chains_are_bit_identical_with_a_coarse_quantum() {
    // A 256-instruction quantum, coarser than the default 64: pauses
    // land mid-turn.
    check_suite(
        suite_speed_mt(InputScale::Test, 2),
        MachineConfig {
            quantum: 256,
            ..MachineConfig::default()
        },
    );
}
