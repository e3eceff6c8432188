//! # elfie
//!
//! The top-level crate of the ELFies reproduction ("ELFies: Executable
//! Region Checkpoints for Performance Analysis and Simulation", CGO 2021).
//!
//! It re-exports every subsystem and adds the end-to-end pipelines the
//! paper's Fig. 1 sketches:
//!
//! * [`pipeline::select_regions`] — BBV profiling + SimPoint/PinPoints,
//! * [`pipeline::capture_pinpoint`] — fat-pinball capture of one region,
//! * [`pipeline::make_elfie`] — sysstate extraction + pinball2elf,
//! * [`perf::measure_elfie`] — native hardware-counter measurement with
//!   warm-up exclusion and graceful exit,
//! * [`pipeline::validate_with_elfies`] — the full region-selection
//!   validation case study (Section IV-A), with alternate regions raising
//!   coverage when a candidate fails,
//! * [`parallel::BatchValidator`] — the same validation fanned across a
//!   worker pool with deterministic (serial-identical) reports, a
//!   content-addressed artifact cache ([`cache::PipelineCache`]) and
//!   per-stage instrumentation ([`stats::PipelineStats`]).
//!
//! ```
//! use elfie::prelude::*;
//!
//! // Capture the middle of a tiny workload and turn it into an ELFie.
//! let w = elfie::workloads::exchange2_like(1);
//! let logger = Logger::new(LoggerConfig::fat(
//!     "demo",
//!     RegionTrigger::GlobalIcount(1_000),
//!     2_000,
//! ));
//! let pinball = logger.capture(&w.program, |m| w.setup(m)).expect("captures");
//! let (elfie, _sysstate) = elfie::pipeline::make_elfie(&pinball, MarkerKind::Ssc)
//!     .expect("converts");
//! assert!(elfie.bytes.starts_with(b"\x7fELF"));
//! ```

pub mod analysis;
pub mod cache;
pub mod parallel;
pub mod perf;
pub mod pipeline;
pub mod render;
pub mod stats;

/// Structured tracing, metrics and Chrome/Perfetto timeline export.
pub use elfie_trace as trace;

/// ELF64 writer/reader and the emulated system loader.
pub use elfie_elf as elf;
/// The guest instruction set.
pub use elfie_isa as isa;
/// The pinball checkpoint format.
pub use elfie_pinball as pinball;
/// The pinball → ELFie converter.
pub use elfie_pinball2elf as pinball2elf;
/// The PinPlay logger and replayer.
pub use elfie_pinplay as pinplay;
/// The simulator substrate (Sniper/CoreSim/gem5-like).
pub use elfie_sim as sim;
/// SimPoint/PinPoints region selection.
pub use elfie_simpoint as simpoint;
/// The content-addressed checkpoint repository.
pub use elfie_store as store;
/// The pinball_sysstate analysis.
pub use elfie_sysstate as sysstate;
/// The guest machine (memory, kernel, threads, counters).
pub use elfie_vm as vm;
/// The synthetic benchmark suite.
pub use elfie_workloads as workloads;

/// Convenient glob import for the common types.
pub mod prelude {
    pub use crate::analysis::{analyze_elfie, AnalysisReport, AnalysisTool};
    pub use crate::cache::{CacheStats, PipelineCache};
    pub use crate::parallel::BatchValidator;
    pub use crate::perf::{measure_elfie, measure_program, NativeMeasurement};
    pub use crate::pipeline::{
        capture_pinpoint, make_elfie, select_regions, validate_with_elfies, PipelineError,
        RegionResult, ValidationReport,
    };
    pub use crate::stats::PipelineStats;
    pub use elfie_isa::{assemble, Assembler, MarkerKind, Program};
    pub use elfie_pinball::{Pinball, RegionInfo, RegionTrigger};
    pub use elfie_pinball2elf::{convert, ConvertOptions, Elfie, RemapMode};
    pub use elfie_pinplay::{Logger, LoggerConfig, ReplayConfig, Replayer};
    pub use elfie_sim::{simulate_elfie, simulate_pinball, simulate_program, Simulator};
    pub use elfie_simpoint::{PinPoints, PinPointsConfig};
    pub use elfie_store::{Store, StoreError, StoreStats};
    pub use elfie_sysstate::SysState;
    pub use elfie_trace::{TraceMode, TraceSummary, Tracer};
    pub use elfie_vm::{ExitReason, Machine, MachineConfig};
    pub use elfie_workloads::{suite_fp, suite_int, suite_speed_mt, InputScale, Workload};
}
