//! # elfie-pinplay
//!
//! The PinPlay-style record/replay framework: a [`Logger`] that captures
//! regions of program execution into pinballs (including the paper's
//! *fat pinball* extensions), and a [`Replayer`] that performs constrained
//! replay with syscall side-effect injection and shared-memory order
//! enforcement, plus the `-replay:injection 0` injection-less mode used to
//! debug ELFie failures.
//!
//! ## Example: capture and replay a region
//!
//! ```
//! use elfie_isa::assemble;
//! use elfie_pinball::RegionTrigger;
//! use elfie_pinplay::{Logger, LoggerConfig, Replayer, ReplayConfig};
//!
//! let prog = assemble(
//!     r#"
//!     .org 0x400000
//!     start:
//!         mov rcx, 0
//!     loop:
//!         add rcx, 1
//!         cmp rcx, 1000
//!         jne loop
//!         mov rax, 231
//!         mov rdi, 0
//!         syscall
//!     "#,
//! )?;
//! // Capture 300 instructions starting after the first 100.
//! let logger = Logger::new(LoggerConfig::fat(
//!     "demo",
//!     RegionTrigger::GlobalIcount(100),
//!     300,
//! ));
//! let pinball = logger.capture(&prog, |_| {}).expect("captures");
//! assert!(pinball.meta.fat);
//!
//! let replayer = Replayer::new(ReplayConfig::default());
//! let summary = replayer.replay(&pinball, |_| {});
//! assert!(summary.completed);
//! assert_eq!(summary.global_icount, 300);
//! # Ok::<(), elfie_isa::AsmError>(())
//! ```

pub mod logger;
pub mod replay;

pub use logger::{CaptureError, CaptureStats, LogObserver, Logger, LoggerConfig, ARCH_ID};
pub use replay::{
    BootMode, Divergence, ReplayConfig, ReplaySession, ReplaySummary, Replayer, SessionStep,
};
