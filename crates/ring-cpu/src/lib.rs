//! The processor simulator: a 36-bit segmented machine implementing the
//! ring-protection hardware of Schroeder & Saltzer (SOSP 1971).
//!
//! The instruction cycle mirrors the paper's Figs. 4–9:
//!
//! * instruction retrieval validated against the execute bracket
//!   ([`machine`], Fig. 4);
//! * effective-address formation with effective-ring maximisation over
//!   pointer registers and indirect words ([`ea`], Fig. 5);
//! * operand read/write validation ([`exec`], Fig. 6) and the EAP /
//!   ordinary-transfer advance checks ([`exec`], Fig. 7);
//! * hardware CALL and RETURN with downward/upward ring switching,
//!   stack-base generation and pointer-register ring floors
//!   ([`callret`], Figs. 8–9);
//! * traps forcing ring 0 with full state save/restore ([`trap`]);
//! * privileged instructions (LDBR, SIO, RETT, LDT) refused outside
//!   ring 0 ([`exec`]);
//! * I/O channels operating on absolute addresses ([`io`]).
//!
//! Supervisor code can be supplied either as machine code (assembled
//! with `ring-asm`) or as **native procedures** ([`native`]): Rust
//! bodies behind ordinary gate segments, entered only through the
//! hardware CALL path and constrained to ring-validated memory access.
//!
//! [`testkit`] builds small bare worlds for tests and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callret;
mod chaos;
pub mod ea;
pub mod exec;
mod fastpath;
pub mod image;
pub mod io;
pub mod isa;
pub mod machine;
pub mod native;
pub mod recorder;
pub mod testkit;
pub mod trace;
pub mod trap;

pub use image::{MachineCheckpoint, MachineImage};
pub use io::{Direction, IoSystem, TtyDevice};
pub use isa::{AddrMode, Instr, Opcode, OperandUse};
pub use machine::{CostModel, ExecStats, Machine, MachineConfig, RunExit, StepOutcome};
pub use native::{NativeAction, NativeFn, NativeRegistry};
pub use recorder::{replay, run_recorded, seek, Recorder, ReplayReport, DEFAULT_CHECKPOINT_EVERY};
pub use ring_chaos::{ChaosEngine, ChaosKind, FaultPlan};
pub use ring_metrics::{Crossing, FastPathStats, Metrics, MetricsSnapshot, SdwCacheStats};
pub use ring_trace::{SpanEvent, SpanKey, SpanKind, SpanRecorder};
pub use trace::TraceEvent;
pub use trap::SavedState;
