//! # ULP16 — the 16-bit RISC instruction set of the ULP multi-core platform
//!
//! This crate defines the complete instruction set architecture of the
//! custom 16-bit reduced-instruction-set cores used by the ultra-low-power
//! (ULP) multi-channel biosignal analysis platform of Dogan et al.,
//! *"Synchronizing Code Execution on Ultra-Low-Power Embedded Multi-Channel
//! Signal Analysis Platforms"*, DATE 2013.
//!
//! It provides:
//!
//! * [`Instr`] — the instruction set itself, including interrupt and sleep
//!   mode support and the paper's instruction-set extension (ISE) for
//!   barrier synchronization: [`Instr::Sinc`] (check-in) and [`Instr::Sdec`]
//!   (check-out), cf. Section IV-B of the paper;
//! * binary [`encode`]/[`decode`] to and from the 16-bit machine word format;
//! * a two-pass [`asm`] assembler with labels, expressions, directives and
//!   pseudo-instructions;
//! * a [`disasm`] disassembler producing assembler-compatible text.
//!
//! The architectural parameters of the platform (memory geometry, register
//! count, vectors) live in [`arch`].
//!
//! ## Example
//!
//! ```
//! use ulp_isa::{asm::assemble, Instr, decode};
//!
//! let program = assemble(
//!     "start:  MOVI  r0, #40
//!             ADDI  r0, #2
//!             HALT",
//! ).expect("valid assembly");
//! let words = program.to_vec(0, 3);
//! assert_eq!(decode(words[2]).unwrap(), Instr::Halt);
//! ```

pub mod arch;
pub mod asm;
mod cond;
pub mod disasm;
mod encode;
mod instr;
pub mod ir;
mod reg;

#[cfg(test)]
pub(crate) use encode::tests::sample_instrs as encode_test_samples;

pub use cond::{Cond, Flags};
pub use encode::{decode, encode, DecodeError, EncodeError};
pub use instr::{AluOp, CsrOp, Instr, ShiftKind, UnaryOp};
pub use ir::OpClass;
pub use reg::{InvalidRegError, Reg};
