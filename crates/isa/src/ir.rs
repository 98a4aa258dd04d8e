//! Decode-to-IR: pre-resolved micro-operations for the compiled
//! execution tier.
//!
//! The interpreter decodes every instruction word on every fetch. The
//! compiled tier (the `ulp_jit` crate) decodes each hot basic block
//! *once* into a straight-line sequence of [`MicroOp`]s:
//! the decoded [`Instr`] plus an [`OpClass`] that tells the execution
//! engine, without further inspection, whether the operation is safe to
//! run inside a trace or marks a fidelity boundary where the trace must
//! end and the interpreter takes over.

use crate::instr::{CsrOp, Instr};

/// How an instruction behaves inside a straight-line trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Core-local: touches only registers, flags and the sequential PC.
    /// Always trace-safe.
    Pure,
    /// A data-memory access (`LD`/`ST`/`LDP`/`STP`). Trace-safe only in
    /// cycles whose whole DM request set is conflict-free and lock-free
    /// in the crossbar; otherwise the cycle is a fidelity boundary.
    Mem,
    /// Redirects the PC (`B<cond>`/`JAL`/`JR`/`JALR`/`IRET`). Core-local
    /// and therefore trace-executable, but it ends the block: the
    /// successor PC is only known at run time.
    Control,
    /// A hard fidelity boundary (`SINC`/`SDEC`/`SLEEP`/`HALT`): the
    /// instruction involves the synchronizer, the sleep/wake machinery or
    /// run termination, so the trace must hand back to the interpreter
    /// *before* executing it.
    Boundary,
}

/// One pre-resolved micro-operation of a translated block: the decoded
/// instruction with its trace classification baked in at translation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// The decoded instruction, kept verbatim so a trace that bails out
    /// mid-block leaves the core in an ordinary
    /// `Execute(instr)` state the interpreter can resume from.
    pub instr: Instr,
    /// The trace classification.
    pub class: OpClass,
}

impl MicroOp {
    /// Wraps a decoded instruction with its classification.
    #[inline]
    pub fn new(instr: Instr) -> MicroOp {
        MicroOp {
            instr,
            class: instr.op_class(),
        }
    }
}

impl Instr {
    /// The instruction's [`OpClass`] — how the compiled tier may treat it
    /// inside a straight-line trace.
    #[inline]
    pub fn op_class(self) -> OpClass {
        match self {
            Instr::Ld { .. } | Instr::St { .. } | Instr::LdP { .. } | Instr::StP { .. } => {
                OpClass::Mem
            }
            Instr::Branch { .. }
            | Instr::Jal { .. }
            | Instr::Jr { .. }
            | Instr::Jalr { .. }
            | Instr::Csr {
                op: CsrOp::Iret, ..
            } => OpClass::Control,
            Instr::Sinc { .. } | Instr::Sdec { .. } | Instr::Sleep | Instr::Halt => {
                OpClass::Boundary
            }
            Instr::Nop
            | Instr::Alu { .. }
            | Instr::AddI { .. }
            | Instr::CmpI { .. }
            | Instr::MovI { .. }
            | Instr::MovHi { .. }
            | Instr::Shift { .. }
            | Instr::Unary { .. }
            | Instr::Csr { .. } => OpClass::Pure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Cond;
    use crate::reg::Reg;

    #[test]
    fn classes_partition_the_isa() {
        assert_eq!(Instr::Nop.op_class(), OpClass::Pure);
        assert_eq!(
            Instr::Ld {
                rd: Reg::R0,
                base: Reg::R1,
                offset: 0
            }
            .op_class(),
            OpClass::Mem
        );
        assert_eq!(
            Instr::Branch {
                cond: Cond::Al,
                offset: -1
            }
            .op_class(),
            OpClass::Control
        );
        assert_eq!(
            Instr::Csr {
                op: CsrOp::Iret,
                rd: Reg::R0
            }
            .op_class(),
            OpClass::Control,
            "IRET redirects the PC: block terminator"
        );
        assert_eq!(
            Instr::Csr {
                op: CsrOp::RdCyc,
                rd: Reg::R0
            }
            .op_class(),
            OpClass::Pure
        );
        assert_eq!(Instr::Sinc { index: 0 }.op_class(), OpClass::Boundary);
        assert_eq!(Instr::Halt.op_class(), OpClass::Boundary);
    }

    #[test]
    fn class_agrees_with_the_existing_predicates() {
        // Every memory instruction is Mem, every sync instruction is a
        // boundary, and control flow is Control — the IR classification
        // must stay consistent with the ISA predicates the interpreter
        // already relies on.
        let samples = [
            Instr::Nop,
            Instr::AddI {
                rd: Reg::R2,
                imm: -3,
            },
            Instr::St {
                rs: Reg::R0,
                base: Reg::R1,
                offset: 2,
            },
            Instr::Jal { offset: 4 },
            Instr::Sdec { index: 1 },
            Instr::Sleep,
        ];
        for instr in samples {
            let class = instr.op_class();
            // `is_mem` counts the sync ISE too (its traffic goes through
            // the synchronizer); the IR splits that off as Boundary.
            assert_eq!(
                class == OpClass::Mem,
                instr.is_mem() && !instr.is_sync(),
                "{instr:?}"
            );
            if instr.is_sync() {
                assert_eq!(class, OpClass::Boundary, "{instr:?}");
            }
            if instr.is_control() {
                assert_eq!(class, OpClass::Control, "{instr:?}");
            }
        }
    }
}
