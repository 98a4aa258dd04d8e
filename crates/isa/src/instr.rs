//! The ULP16 instruction set.

use crate::{Cond, Reg};
use std::fmt;

/// Two-operand ALU operations (`op rd, rs` — `rd` is both source and
/// destination except for [`AluOp::Cmp`], which only updates the flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `rd += rs` (sets Z N C V).
    Add,
    /// `rd -= rs` (sets Z N C V; carry is *not-borrow*).
    Sub,
    /// `rd &= rs` (sets Z N).
    And,
    /// `rd |= rs` (sets Z N).
    Or,
    /// `rd ^= rs` (sets Z N).
    Xor,
    /// `rd = rs` (flags unchanged).
    Mov,
    /// `rd = low16(rd * rs)` (sets Z N).
    Mul,
    /// `rd = high16(sign-extended rd * rs)` (sets Z N).
    Mulh,
    /// `rd += rs + C` — add with carry, for multi-word arithmetic.
    Adc,
    /// `rd -= rs + !C` — subtract with borrow.
    Sbc,
    /// Flags of `rd - rs`; `rd` unchanged.
    Cmp,
}

impl AluOp {
    /// All reg-reg ALU operations in encoding order (opcode `0x01 + i`).
    pub const ALL: [AluOp; 11] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Mov,
        AluOp::Mul,
        AluOp::Mulh,
        AluOp::Adc,
        AluOp::Sbc,
        AluOp::Cmp,
    ];

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Mov => "mov",
            AluOp::Mul => "mul",
            AluOp::Mulh => "mulh",
            AluOp::Adc => "adc",
            AluOp::Sbc => "sbc",
            AluOp::Cmp => "cmp",
        }
    }
}

/// Shift kinds for the `SHIFT` instruction group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftKind {
    /// Logical shift left (C = last bit shifted out).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right (sign-preserving).
    Asr,
    /// Rotate right.
    Ror,
}

impl ShiftKind {
    /// All shift kinds in encoding order.
    pub const ALL: [ShiftKind; 4] = [
        ShiftKind::Shl,
        ShiftKind::Shr,
        ShiftKind::Asr,
        ShiftKind::Ror,
    ];

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ShiftKind::Shl => "shl",
            ShiftKind::Shr => "shr",
            ShiftKind::Asr => "asr",
            ShiftKind::Ror => "ror",
        }
    }
}

/// Single-operand (unary) operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Bitwise complement (sets Z N).
    Not,
    /// Two's-complement negation (sets Z N C V like `SUB` from zero).
    Neg,
    /// Sign-extend the low byte (sets Z N).
    Sxtb,
    /// Zero-extend the low byte (sets Z N).
    Zxtb,
    /// Swap the two bytes (sets Z N).
    Swpb,
    /// Absolute value (sets Z N; V when the input is `-32768`).
    Abs,
}

impl UnaryOp {
    /// All unary operations in encoding order (funct field).
    pub const ALL: [UnaryOp; 6] = [
        UnaryOp::Not,
        UnaryOp::Neg,
        UnaryOp::Sxtb,
        UnaryOp::Zxtb,
        UnaryOp::Swpb,
        UnaryOp::Abs,
    ];

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnaryOp::Not => "not",
            UnaryOp::Neg => "neg",
            UnaryOp::Sxtb => "sxtb",
            UnaryOp::Zxtb => "zxtb",
            UnaryOp::Swpb => "swpb",
            UnaryOp::Abs => "abs",
        }
    }
}

/// Control and status register operations (the `CSR` opcode group), which
/// also carries the interrupt-management instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// `rd = core id` — lets SPMD code derive per-channel addresses.
    RdId,
    /// `rd = status register` (flags + interrupt-enable).
    RdSr,
    /// `status register = rd`.
    WrSr,
    /// `rd = RSYNC` (sync-array base address register, Section IV-B).
    RdSync,
    /// `RSYNC = rd`.
    WrSync,
    /// Enable interrupts.
    Ei,
    /// Disable interrupts.
    Di,
    /// Return from interrupt (restores PC and status).
    Iret,
    /// `rd = low 16 bits of the core cycle counter` (profiling aid).
    RdCyc,
}

impl CsrOp {
    /// All CSR operations in encoding order (funct field).
    pub const ALL: [CsrOp; 9] = [
        CsrOp::RdId,
        CsrOp::RdSr,
        CsrOp::WrSr,
        CsrOp::RdSync,
        CsrOp::WrSync,
        CsrOp::Ei,
        CsrOp::Di,
        CsrOp::Iret,
        CsrOp::RdCyc,
    ];

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CsrOp::RdId => "rdid",
            CsrOp::RdSr => "rdsr",
            CsrOp::WrSr => "wrsr",
            CsrOp::RdSync => "rdsync",
            CsrOp::WrSync => "wrsync",
            CsrOp::Ei => "ei",
            CsrOp::Di => "di",
            CsrOp::Iret => "iret",
            CsrOp::RdCyc => "rdcyc",
        }
    }

    /// Whether the operation uses its `rd` operand.
    pub fn uses_rd(self) -> bool {
        !matches!(self, CsrOp::Ei | CsrOp::Di | CsrOp::Iret)
    }
}

/// A decoded ULP16 instruction.
///
/// Immediates are stored in natural signed/unsigned Rust types; the
/// [`crate::encode`] function validates their ranges against the binary
/// format (see the field documentation for each variant).
///
/// The synchronization ISE of the paper consists of [`Instr::Sinc`] and
/// [`Instr::Sdec`]: both perform an atomic read-modify-write of the sync
/// word at `RSYNC + index` through the hardware synchronizer, asserting the
/// core's *lock* output for the duration; `SDEC` additionally puts the core
/// to sleep until the synchronizer wakes it (Section IV of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// No operation.
    Nop,
    /// Two-operand ALU operation `op rd, rs`.
    Alu {
        /// The operation.
        op: AluOp,
        /// Destination (and first source) register.
        rd: Reg,
        /// Second source register.
        rs: Reg,
    },
    /// `rd += imm` — signed 5-bit immediate in `-16..=15` (sets Z N C V).
    AddI {
        /// Destination register.
        rd: Reg,
        /// Signed immediate, `-16..=15`.
        imm: i8,
    },
    /// Flags of `rd - imm` — signed 5-bit immediate in `-16..=15`.
    CmpI {
        /// Register compared.
        rd: Reg,
        /// Signed immediate, `-16..=15`.
        imm: i8,
    },
    /// `rd = imm` — zero-extended 8-bit immediate.
    MovI {
        /// Destination register.
        rd: Reg,
        /// Unsigned immediate, `0..=255`.
        imm: u8,
    },
    /// `rd = (imm << 8) | (rd & 0xFF)` — sets the high byte.
    MovHi {
        /// Destination register.
        rd: Reg,
        /// Unsigned immediate, `0..=255`.
        imm: u8,
    },
    /// Shift/rotate `rd` by a constant amount `0..=15`.
    Shift {
        /// Shift kind.
        kind: ShiftKind,
        /// Destination register.
        rd: Reg,
        /// Shift amount, `0..=15`.
        amount: u8,
    },
    /// Unary operation on `rd`.
    Unary {
        /// The operation.
        op: UnaryOp,
        /// Destination register.
        rd: Reg,
    },
    /// `rd = DM[rs + offset]` — signed 5-bit word offset.
    Ld {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed word offset, `-16..=15`.
        offset: i8,
    },
    /// `DM[base + offset] = rs`.
    St {
        /// Source register (value stored).
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Signed word offset, `-16..=15`.
        offset: i8,
    },
    /// `rd = DM[base]; base += 1` — load with post-increment.
    LdP {
        /// Destination register.
        rd: Reg,
        /// Base address register (incremented after the access).
        base: Reg,
    },
    /// `DM[base] = rs; base += 1` — store with post-increment.
    StP {
        /// Source register (value stored).
        rs: Reg,
        /// Base address register (incremented after the access).
        base: Reg,
    },
    /// Conditional PC-relative branch; `offset` is in words relative to the
    /// *next* instruction, `-128..=127`.
    Branch {
        /// Condition evaluated against the status flags.
        cond: Cond,
        /// Signed word offset from PC+1, `-128..=127`.
        offset: i16,
    },
    /// Jump and link: `r7 = PC + 1; PC += 1 + offset` with
    /// `offset` in `-1024..=1023`.
    Jal {
        /// Signed word offset from PC+1, `-1024..=1023`.
        offset: i16,
    },
    /// Jump register: `PC = rs`.
    Jr {
        /// Register holding the target address.
        rs: Reg,
    },
    /// Jump and link register: `r7 = PC + 1; PC = rs`.
    Jalr {
        /// Register holding the target address.
        rs: Reg,
    },
    /// **ISE** — synchronization check-in at sync point `index`
    /// (Section IV-B-a of the paper).
    Sinc {
        /// Sync-point index into the array based at `RSYNC`.
        index: u8,
    },
    /// **ISE** — synchronization check-out at sync point `index`; the core
    /// sleeps until every checked-in core has checked out
    /// (Section IV-B-b of the paper).
    Sdec {
        /// Sync-point index into the array based at `RSYNC`.
        index: u8,
    },
    /// Enter sleep mode until a wake-up event (external clock gating of the
    /// entire core, Section III of the paper).
    Sleep,
    /// Halt the core permanently (simulation end marker).
    Halt,
    /// Control/status register operation.
    Csr {
        /// The operation.
        op: CsrOp,
        /// Operand register (ignored by `EI`/`DI`/`IRET`).
        rd: Reg,
    },
}

impl Instr {
    /// Whether executing this instruction accesses data memory (including
    /// the sync-word accesses performed by the synchronization ISE).
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(
            self,
            Instr::Ld { .. }
                | Instr::St { .. }
                | Instr::LdP { .. }
                | Instr::StP { .. }
                | Instr::Sinc { .. }
                | Instr::Sdec { .. }
        )
    }

    /// Whether this instruction can change the PC to a non-sequential value.
    #[inline]
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Instr::Branch { .. }
                | Instr::Jal { .. }
                | Instr::Jr { .. }
                | Instr::Jalr { .. }
                | Instr::Csr {
                    op: CsrOp::Iret,
                    ..
                }
        )
    }

    /// Whether this instruction is part of the synchronization ISE.
    #[inline]
    pub fn is_sync(self) -> bool {
        matches!(self, Instr::Sinc { .. } | Instr::Sdec { .. })
    }

    /// Whether this instruction counts as a *useful operation* for the
    /// paper's Ops/s workload metric (everything except `NOP`, `SLEEP`,
    /// `HALT` and the synchronization ISE, which are pure overhead).
    #[inline]
    pub fn is_useful_op(self) -> bool {
        !matches!(
            self,
            Instr::Nop | Instr::Sleep | Instr::Halt | Instr::Sinc { .. } | Instr::Sdec { .. }
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::disasm::disassemble(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Instr::Ld {
            rd: Reg::R0,
            base: Reg::R1,
            offset: 0
        }
        .is_mem());
        assert!(Instr::Sinc { index: 3 }.is_mem());
        assert!(Instr::Sinc { index: 3 }.is_sync());
        assert!(!Instr::Sinc { index: 3 }.is_useful_op());
        assert!(Instr::Branch {
            cond: Cond::Eq,
            offset: -4
        }
        .is_control());
        assert!(Instr::Csr {
            op: CsrOp::Iret,
            rd: Reg::R0
        }
        .is_control());
        assert!(Instr::Alu {
            op: AluOp::Add,
            rd: Reg::R0,
            rs: Reg::R1
        }
        .is_useful_op());
        assert!(!Instr::Nop.is_useful_op());
        assert!(!Instr::Halt.is_useful_op());
    }

    #[test]
    fn mnemonics_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for op in AluOp::ALL {
            assert!(seen.insert(op.mnemonic()));
        }
        for op in UnaryOp::ALL {
            assert!(seen.insert(op.mnemonic()));
        }
        for op in CsrOp::ALL {
            assert!(seen.insert(op.mnemonic()));
        }
        for k in ShiftKind::ALL {
            assert!(seen.insert(k.mnemonic()));
        }
    }

    #[test]
    fn csr_rd_usage() {
        assert!(CsrOp::RdId.uses_rd());
        assert!(!CsrOp::Ei.uses_rd());
        assert!(!CsrOp::Iret.uses_rd());
    }
}
