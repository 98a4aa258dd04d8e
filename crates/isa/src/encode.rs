//! Binary encoding and decoding of ULP16 instructions.
//!
//! Every instruction is one 16-bit word with a 5-bit primary opcode in bits
//! 15..11. Field layout per format:
//!
//! ```text
//! reg-reg ALU     [ op:5 | rd:3 | rs:3 | 00000   ]
//! reg-imm5        [ op:5 | rd:3 | 000  | imm5    ]   (imm5 two's complement)
//! reg-imm8        [ op:5 | rd:3 |       imm8     ]
//! shift           [ op:5 | rd:3 | 00 | k:2 | n:4 ]
//! unary / csr     [ op:5 | rd:3 | 000  | funct:5 ]
//! load/store      [ op:5 | rd:3 | rs:3 | imm5    ]
//! branch          [ op:5 | cond:3 |     off8     ]   (off8 two's complement)
//! jal             [ op:5 |         off11         ]
//! jr/jalr         [ op:5 | 000 | rs:3  | 00000   ]
//! sinc/sdec       [ op:5 | 000 |       imm8      ]
//! nop/sleep/halt  [ op:5 |        all zero       ]
//! ```
//!
//! Decoding is *strict*: reserved bits must be zero and reserved funct
//! values are rejected, so that `encode` and `decode` are exact inverses on
//! their respective domains.

use crate::{AluOp, Cond, CsrOp, Instr, Reg, ShiftKind, UnaryOp};
use std::fmt;

// Primary opcodes.
const OP_NOP: u16 = 0x00;
const OP_ALU_BASE: u16 = 0x01; // 0x01..=0x0B, AluOp::ALL order
const OP_ADDI: u16 = 0x0C;
const OP_CMPI: u16 = 0x0D;
const OP_MOVI: u16 = 0x0E;
const OP_MOVHI: u16 = 0x0F;
const OP_SHIFT: u16 = 0x10;
const OP_UNARY: u16 = 0x11;
const OP_LD: u16 = 0x12;
const OP_ST: u16 = 0x13;
const OP_LDP: u16 = 0x14;
const OP_STP: u16 = 0x15;
const OP_B: u16 = 0x16;
const OP_JAL: u16 = 0x17;
const OP_JR: u16 = 0x18;
const OP_JALR: u16 = 0x19;
const OP_SINC: u16 = 0x1A;
const OP_SDEC: u16 = 0x1B;
const OP_SLEEP: u16 = 0x1C;
const OP_HALT: u16 = 0x1D;
const OP_CSR: u16 = 0x1E;

/// Error produced when an [`Instr`] carries a field outside its binary range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// A signed 5-bit immediate outside `-16..=15`.
    Imm5OutOfRange(i16),
    /// A shift amount outside `0..=15`.
    ShiftOutOfRange(u8),
    /// A branch offset outside `-128..=127`.
    BranchOutOfRange(i16),
    /// A `JAL` offset outside `-1024..=1023`.
    JalOutOfRange(i16),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Imm5OutOfRange(v) => {
                write!(f, "immediate {v} outside signed 5-bit range -16..=15")
            }
            EncodeError::ShiftOutOfRange(v) => {
                write!(f, "shift amount {v} outside range 0..=15")
            }
            EncodeError::BranchOutOfRange(v) => {
                write!(f, "branch offset {v} outside signed 8-bit range -128..=127")
            }
            EncodeError::JalOutOfRange(v) => {
                write!(f, "jal offset {v} outside signed 11-bit range -1024..=1023")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Error produced when decoding a 16-bit word that is not a valid
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The offending machine word.
    pub word: u16,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "word {:#06x} is not a valid ULP16 instruction",
            self.word
        )
    }
}

impl std::error::Error for DecodeError {}

#[inline]
fn imm5(v: i8) -> Result<u16, EncodeError> {
    if (-16..=15).contains(&v) {
        Ok((v as u16) & 0x1F)
    } else {
        Err(EncodeError::Imm5OutOfRange(v as i16))
    }
}

#[inline]
fn rr(op: u16, rd: Reg, rs: Reg, low: u16) -> u16 {
    op << 11 | (rd.index() as u16) << 8 | (rs.index() as u16) << 5 | low
}

/// Encodes an instruction into its 16-bit machine word.
///
/// # Errors
///
/// Returns an [`EncodeError`] if an immediate or offset field lies outside
/// the range representable by the binary format.
///
/// # Example
///
/// ```
/// use ulp_isa::{encode, decode, Instr, Reg};
///
/// let word = encode(Instr::MovI { rd: Reg::R2, imm: 7 }).unwrap();
/// assert_eq!(decode(word).unwrap(), Instr::MovI { rd: Reg::R2, imm: 7 });
/// ```
pub fn encode(instr: Instr) -> Result<u16, EncodeError> {
    Ok(match instr {
        Instr::Nop => OP_NOP << 11,
        Instr::Alu { op, rd, rs } => {
            let idx = AluOp::ALL.iter().position(|o| *o == op).expect("in ALL") as u16;
            rr(OP_ALU_BASE + idx, rd, rs, 0)
        }
        Instr::AddI { rd, imm } => OP_ADDI << 11 | (rd.index() as u16) << 8 | imm5(imm)?,
        Instr::CmpI { rd, imm } => OP_CMPI << 11 | (rd.index() as u16) << 8 | imm5(imm)?,
        Instr::MovI { rd, imm } => OP_MOVI << 11 | (rd.index() as u16) << 8 | imm as u16,
        Instr::MovHi { rd, imm } => OP_MOVHI << 11 | (rd.index() as u16) << 8 | imm as u16,
        Instr::Shift { kind, rd, amount } => {
            if amount > 15 {
                return Err(EncodeError::ShiftOutOfRange(amount));
            }
            let k = ShiftKind::ALL
                .iter()
                .position(|x| *x == kind)
                .expect("in ALL") as u16;
            OP_SHIFT << 11 | (rd.index() as u16) << 8 | k << 4 | amount as u16
        }
        Instr::Unary { op, rd } => {
            let funct = UnaryOp::ALL.iter().position(|o| *o == op).expect("in ALL") as u16;
            OP_UNARY << 11 | (rd.index() as u16) << 8 | funct
        }
        Instr::Ld { rd, base, offset } => rr(OP_LD, rd, base, imm5(offset)?),
        Instr::St { rs, base, offset } => rr(OP_ST, rs, base, imm5(offset)?),
        Instr::LdP { rd, base } => rr(OP_LDP, rd, base, 0),
        Instr::StP { rs, base } => rr(OP_STP, rs, base, 0),
        Instr::Branch { cond, offset } => {
            if !(-128..=127).contains(&offset) {
                return Err(EncodeError::BranchOutOfRange(offset));
            }
            OP_B << 11 | (cond as u16) << 8 | (offset as u16 & 0xFF)
        }
        Instr::Jal { offset } => {
            if !(-1024..=1023).contains(&offset) {
                return Err(EncodeError::JalOutOfRange(offset));
            }
            OP_JAL << 11 | (offset as u16 & 0x7FF)
        }
        Instr::Jr { rs } => OP_JR << 11 | (rs.index() as u16) << 5,
        Instr::Jalr { rs } => OP_JALR << 11 | (rs.index() as u16) << 5,
        Instr::Sinc { index } => OP_SINC << 11 | index as u16,
        Instr::Sdec { index } => OP_SDEC << 11 | index as u16,
        Instr::Sleep => OP_SLEEP << 11,
        Instr::Halt => OP_HALT << 11,
        Instr::Csr { op, rd } => {
            let funct = CsrOp::ALL.iter().position(|o| *o == op).expect("in ALL") as u16;
            let rd_bits = if op.uses_rd() { rd.index() as u16 } else { 0 };
            OP_CSR << 11 | rd_bits << 8 | funct
        }
    })
}

#[inline]
fn sext5(bits: u16) -> i8 {
    ((bits as i16) << 11 >> 11) as i8
}

/// Decodes a 16-bit machine word into an instruction.
///
/// Decoding is strict: reserved bits must be zero, so `decode` is the exact
/// inverse of [`encode`].
///
/// # Errors
///
/// Returns [`DecodeError`] for reserved opcodes, non-zero reserved bits or
/// out-of-range funct values.
#[inline]
pub fn decode(word: u16) -> Result<Instr, DecodeError> {
    let op = word >> 11;
    let rd = Reg::from_bits(word >> 8);
    let rs = Reg::from_bits(word >> 5);
    let low5 = word & 0x1F;
    let low8 = word & 0xFF;
    let err = Err(DecodeError { word });

    let require = |cond: bool, instr: Instr| if cond { Ok(instr) } else { err };

    match op {
        OP_NOP => require(word == 0, Instr::Nop),
        o if (OP_ALU_BASE..OP_ALU_BASE + AluOp::ALL.len() as u16).contains(&o) => {
            let alu = AluOp::ALL[(o - OP_ALU_BASE) as usize];
            require(low5 == 0, Instr::Alu { op: alu, rd, rs })
        }
        OP_ADDI => require(
            word & 0xE0 == 0,
            Instr::AddI {
                rd,
                imm: sext5(low5),
            },
        ),
        OP_CMPI => require(
            word & 0xE0 == 0,
            Instr::CmpI {
                rd,
                imm: sext5(low5),
            },
        ),
        OP_MOVI => Ok(Instr::MovI {
            rd,
            imm: low8 as u8,
        }),
        OP_MOVHI => Ok(Instr::MovHi {
            rd,
            imm: low8 as u8,
        }),
        OP_SHIFT => {
            let kind = ShiftKind::ALL[((word >> 4) & 0x3) as usize];
            require(
                word & 0xC0 == 0,
                Instr::Shift {
                    kind,
                    rd,
                    amount: (word & 0xF) as u8,
                },
            )
        }
        OP_UNARY => match UnaryOp::ALL.get(low5 as usize) {
            Some(&u) if word & 0xE0 == 0 => Ok(Instr::Unary { op: u, rd }),
            _ => err,
        },
        OP_LD => Ok(Instr::Ld {
            rd,
            base: rs,
            offset: sext5(low5),
        }),
        OP_ST => Ok(Instr::St {
            rs: rd,
            base: rs,
            offset: sext5(low5),
        }),
        OP_LDP => require(low5 == 0, Instr::LdP { rd, base: rs }),
        OP_STP => require(low5 == 0, Instr::StP { rs: rd, base: rs }),
        OP_B => Ok(Instr::Branch {
            cond: Cond::from_bits(word >> 8),
            offset: (low8 as i8) as i16,
        }),
        OP_JAL => Ok(Instr::Jal {
            offset: ((word & 0x7FF) as i16) << 5 >> 5,
        }),
        OP_JR => require(word & 0x71F == 0, Instr::Jr { rs }),
        OP_JALR => require(word & 0x71F == 0, Instr::Jalr { rs }),
        OP_SINC => require(word & 0x700 == 0, Instr::Sinc { index: low8 as u8 }),
        OP_SDEC => require(word & 0x700 == 0, Instr::Sdec { index: low8 as u8 }),
        OP_SLEEP => require(word & 0x7FF == 0, Instr::Sleep),
        OP_HALT => require(word & 0x7FF == 0, Instr::Halt),
        OP_CSR => match CsrOp::ALL.get(low5 as usize) {
            Some(&c) if word & 0xE0 == 0 && (c.uses_rd() || word & 0x700 == 0) => {
                Ok(Instr::Csr { op: c, rd })
            }
            _ => err,
        },
        _ => err,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A representative instruction of every format with edge-case fields.
    pub(crate) fn sample_instrs() -> Vec<Instr> {
        let mut v = vec![
            Instr::Nop,
            Instr::Sleep,
            Instr::Halt,
            Instr::Jal { offset: -1024 },
            Instr::Jal { offset: 1023 },
            Instr::Jal { offset: 0 },
            Instr::Jr { rs: Reg::R7 },
            Instr::Jalr { rs: Reg::R0 },
            Instr::Sinc { index: 0 },
            Instr::Sinc { index: 255 },
            Instr::Sdec { index: 17 },
        ];
        for op in AluOp::ALL {
            v.push(Instr::Alu {
                op,
                rd: Reg::R3,
                rs: Reg::R5,
            });
        }
        for op in UnaryOp::ALL {
            v.push(Instr::Unary { op, rd: Reg::R1 });
        }
        for op in CsrOp::ALL {
            // rd is a don't-care for EI/DI/IRET; the canonical form uses r0.
            let rd = if op.uses_rd() { Reg::R2 } else { Reg::R0 };
            v.push(Instr::Csr { op, rd });
        }
        for kind in ShiftKind::ALL {
            v.push(Instr::Shift {
                kind,
                rd: Reg::R6,
                amount: 15,
            });
        }
        for imm in [-16i8, -1, 0, 15] {
            v.push(Instr::AddI { rd: Reg::R0, imm });
            v.push(Instr::CmpI { rd: Reg::R7, imm });
            v.push(Instr::Ld {
                rd: Reg::R4,
                base: Reg::R2,
                offset: imm,
            });
            v.push(Instr::St {
                rs: Reg::R4,
                base: Reg::R2,
                offset: imm,
            });
        }
        for imm in [0u8, 1, 127, 255] {
            v.push(Instr::MovI { rd: Reg::R5, imm });
            v.push(Instr::MovHi { rd: Reg::R5, imm });
        }
        v.push(Instr::LdP {
            rd: Reg::R1,
            base: Reg::R2,
        });
        v.push(Instr::StP {
            rs: Reg::R3,
            base: Reg::R4,
        });
        for offset in [-128i16, -1, 0, 127] {
            v.push(Instr::Branch {
                cond: Cond::Ult,
                offset,
            });
        }
        for cond in Cond::ALL {
            v.push(Instr::Branch { cond, offset: 5 });
        }
        v
    }

    #[test]
    fn round_trip_samples() {
        for instr in sample_instrs() {
            let word = encode(instr).unwrap_or_else(|e| panic!("{instr:?}: {e}"));
            let back = decode(word).unwrap_or_else(|e| panic!("{instr:?} -> {word:#06x}: {e}"));
            assert_eq!(back, instr, "word {word:#06x}");
        }
    }

    #[test]
    fn exhaustive_word_space_bijection() {
        // decode is the inverse of encode over the *entire* 16-bit space:
        // every word either fails to decode or round-trips to itself.
        let mut valid = 0u32;
        for word in 0..=u16::MAX {
            if let Ok(instr) = decode(word) {
                assert_eq!(
                    encode(instr).expect("decoded instruction must encode"),
                    word,
                    "{instr:?}"
                );
                valid += 1;
            }
        }
        // Sanity: a substantial but bounded portion of the space is valid.
        assert!(valid > 10_000, "valid encodings: {valid}");
        assert!(valid < 40_000, "valid encodings: {valid}");
    }

    #[test]
    fn out_of_range_fields_are_rejected() {
        assert_eq!(
            encode(Instr::AddI {
                rd: Reg::R0,
                imm: 16
            }),
            Err(EncodeError::Imm5OutOfRange(16))
        );
        assert_eq!(
            encode(Instr::Ld {
                rd: Reg::R0,
                base: Reg::R1,
                offset: -17
            }),
            Err(EncodeError::Imm5OutOfRange(-17))
        );
        assert_eq!(
            encode(Instr::Shift {
                kind: ShiftKind::Shl,
                rd: Reg::R0,
                amount: 16
            }),
            Err(EncodeError::ShiftOutOfRange(16))
        );
        assert_eq!(
            encode(Instr::Branch {
                cond: Cond::Al,
                offset: 128
            }),
            Err(EncodeError::BranchOutOfRange(128))
        );
        assert_eq!(
            encode(Instr::Jal { offset: 1024 }),
            Err(EncodeError::JalOutOfRange(1024))
        );
    }

    #[test]
    fn reserved_encodings_fail() {
        // Reserved primary opcode 0x1F.
        assert!(decode(0x1F << 11).is_err());
        // NOP with non-zero payload.
        assert!(decode(0x0001).is_err());
        // ALU with non-zero funct bits.
        assert!(decode(
            encode(Instr::Alu {
                op: AluOp::Add,
                rd: Reg::R0,
                rs: Reg::R0
            })
            .unwrap()
                | 1
        )
        .is_err());
        // UNARY with funct 6 (reserved).
        assert!(decode(OP_UNARY << 11 | 6).is_err());
        // CSR with funct 9 (reserved).
        assert!(decode(OP_CSR << 11 | 9).is_err());
        // EI with a non-zero rd field.
        let ei_funct = CsrOp::ALL.iter().position(|o| *o == CsrOp::Ei).unwrap() as u16;
        assert!(decode(OP_CSR << 11 | 1 << 8 | ei_funct).is_err());
    }

    #[test]
    fn error_display() {
        assert_eq!(
            DecodeError { word: 0xF800 }.to_string(),
            "word 0xf800 is not a valid ULP16 instruction"
        );
        assert_eq!(
            EncodeError::JalOutOfRange(2000).to_string(),
            "jal offset 2000 outside signed 11-bit range -1024..=1023"
        );
    }
}
