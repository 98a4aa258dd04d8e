//! Pure architectural semantics of the ULP16 ALU, shifter and unary unit.
//!
//! These functions are free of micro-architectural state so they can serve
//! both the cycle-level [`crate::Core`] and any golden-model test.

use ulp_isa::{AluOp, Flags, ShiftKind, UnaryOp};

/// Result of a flag-setting data-path operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AluResult {
    /// The 16-bit result (for `CMP`/`CMPI` this is discarded by the core).
    pub value: u16,
    /// The updated status flags.
    pub flags: Flags,
}

fn add_with_carry(a: u16, b: u16, carry_in: bool) -> AluResult {
    let wide = a as u32 + b as u32 + carry_in as u32;
    let value = wide as u16;
    let sa = a & 0x8000 != 0;
    let sb = b & 0x8000 != 0;
    let sr = value & 0x8000 != 0;
    AluResult {
        value,
        flags: Flags {
            z: value == 0,
            n: sr,
            c: wide > 0xFFFF,
            v: sa == sb && sr != sa,
        },
    }
}

/// Subtraction is implemented as `a + !b + carry_in`; with `carry_in = true`
/// this computes `a - b` and the carry flag becomes *not-borrow*.
fn sub_with_borrow(a: u16, b: u16, carry_in: bool) -> AluResult {
    add_with_carry(a, !b, carry_in)
}

fn logic_flags(value: u16, flags: Flags) -> AluResult {
    AluResult {
        value,
        flags: Flags {
            z: value == 0,
            n: value & 0x8000 != 0,
            ..flags
        },
    }
}

/// Executes a two-operand ALU operation: `a` is the destination operand
/// (`rd`), `b` the source (`rs` or a sign-extended immediate).
///
/// Flag behaviour follows the ISA reference:
/// * `ADD/SUB/ADC/SBC/CMP` set Z N C V (carry = not-borrow on subtraction);
/// * `AND/OR/XOR/MUL/MULH` set Z N only;
/// * `MOV` leaves the flags unchanged.
///
/// # Example
///
/// ```
/// use ulp_cpu::alu_exec;
/// use ulp_isa::{AluOp, Flags};
///
/// let r = alu_exec(AluOp::Sub, 5, 7, Flags::default());
/// assert_eq!(r.value, (-2i16) as u16);
/// assert!(r.flags.n && !r.flags.c); // negative, borrow occurred
/// ```
#[inline]
pub fn alu_exec(op: AluOp, a: u16, b: u16, flags: Flags) -> AluResult {
    match op {
        AluOp::Add => add_with_carry(a, b, false),
        AluOp::Sub | AluOp::Cmp => sub_with_borrow(a, b, true),
        AluOp::Adc => add_with_carry(a, b, flags.c),
        AluOp::Sbc => sub_with_borrow(a, b, flags.c),
        AluOp::And => logic_flags(a & b, flags),
        AluOp::Or => logic_flags(a | b, flags),
        AluOp::Xor => logic_flags(a ^ b, flags),
        AluOp::Mov => AluResult { value: b, flags },
        AluOp::Mul => logic_flags(a.wrapping_mul(b), flags),
        AluOp::Mulh => {
            let wide = (a as i16 as i32) * (b as i16 as i32);
            logic_flags((wide >> 16) as u16, flags)
        }
    }
}

/// Executes a shift/rotate by a constant amount `0..=15`.
///
/// For a non-zero amount the carry receives the last bit shifted (or
/// rotated) out; a zero amount only refreshes Z and N.
#[inline]
pub fn shift_exec(kind: ShiftKind, a: u16, amount: u8, flags: Flags) -> AluResult {
    let n = (amount & 0xF) as u32;
    if n == 0 {
        return logic_flags(a, flags);
    }
    let (value, carry_out) = match kind {
        ShiftKind::Shl => (a << n, a & (1 << (16 - n)) != 0),
        ShiftKind::Shr => (a >> n, a & (1 << (n - 1)) != 0),
        ShiftKind::Asr => (((a as i16) >> n) as u16, a & (1 << (n - 1)) != 0),
        ShiftKind::Ror => (a.rotate_right(n), a & (1 << (n - 1)) != 0),
    };
    AluResult {
        value,
        flags: Flags {
            z: value == 0,
            n: value & 0x8000 != 0,
            c: carry_out,
            ..flags
        },
    }
}

/// Executes a unary operation.
///
/// `NEG` behaves like a subtraction from zero (full Z N C V); `ABS` sets V
/// when the operand is `-32768`, whose magnitude is unrepresentable.
#[inline]
pub fn unary_exec(op: UnaryOp, a: u16, flags: Flags) -> AluResult {
    match op {
        UnaryOp::Not => logic_flags(!a, flags),
        UnaryOp::Neg => sub_with_borrow(0, a, true),
        UnaryOp::Sxtb => logic_flags((a as u8 as i8) as i16 as u16, flags),
        UnaryOp::Zxtb => logic_flags(a & 0x00FF, flags),
        UnaryOp::Swpb => logic_flags(a.rotate_right(8), flags),
        UnaryOp::Abs => {
            let signed = a as i16;
            let value = signed.wrapping_abs() as u16;
            AluResult {
                value,
                flags: Flags {
                    z: value == 0,
                    n: value & 0x8000 != 0,
                    v: signed == i16::MIN,
                    ..flags
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F0: Flags = Flags {
        z: false,
        n: false,
        c: false,
        v: false,
    };

    #[test]
    fn add_flags() {
        let r = alu_exec(AluOp::Add, 0xFFFF, 1, F0);
        assert_eq!(r.value, 0);
        assert!(r.flags.z && r.flags.c && !r.flags.v);

        let r = alu_exec(AluOp::Add, 0x7FFF, 1, F0);
        assert_eq!(r.value, 0x8000);
        assert!(r.flags.v && r.flags.n && !r.flags.c);
    }

    #[test]
    fn sub_carry_is_not_borrow() {
        // 5 - 3: no borrow -> C set.
        let r = alu_exec(AluOp::Sub, 5, 3, F0);
        assert_eq!(r.value, 2);
        assert!(r.flags.c);
        // 3 - 5: borrow -> C clear.
        let r = alu_exec(AluOp::Sub, 3, 5, F0);
        assert_eq!(r.value, 0xFFFE);
        assert!(!r.flags.c && r.flags.n);
    }

    #[test]
    fn signed_overflow_on_sub() {
        let r = alu_exec(AluOp::Sub, 0x8000, 1, F0); // -32768 - 1
        assert_eq!(r.value, 0x7FFF);
        assert!(r.flags.v);
    }

    #[test]
    fn adc_sbc_chain_32bit() {
        // 32-bit addition 0x0001_FFFF + 0x0000_0001 = 0x0002_0000.
        let lo = alu_exec(AluOp::Add, 0xFFFF, 0x0001, F0);
        let hi = alu_exec(AluOp::Adc, 0x0001, 0x0000, lo.flags);
        assert_eq!((hi.value, lo.value), (0x0002, 0x0000));

        // 32-bit subtraction 0x0002_0000 - 0x0000_0001 = 0x0001_FFFF.
        let lo = alu_exec(AluOp::Sub, 0x0000, 0x0001, F0);
        let hi = alu_exec(AluOp::Sbc, 0x0002, 0x0000, lo.flags);
        assert_eq!((hi.value, lo.value), (0x0001, 0xFFFF));
    }

    #[test]
    fn mul_and_mulh() {
        assert_eq!(
            alu_exec(AluOp::Mul, 300, 300, F0).value,
            (90000u32 & 0xFFFF) as u16
        );
        // -2 * 3 = -6 -> high word all ones.
        assert_eq!(alu_exec(AluOp::Mulh, (-2i16) as u16, 3, F0).value, 0xFFFF);
        assert_eq!(alu_exec(AluOp::Mulh, 0x4000, 0x0004, F0).value, 0x0001);
    }

    #[test]
    fn mov_preserves_flags() {
        let f = Flags {
            z: true,
            n: true,
            c: true,
            v: true,
        };
        let r = alu_exec(AluOp::Mov, 1, 2, f);
        assert_eq!(r.value, 2);
        assert_eq!(r.flags, f);
    }

    #[test]
    fn logic_preserves_carry() {
        let f = Flags { c: true, ..F0 };
        let r = alu_exec(AluOp::And, 0xF0F0, 0x0FF0, f);
        assert_eq!(r.value, 0x00F0);
        assert!(r.flags.c, "carry must survive logic ops");
    }

    #[test]
    fn shifts() {
        let r = shift_exec(ShiftKind::Shl, 0x8001, 1, F0);
        assert_eq!(r.value, 0x0002);
        assert!(r.flags.c, "msb shifted out");

        let r = shift_exec(ShiftKind::Shr, 0x8001, 1, F0);
        assert_eq!(r.value, 0x4000);
        assert!(r.flags.c, "lsb shifted out");

        let r = shift_exec(ShiftKind::Asr, 0x8000, 3, F0);
        assert_eq!(r.value, 0xF000);

        let r = shift_exec(ShiftKind::Ror, 0x0001, 1, F0);
        assert_eq!(r.value, 0x8000);
        assert!(r.flags.c);

        // Zero amount leaves value and carry untouched.
        let f = Flags { c: true, ..F0 };
        let r = shift_exec(ShiftKind::Shl, 0x1234, 0, f);
        assert_eq!(r.value, 0x1234);
        assert!(r.flags.c);
    }

    #[test]
    fn unaries() {
        assert_eq!(unary_exec(UnaryOp::Not, 0x00FF, F0).value, 0xFF00);
        assert_eq!(unary_exec(UnaryOp::Neg, 5, F0).value, (-5i16) as u16);
        assert_eq!(unary_exec(UnaryOp::Sxtb, 0x0080, F0).value, 0xFF80);
        assert_eq!(unary_exec(UnaryOp::Zxtb, 0xAB12, F0).value, 0x0012);
        assert_eq!(unary_exec(UnaryOp::Swpb, 0xAB12, F0).value, 0x12AB);
        assert_eq!(unary_exec(UnaryOp::Abs, (-7i16) as u16, F0).value, 7);
        let r = unary_exec(UnaryOp::Abs, 0x8000, F0);
        assert_eq!(r.value, 0x8000);
        assert!(r.flags.v);
    }

    #[test]
    fn neg_of_zero_sets_zero_and_carry() {
        let r = unary_exec(UnaryOp::Neg, 0, F0);
        assert_eq!(r.value, 0);
        assert!(r.flags.z);
        assert!(r.flags.c, "0 - 0 has no borrow");
    }
}
