//! The single rounding primitive all operations funnel through.
//!
//! Every arithmetic operation in this crate reduces its exact result to a
//! pair `(sig, exp)` meaning `value = sig * 2^exp`, where `sig` is exact
//! *except* that its least-significant bit may be a "sticky" OR of dropped
//! lower-order bits (the classic guard/round/sticky argument: as long as at
//! least two exact bits sit between the rounding point and the sticky
//! position, round-to-nearest-even decisions are unaffected). [`round_pack`]
//! then performs the one and only rounding into the destination format.

use nga_obs::Event8;

use crate::format::{FloatFormat, Rounding};

/// Result of packing: encoded bits plus the exception flags raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoundOutcome {
    pub bits: u64,
    pub flags: Event8,
}

/// Right-shifts `sig` by `k`, ORing every shifted-out bit into the result's
/// least-significant bit (the "sticky" bit).
#[inline]
#[must_use]
pub(crate) fn shift_right_sticky(sig: u128, k: u32) -> u128 {
    if k == 0 {
        sig
    } else if k >= 128 {
        u128::from(sig != 0)
    } else {
        let dropped = sig & ((1u128 << k) - 1);
        (sig >> k) | u128::from(dropped != 0)
    }
}

/// Rounds `sig` after dropping its `drop` low bits, under the given
/// rounding-direction attribute (`sign` is the value's sign, which the
/// directed modes need).
///
/// `drop` may exceed the width of `sig`; callers guarantee the sticky bit
/// (if any) sits strictly below the round bit, which [`shift_right_sticky`]
/// preserves.
#[inline]
#[must_use]
fn round_drop(mut sig: u128, mut drop: u32, mode: Rounding, sign: bool) -> (u128, bool) {
    if drop == 0 {
        return (sig, false);
    }
    if drop > 126 {
        // Collapse the far-low bits into a sticky bit first so `half` fits.
        let collapse = drop - 64;
        sig = shift_right_sticky(sig, collapse);
        drop = 64;
    }
    let mask = (1u128 << drop) - 1;
    let rem = sig & mask;
    let q = sig >> drop;
    let half = 1u128 << (drop - 1);
    let inexact = rem != 0;
    let up = match mode {
        Rounding::NearestEven => rem > half || (rem == half && q & 1 == 1),
        Rounding::NearestAway => rem >= half,
        Rounding::TowardZero => false,
        Rounding::TowardPositive => inexact && !sign,
        Rounding::TowardNegative => inexact && sign,
    };
    (if up { q + 1 } else { q }, inexact)
}

/// Rounds the exact (or sticky-collapsed) value `(-1)^sign * sig * 2^exp`
/// into `fmt` under the format's rounding-direction attribute, producing
/// encoded bits and flags.
///
/// Handles normal results, gradual underflow into subnormals, rounding up
/// across the subnormal/normal boundary, overflow (to infinity or to the
/// largest finite value, per the directed-rounding rules of IEEE 754
/// §7.4), and exact zeros. This is the only place in the crate where
/// rounding happens.
#[inline]
#[must_use]
pub(crate) fn round_pack(sign: bool, sig: u128, exp: i32, fmt: FloatFormat) -> RoundOutcome {
    let mode = fmt.rounding();
    let sign_bit = u64::from(sign) << fmt.sign_shift();
    if sig == 0 {
        return RoundOutcome {
            bits: sign_bit,
            flags: Event8::NONE,
        };
    }
    let m = fmt.frac_bits() as i32;
    let top = 127 - sig.leading_zeros() as i32; // MSB index: value in [2^(exp+top), 2^(exp+top+1))
    let e_val = exp + top;
    let mut flags = Event8::NONE;

    if e_val >= fmt.emin() {
        // Normal candidate: significand wants m+1 bits (hidden + fraction).
        let drop = top - m;
        let (rounded, inexact) = if drop > 0 {
            round_drop(sig, drop as u32, mode, sign)
        } else {
            (sig << (-drop) as u32, false)
        };
        if inexact {
            flags |= Event8::INEXACT;
        }
        // Rounding may carry out: 2^(m+1) exactly (all-ones rounds up).
        let (rsig, re) = if rounded >> (m as u32 + 1) != 0 {
            (rounded >> 1, e_val + 1)
        } else {
            (rounded, e_val)
        };
        if re > fmt.emax() {
            // IEEE 754 §7.4: the nearest modes overflow to infinity; the
            // directed modes deliver the largest finite value when the
            // infinity lies on the wrong side.
            let to_infinity = match mode {
                Rounding::NearestEven | Rounding::NearestAway => true,
                Rounding::TowardZero => false,
                Rounding::TowardPositive => !sign,
                Rounding::TowardNegative => sign,
            };
            let bits = if to_infinity {
                sign_bit | (fmt.exp_field_max() << fmt.frac_bits())
            } else {
                // Largest finite: emax with an all-ones fraction.
                sign_bit | ((fmt.exp_field_max() - 1) << fmt.frac_bits()) | fmt.frac_mask()
            };
            return RoundOutcome {
                bits,
                flags: flags | Event8::OVERFLOW | Event8::INEXACT,
            };
        }
        let e_field = (re + fmt.bias()) as u64;
        debug_assert!(rsig >> m == 1, "normal significand must have hidden bit");
        let frac = (rsig as u64) & fmt.frac_mask();
        RoundOutcome {
            bits: sign_bit | (e_field << fmt.frac_bits()) | frac,
            flags,
        }
    } else {
        // Subnormal candidate: quantize to the fixed subnormal ulp 2^(emin-m).
        let q_exp = fmt.emin() - m;
        let drop = q_exp - exp;
        let (rounded, inexact) = if drop > 0 {
            round_drop(sig, drop as u32, mode, sign)
        } else {
            (sig << (-drop) as u32, false)
        };
        if inexact {
            flags |= Event8::INEXACT;
            flags |= Event8::UNDERFLOW;
        }
        if rounded >= 1u128 << m {
            // Rounded all the way up to the smallest normal.
            debug_assert!(rounded == 1u128 << m);
            let e_field = 1u64;
            return RoundOutcome {
                bits: sign_bit | (e_field << fmt.frac_bits()),
                flags,
            };
        }
        RoundOutcome {
            bits: sign_bit | rounded as u64,
            flags,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F16: FloatFormat = FloatFormat::BINARY16;

    #[test]
    fn sticky_shift_preserves_nonzero() {
        assert_eq!(shift_right_sticky(0b1000, 3), 0b1);
        assert_eq!(shift_right_sticky(0b1001, 3), 0b11 >> 1 | 1); // 1 | sticky
        assert_eq!(shift_right_sticky(5, 200), 1);
        assert_eq!(shift_right_sticky(0, 200), 0);
    }

    #[test]
    fn packs_one_exactly() {
        // 1.0 = sig 1 * 2^0
        let out = round_pack(false, 1, 0, F16);
        assert_eq!(out.bits, 0x3C00);
        assert!(out.flags.is_empty());
    }

    #[test]
    fn packs_negative_zero() {
        let out = round_pack(true, 0, 5, F16);
        assert_eq!(out.bits, 0x8000);
    }

    #[test]
    fn overflow_goes_to_infinity() {
        // 2^16 overflows binary16 (emax = 15, max finite 65504).
        let out = round_pack(false, 1, 16, F16);
        assert_eq!(out.bits, 0x7C00);
        assert!(out.flags.contains(Event8::OVERFLOW | Event8::INEXACT));
    }

    #[test]
    fn just_below_overflow_rounds_to_max_finite() {
        // 65519.999... should round down to 65504; 65520 rounds to inf.
        // 65504 = 0x7BFF. Use sig = 65519, exp = 0.
        let out = round_pack(false, 65519, 0, F16);
        assert_eq!(out.bits, 0x7BFF);
        // 65520 is the exact midpoint between 65504 and "65536": ties to even
        // picks the (infinite) even side per IEEE -> infinity.
        let out = round_pack(false, 65520, 0, F16);
        assert_eq!(out.bits, 0x7C00);
    }

    #[test]
    fn subnormal_quantum() {
        // Smallest subnormal of binary16 is 2^-24.
        let out = round_pack(false, 1, -24, F16);
        assert_eq!(out.bits, 0x0001);
        assert!(out.flags.is_empty());
        // Half of it ties to even -> 0, with underflow+inexact.
        let out = round_pack(false, 1, -25, F16);
        assert_eq!(out.bits, 0x0000);
        assert!(out.flags.contains(Event8::UNDERFLOW | Event8::INEXACT));
        // Three quarters rounds up to one quantum.
        let out = round_pack(false, 3, -26, F16);
        assert_eq!(out.bits, 0x0001);
    }

    #[test]
    fn subnormal_rounds_up_to_min_normal() {
        // Largest subnormal + half ulp rounds to smallest normal 0x0400.
        // Largest subnormal raw = 0x3FF (1023 quanta); value (1023 + 0.5) * 2^-24
        let out = round_pack(false, 2047, -25, F16);
        assert_eq!(out.bits, 0x0400);
    }

    #[test]
    fn giant_drop_rounds_to_zero() {
        let out = round_pack(false, u128::MAX >> 1, -500, F16);
        assert_eq!(out.bits, 0x0000);
        assert!(out.flags.contains(Event8::UNDERFLOW));
    }

    fn dir(mode: Rounding) -> FloatFormat {
        F16.with_rounding(mode)
    }

    #[test]
    fn directed_overflow_per_mode() {
        // IEEE 754 §7.4: overflow goes to infinity only in the modes whose
        // direction agrees; otherwise to the signed max finite (0x7BFF).
        for (mode, pos, neg) in [
            (Rounding::NearestEven, 0x7C00, 0xFC00),
            (Rounding::NearestAway, 0x7C00, 0xFC00),
            (Rounding::TowardZero, 0x7BFF, 0xFBFF),
            (Rounding::TowardPositive, 0x7C00, 0xFBFF),
            (Rounding::TowardNegative, 0x7BFF, 0xFC00),
        ] {
            let out = round_pack(false, 1, 17, dir(mode));
            assert_eq!(out.bits, pos, "positive overflow under {mode:?}");
            assert!(out.flags.contains(Event8::OVERFLOW | Event8::INEXACT));
            let out = round_pack(true, 1, 17, dir(mode));
            assert_eq!(out.bits, neg, "negative overflow under {mode:?}");
        }
    }

    #[test]
    fn directed_subnormal_normal_boundary() {
        // Largest subnormal (0x03FF) plus a sliver: the directed modes must
        // disagree about crossing into the normal range (0x0400).
        let sliver_up = (2047u128 << 30) + 1; // (1023.5 + ε) quanta at 2^-55
        for (mode, bits) in [
            (Rounding::NearestEven, 0x0400u64),
            (Rounding::NearestAway, 0x0400),
            (Rounding::TowardZero, 0x03FF),
            (Rounding::TowardPositive, 0x0400),
            (Rounding::TowardNegative, 0x03FF),
        ] {
            let out = round_pack(false, sliver_up, -55, dir(mode));
            assert_eq!(out.bits, bits, "boundary crossing under {mode:?}");
        }
        // The same magnitude negated flips the directed answers.
        let out = round_pack(true, sliver_up, -55, dir(Rounding::TowardPositive));
        assert_eq!(out.bits, 0x83FF);
        let out = round_pack(true, sliver_up, -55, dir(Rounding::TowardNegative));
        assert_eq!(out.bits, 0x8400);
    }

    #[test]
    fn ties_away_differs_from_ties_even_below_the_boundary() {
        // 1022.5 subnormal quanta: tie between 0x03FE (even) and 0x03FF.
        let out = round_pack(false, 2045, -25, dir(Rounding::NearestEven));
        assert_eq!(out.bits, 0x03FE);
        let out = round_pack(false, 2045, -25, dir(Rounding::NearestAway));
        assert_eq!(out.bits, 0x03FF);
    }

    #[test]
    fn directed_underflow_never_rounds_a_nonzero_to_the_wrong_side() {
        // A tiny positive value: RTP must produce the smallest subnormal,
        // RTN/RTZ must produce +0 (keeping the sign).
        let out = round_pack(false, 1, -80, dir(Rounding::TowardPositive));
        assert_eq!(out.bits, 0x0001);
        let out = round_pack(false, 1, -80, dir(Rounding::TowardNegative));
        assert_eq!(out.bits, 0x0000);
        let out = round_pack(true, 1, -80, dir(Rounding::TowardNegative));
        assert_eq!(out.bits, 0x8001);
        let out = round_pack(true, 1, -80, dir(Rounding::TowardPositive));
        assert_eq!(out.bits, 0x8000, "negative sliver keeps its sign as -0");
    }
}
