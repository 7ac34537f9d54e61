//! Reference fixed-point arithmetic: fresh rounding-division and the
//! saturating Q4.4 op set the 8-bit kernels expose.

use nga_fixed::{FixedFormat, RoundingMode};

/// Q4.4 raw range.
const Q44_MIN: i128 = -128;
const Q44_MAX: i128 = 127;

/// Rounds `num / 2^shift` to an integer under `mode`, computed from the
/// floor quotient and remainder (a formulation independent of
/// `Fixed::convert`'s euclidean-division datapath).
#[must_use]
pub fn round_shift(num: i128, shift: u32, mode: RoundingMode) -> i128 {
    if shift == 0 {
        return num;
    }
    let q = num >> shift; // arithmetic shift = floor division
    let rem = num - (q << shift); // in [0, 2^shift)
    if rem == 0 {
        return q;
    }
    let half = 1i128 << (shift - 1);
    let up = match mode {
        RoundingMode::Floor => false,
        RoundingMode::Truncate => num < 0,
        RoundingMode::NearestEven => rem > half || (rem == half && q & 1 == 1),
        RoundingMode::NearestTiesAway => rem > half || (rem == half && num >= 0),
    };
    q + i128::from(up)
}

/// Saturates into the Q4.4 raw range.
#[must_use]
pub fn sat_q44(v: i128) -> i128 {
    v.clamp(Q44_MIN, Q44_MAX)
}

/// Reference saturating Q4.4 add on raw codes.
#[must_use]
pub fn add_q44(a: u8, b: u8) -> u8 {
    sat_q44(i128::from(a as i8) + i128::from(b as i8)) as u8
}

/// Reference saturating Q4.4 subtract on raw codes.
#[must_use]
pub fn sub_q44(a: u8, b: u8) -> u8 {
    sat_q44(i128::from(a as i8) - i128::from(b as i8)) as u8
}

/// Reference saturating Q4.4 multiply on raw codes: the exact Q8.8
/// product rounded back to Q4.4 (nearest-even) and saturated — the
/// semantics `Format8::Fixed8` advertises.
#[must_use]
pub fn mul_q44(a: u8, b: u8) -> u8 {
    let wide = i128::from(a as i8) * i128::from(b as i8); // Q8.8 raw
    sat_q44(round_shift(wide, 4, RoundingMode::NearestEven)) as u8
}

/// Reference saturating Q4.4 negate (the most-negative raw saturates to
/// the most-positive, not to itself).
#[must_use]
pub fn neg_q44(a: u8) -> u8 {
    sat_q44(-i128::from(a as i8)) as u8
}

/// Reference `Fixed::convert`: re-scales `raw · 2^-from_frac` to
/// `to_frac` fractional bits under `mode`, saturating into `to`'s raw
/// range. Returns `None` when the exact widening shift would leave the
/// 96-bit raw domain (callers avoid that region).
#[must_use]
pub fn convert_sat(
    raw: i128,
    from: FixedFormat,
    to: FixedFormat,
    mode: RoundingMode,
) -> Option<i128> {
    let ff = from.frac_bits();
    let tf = to.frac_bits();
    let scaled = if tf >= ff {
        raw.checked_shl(tf - ff)?
    } else {
        round_shift(raw, ff - tf, mode)
    };
    Some(scaled.clamp(to.min_raw(), to.max_raw()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_shift_all_modes() {
        // 2.5 in Q·.1 → integers.
        assert_eq!(round_shift(5, 1, RoundingMode::Floor), 2);
        assert_eq!(round_shift(5, 1, RoundingMode::Truncate), 2);
        assert_eq!(round_shift(5, 1, RoundingMode::NearestEven), 2);
        assert_eq!(round_shift(5, 1, RoundingMode::NearestTiesAway), 3);
        // -2.5
        assert_eq!(round_shift(-5, 1, RoundingMode::Floor), -3);
        assert_eq!(round_shift(-5, 1, RoundingMode::Truncate), -2);
        assert_eq!(round_shift(-5, 1, RoundingMode::NearestEven), -2);
        assert_eq!(round_shift(-5, 1, RoundingMode::NearestTiesAway), -3);
        // -2.25 → nearest -2, floor -3, truncate -2.
        assert_eq!(round_shift(-9, 2, RoundingMode::Floor), -3);
        assert_eq!(round_shift(-9, 2, RoundingMode::Truncate), -2);
        assert_eq!(round_shift(-9, 2, RoundingMode::NearestEven), -2);
    }

    #[test]
    fn q44_saturation_corners() {
        // maxpos * maxpos saturates; most-negative * most-negative too.
        assert_eq!(mul_q44(0x7F, 0x7F), 0x7F);
        assert_eq!(mul_q44(0x80, 0x80), 0x7F, "(-8)² = 64 saturates high");
        assert_eq!(mul_q44(0x80, 0x7F), 0x80, "(-8)(7.94) saturates low");
        assert_eq!(add_q44(0x7F, 0x01), 0x7F);
        assert_eq!(add_q44(0x80, 0xFF), 0x80);
        assert_eq!(neg_q44(0x80), 0x7F, "-(-8) saturates to +7.9375");
        assert_eq!(sub_q44(0x00, 0x80), 0x7F);
    }

    #[test]
    fn q44_identities() {
        assert_eq!(mul_q44(0x10, 0x10), 0x10, "1·1 = 1");
        assert_eq!(mul_q44(0xF0, 0x10), 0xF0, "-1·1 = -1");
        assert_eq!(add_q44(0x10, 0xF0), 0x00);
    }
}
