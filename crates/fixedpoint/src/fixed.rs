use std::cmp::Ordering;
use std::fmt;

use nga_obs::Event8;

use crate::error::FixedError;
use crate::format::{FixedFormat, OverflowMode, RoundingMode};
use crate::round_scaled;

/// A fixed-point value: a raw two's-complement integer paired with its
/// [`FixedFormat`].
///
/// The represented real value is `raw × 2^-frac_bits`. All arithmetic is
/// performed exactly on the raw integers (using `i128` intermediates) and
/// rounded/saturated only at explicitly chosen points, mirroring how a
/// hardware datapath behaves.
///
/// ```
/// use nga_fixed::{Fixed, FixedFormat, RoundingMode};
/// # fn main() -> Result<(), nga_fixed::FixedError> {
/// let fmt = FixedFormat::signed(8, 8)?;
/// let x = Fixed::from_f64(3.125, fmt, RoundingMode::NearestEven)?;
/// let y = x.mul_exact(&x)?; // exact product in Q16.16
/// assert_eq!(y.to_f64(), 3.125 * 3.125);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fixed {
    raw: i128,
    format: FixedFormat,
}

impl Fixed {
    /// Zero in the given format.
    #[must_use]
    pub fn zero(format: FixedFormat) -> Self {
        Self { raw: 0, format }
    }

    /// Constructs a value from a raw integer (in ulps).
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::Overflow`] if `raw` is out of range for
    /// `format`.
    pub fn from_raw(raw: i128, format: FixedFormat) -> Result<Self, FixedError> {
        if format.contains_raw(raw) {
            Ok(Self { raw, format })
        } else {
            Err(FixedError::Overflow { format, raw })
        }
    }

    /// Constructs a value from a raw integer, applying `overflow` handling.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::Overflow`] only under [`OverflowMode::Error`].
    pub fn from_raw_with(
        raw: i128,
        format: FixedFormat,
        overflow: OverflowMode,
    ) -> Result<Self, FixedError> {
        Self::from_raw_with_events(raw, format, overflow).map(|(v, _)| v)
    }

    /// [`Self::from_raw_with`] plus the [`Event8`] raised: `SATURATED`
    /// when an out-of-range raw railed at min/max, `WRAPPED` when it wrapped
    /// modulo 2^bits.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::Overflow`] only under [`OverflowMode::Error`].
    pub fn from_raw_with_events(
        raw: i128,
        format: FixedFormat,
        overflow: OverflowMode,
    ) -> Result<(Self, Event8), FixedError> {
        if format.contains_raw(raw) {
            return Ok((Self { raw, format }, Event8::NONE));
        }
        match overflow {
            OverflowMode::Error => Err(FixedError::Overflow { format, raw }),
            OverflowMode::Saturate => {
                let clamped = if raw > format.max_raw() {
                    format.max_raw()
                } else {
                    format.min_raw()
                };
                debug_assert!(
                    format.contains_raw(clamped),
                    "saturation must land on a representable rail"
                );
                debug_assert!(
                    (raw > format.max_raw()) == (clamped == format.max_raw()),
                    "saturation picked the wrong rail for raw = {raw}"
                );
                Ok((
                    Self {
                        raw: clamped,
                        format,
                    },
                    Event8::SATURATED,
                ))
            }
            OverflowMode::Wrap => {
                let bits = format.total_bits();
                let mask = if bits == 128 {
                    -1i128
                } else {
                    (1i128 << bits) - 1
                };
                let mut wrapped = raw & mask;
                if format.is_signed() && (wrapped >> (bits - 1)) & 1 == 1 {
                    wrapped -= 1i128 << bits;
                }
                Ok((
                    Self {
                        raw: wrapped,
                        format,
                    },
                    Event8::WRAPPED,
                ))
            }
        }
    }

    // lint: allow-start(no-host-float): declared host<->fixed conversion
    // boundary; raw-integer arithmetic never calls through it.
    /// Converts an `f64` to fixed point with the given rounding, saturating
    /// on overflow.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::NonFinite`] for NaN or infinite inputs.
    pub fn from_f64(x: f64, format: FixedFormat, mode: RoundingMode) -> Result<Self, FixedError> {
        if !x.is_finite() {
            return Err(FixedError::NonFinite);
        }
        let scaled = x * (format.frac_bits() as f64).exp2();
        let raw = round_scaled(scaled, mode);
        Self::from_raw_with(raw, format, OverflowMode::Saturate)
    }
    // lint: allow-end(no-host-float)

    /// The raw two's-complement integer (in ulps).
    #[must_use]
    pub fn raw(&self) -> i128 {
        self.raw
    }

    /// The format of this value.
    #[must_use]
    pub fn format(&self) -> FixedFormat {
        self.format
    }

    /// The represented real value.
    // lint: allow-start(no-host-float): fixed->host conversion boundary.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        self.raw as f64 * self.format.ulp()
    }
    // lint: allow-end(no-host-float)

    /// Exact sum: result carries one extra integer bit so it cannot
    /// overflow.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::InvalidFormat`] if the widened format would
    /// exceed [`FixedFormat::MAX_BITS`].
    pub fn add_exact(&self, rhs: &Self) -> Result<Self, FixedError> {
        let format = self.format.sum_format(&rhs.format)?;
        let (a, b) = (
            self.raw_in_frac(format.frac_bits()),
            rhs.raw_in_frac(format.frac_bits()),
        );
        Ok(Self { raw: a + b, format })
    }

    /// Exact difference, widened like [`Self::add_exact`].
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::InvalidFormat`] if the widened format would
    /// exceed [`FixedFormat::MAX_BITS`].
    pub fn sub_exact(&self, rhs: &Self) -> Result<Self, FixedError> {
        let format = self.format.sum_format(&rhs.format)?;
        let (a, b) = (
            self.raw_in_frac(format.frac_bits()),
            rhs.raw_in_frac(format.frac_bits()),
        );
        Ok(Self { raw: a - b, format })
    }

    /// Exact product in the full-width product format.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::InvalidFormat`] if the product format would
    /// exceed [`FixedFormat::MAX_BITS`].
    pub fn mul_exact(&self, rhs: &Self) -> Result<Self, FixedError> {
        let format = self.format.product_format(&rhs.format)?;
        Ok(Self {
            raw: self.raw * rhs.raw,
            format,
        })
    }

    /// Same-format addition with saturation (the common DSP accumulator).
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::FormatMismatch`] if the operand formats differ.
    pub fn checked_add(&self, rhs: Self) -> Result<Self, FixedError> {
        self.checked_add_with_events(rhs).map(|(v, _)| v)
    }

    /// [`Self::checked_add`] plus the [`Event8`] raised (`SATURATED`
    /// on an accumulator rail).
    ///
    /// ```
    /// use nga_fixed::{Fixed, FixedFormat};
    /// use nga_obs::Event8;
    /// # fn main() -> Result<(), nga_fixed::FixedError> {
    /// let fmt = FixedFormat::signed(4, 4)?;
    /// let max = Fixed::from_raw(fmt.max_raw(), fmt)?;
    /// let (sum, ev) = max.checked_add_with_events(max)?;
    /// assert_eq!(sum.raw(), fmt.max_raw());
    /// assert_eq!(ev, Event8::SATURATED);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::FormatMismatch`] if the operand formats differ.
    pub fn checked_add_with_events(&self, rhs: Self) -> Result<(Self, Event8), FixedError> {
        if self.format != rhs.format {
            return Err(FixedError::FormatMismatch {
                lhs: self.format,
                rhs: rhs.format,
            });
        }
        Self::from_raw_with_events(self.raw + rhs.raw, self.format, OverflowMode::Saturate)
    }

    /// Same-format subtraction with saturation.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::FormatMismatch`] if the operand formats differ.
    pub fn checked_sub(&self, rhs: Self) -> Result<Self, FixedError> {
        self.checked_sub_with_events(rhs).map(|(v, _)| v)
    }

    /// [`Self::checked_sub`] plus the [`Event8`] raised.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::FormatMismatch`] if the operand formats differ.
    pub fn checked_sub_with_events(&self, rhs: Self) -> Result<(Self, Event8), FixedError> {
        if self.format != rhs.format {
            return Err(FixedError::FormatMismatch {
                lhs: self.format,
                rhs: rhs.format,
            });
        }
        Self::from_raw_with_events(self.raw - rhs.raw, self.format, OverflowMode::Saturate)
    }

    /// Negation (saturating: the most negative value negates to max).
    #[must_use]
    pub fn saturating_neg(&self) -> Self {
        // Saturate mode never reports overflow; keep the operand if it
        // ever did rather than panic.
        Self::from_raw_with(-self.raw, self.format, OverflowMode::Saturate).unwrap_or(*self)
    }

    /// Re-quantizes into `format`, rounding dropped fraction bits with
    /// `mode` and handling range with `overflow`.
    ///
    /// This is the software model of the `T̄` truncation boxes of the paper's
    /// Fig. 1: every arrow between two differently-formatted signals in a
    /// generated datapath is one `convert` call.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::Overflow`] under [`OverflowMode::Error`], and
    /// never otherwise.
    pub fn convert(
        &self,
        format: FixedFormat,
        mode: RoundingMode,
        overflow: OverflowMode,
    ) -> Result<Self, FixedError> {
        self.convert_with_events(format, mode, overflow)
            .map(|(v, _)| v)
    }

    /// [`Self::convert`] plus the [`Event8`] raised: `INEXACT` when the
    /// narrowing discarded nonzero fraction bits, plus `SATURATED`/`WRAPPED`
    /// from the range handling.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::Overflow`] under [`OverflowMode::Error`], and
    /// never otherwise.
    pub fn convert_with_events(
        &self,
        format: FixedFormat,
        mode: RoundingMode,
        overflow: OverflowMode,
    ) -> Result<(Self, Event8), FixedError> {
        let src_f = self.format.frac_bits();
        let dst_f = format.frac_bits();
        let mut events = Event8::NONE;
        let raw = if dst_f >= src_f {
            self.raw << (dst_f - src_f)
        } else {
            let shift = src_f - dst_f;
            let div = 1i128 << shift;
            let q = self.raw.div_euclid(div);
            let r = self.raw.rem_euclid(div);
            if r != 0 {
                events |= Event8::INEXACT;
            }
            match mode {
                RoundingMode::Floor => q,
                RoundingMode::Truncate => {
                    if self.raw < 0 && r != 0 {
                        q + 1
                    } else {
                        q
                    }
                }
                RoundingMode::NearestTiesAway => {
                    let half = div / 2;
                    if r > half || (r == half && self.raw >= 0) {
                        q + 1
                    } else if r == half {
                        // negative tie: away from zero is toward -inf
                        q
                    } else {
                        q
                    }
                }
                RoundingMode::NearestEven => {
                    let half = div / 2;
                    if r > half || (r == half && q % 2 != 0) {
                        q + 1
                    } else {
                        q
                    }
                }
            }
        };
        let (v, range_ev) = Self::from_raw_with_events(raw, format, overflow)?;
        Ok((v, events | range_ev))
    }

    /// Raw value re-expressed with `frac` fraction bits (exact; `frac` must
    /// be at least the current fraction width).
    fn raw_in_frac(&self, frac: u32) -> i128 {
        debug_assert!(frac >= self.format.frac_bits());
        self.raw << (frac - self.format.frac_bits())
    }
}

impl PartialOrd for Fixed {
    /// Values compare by represented real value, across formats.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        // Compare exactly by aligning binary points in i128.
        let frac = self.format.frac_bits().max(other.format.frac_bits());
        Some(self.raw_in_frac(frac).cmp(&other.raw_in_frac(frac)))
    }
}

impl fmt::Binary for Fixed {
    /// Formats the raw two's-complement bits within the format's width.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits = self.raw as u128 & ((1u128 << self.format.total_bits()) - 1);
        fmt::Binary::fmt(&bits, f)
    }
}

impl fmt::LowerHex for Fixed {
    /// Formats the raw two's-complement bits within the format's width.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits = self.raw as u128 & ((1u128 << self.format.total_bits()) - 1);
        fmt::LowerHex::fmt(&bits, f)
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.to_f64(), self.format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32, fr: u32) -> FixedFormat {
        FixedFormat::signed(i, fr).unwrap()
    }

    #[test]
    fn from_f64_round_trip() {
        let fmt = q(8, 8);
        for v in [
            -127.5,
            -1.0,
            -0.00390625,
            0.0,
            0.5,
            3.14453125,
            127.99609375,
        ] {
            let x = Fixed::from_f64(v, fmt, RoundingMode::NearestEven).unwrap();
            assert_eq!(x.to_f64(), v, "exactly representable value {v}");
        }
    }

    #[test]
    fn from_f64_saturates() {
        let fmt = q(4, 4);
        let hi = Fixed::from_f64(1000.0, fmt, RoundingMode::NearestEven).unwrap();
        assert_eq!(hi.raw(), fmt.max_raw());
        let lo = Fixed::from_f64(-1000.0, fmt, RoundingMode::NearestEven).unwrap();
        assert_eq!(lo.raw(), fmt.min_raw());
    }

    #[test]
    fn from_f64_rejects_nan() {
        assert_eq!(
            Fixed::from_f64(f64::NAN, q(4, 4), RoundingMode::NearestEven),
            Err(FixedError::NonFinite)
        );
    }

    #[test]
    fn exact_ops_never_overflow() {
        let fmt = q(4, 4);
        let max = Fixed::from_raw(fmt.max_raw(), fmt).unwrap();
        let sum = max.add_exact(&max).unwrap();
        assert_eq!(sum.to_f64(), 2.0 * max.to_f64());
        let prod = max.mul_exact(&max).unwrap();
        assert_eq!(prod.to_f64(), max.to_f64() * max.to_f64());
        let min = Fixed::from_raw(fmt.min_raw(), fmt).unwrap();
        let prod2 = min.mul_exact(&min).unwrap();
        assert_eq!(prod2.to_f64(), 64.0);
    }

    #[test]
    fn checked_add_saturates() {
        let fmt = q(4, 4);
        let max = Fixed::from_raw(fmt.max_raw(), fmt).unwrap();
        let one = Fixed::from_f64(1.0, fmt, RoundingMode::NearestEven).unwrap();
        assert_eq!(max.checked_add(one).unwrap().raw(), fmt.max_raw());
        let min = Fixed::from_raw(fmt.min_raw(), fmt).unwrap();
        assert_eq!(min.checked_sub(one).unwrap().raw(), fmt.min_raw());
    }

    #[test]
    fn format_mismatch_detected() {
        let a = Fixed::zero(q(4, 4));
        let b = Fixed::zero(q(8, 8));
        assert!(matches!(
            a.checked_add(b),
            Err(FixedError::FormatMismatch { .. })
        ));
    }

    #[test]
    fn wrap_mode_is_twos_complement() {
        let fmt = q(4, 0);
        // 9 wraps to -7 in 4-bit two's complement.
        let w = Fixed::from_raw_with(9, fmt, OverflowMode::Wrap).unwrap();
        assert_eq!(w.raw(), -7);
        let w2 = Fixed::from_raw_with(-9, fmt, OverflowMode::Wrap).unwrap();
        assert_eq!(w2.raw(), 7);
    }

    #[test]
    fn convert_widening_is_exact() {
        let x = Fixed::from_f64(1.25, q(4, 4), RoundingMode::NearestEven).unwrap();
        let y = x
            .convert(q(8, 12), RoundingMode::NearestEven, OverflowMode::Error)
            .unwrap();
        assert_eq!(y.to_f64(), 1.25);
    }

    #[test]
    fn convert_narrowing_rounds_nearest_even() {
        let src = q(8, 8);
        let dst = q(8, 4);
        // 0.03125 (raw 8 in Q8.8) is exactly half an ulp of Q8.4 -> ties to even (0).
        let x = Fixed::from_f64(0.03125, src, RoundingMode::NearestEven).unwrap();
        let y = x
            .convert(dst, RoundingMode::NearestEven, OverflowMode::Error)
            .unwrap();
        assert_eq!(y.to_f64(), 0.0);
        // 0.09375 = 1.5 ulp of Q8.4 -> ties to even (2 ulp = 0.125).
        let x = Fixed::from_f64(0.09375, src, RoundingMode::NearestEven).unwrap();
        let y = x
            .convert(dst, RoundingMode::NearestEven, OverflowMode::Error)
            .unwrap();
        assert_eq!(y.to_f64(), 0.125);
    }

    #[test]
    fn convert_truncate_is_toward_zero() {
        let src = q(8, 8);
        let dst = q(8, 0);
        let x = Fixed::from_f64(-2.75, src, RoundingMode::NearestEven).unwrap();
        let t = x
            .convert(dst, RoundingMode::Truncate, OverflowMode::Error)
            .unwrap();
        assert_eq!(t.to_f64(), -2.0);
        let fl = x
            .convert(dst, RoundingMode::Floor, OverflowMode::Error)
            .unwrap();
        assert_eq!(fl.to_f64(), -3.0);
    }

    #[test]
    fn cross_format_ordering() {
        let a = Fixed::from_f64(1.5, q(4, 4), RoundingMode::NearestEven).unwrap();
        let b = Fixed::from_f64(1.25, q(8, 8), RoundingMode::NearestEven).unwrap();
        assert!(a > b);
        assert!(b < a);
    }

    #[test]
    fn binary_and_hex_formatting() {
        let fmt = q(4, 4);
        let x = Fixed::from_f64(-1.0, fmt, RoundingMode::NearestEven).unwrap();
        // -1.0 in Q4.4 is raw -16 = 0xF0 in 8 bits.
        assert_eq!(format!("{x:x}"), "f0");
        assert_eq!(format!("{x:b}"), "11110000");
    }

    #[test]
    fn saturating_neg_handles_min() {
        let fmt = q(4, 0);
        let min = Fixed::from_raw(fmt.min_raw(), fmt).unwrap();
        assert_eq!(min.saturating_neg().raw(), fmt.max_raw());
        let one = Fixed::from_f64(1.0, fmt, RoundingMode::NearestEven).unwrap();
        assert_eq!(one.saturating_neg().to_f64(), -1.0);
    }
}
