use std::cmp::Ordering;
use std::fmt;

use nga_obs::Event8;

use crate::format::PositFormat;

/// Posit value classification. There are exactly two exception encodings
/// (§V: "with only two exception values, there is no need to trap to
/// software").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PositClass {
    /// The all-zeros encoding.
    Zero,
    /// Not-a-Real: `1 0…0`, the single exception covering every non-real
    /// output (float NaN, ±infinity and invalid operations all map here).
    Nar,
    /// Any other encoding — a nonzero real value.
    Real,
}

/// A decoded posit: `(-1)^sign` is *not* applied — posits are two's
/// complement, so `sign` together with the magnitude fields gives
/// `value = ±(sig * 2^exp)` where `sig` carries the hidden bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unpacked {
    /// True for negative values.
    pub sign: bool,
    /// Significand with the hidden bit folded in (`sig >= 1`).
    pub sig: u64,
    /// Binary exponent of the significand's LSB: `|value| = sig * 2^exp`.
    pub exp: i32,
}

/// A posit value: raw encoding bits paired with a [`PositFormat`].
///
/// The encoding is kept in two's-complement form at all times. Ordering
/// ([`Ord`]) is plain integer comparison of the sign-extended bits — the
/// property §V highlights as eliminating the float comparison unit — with
/// NaR comparing equal to itself and less than every real value.
///
/// ```
/// use nga_core::{Posit, PositFormat};
/// let p8 = PositFormat::POSIT8;
/// let a = Posit::from_f64(-2.0, p8);
/// let b = Posit::from_f64(0.5, p8);
/// assert!(a < b); // integer compare of encodings
/// assert!(Posit::nar(p8) < a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posit {
    bits: u64,
    format: PositFormat,
}

impl Posit {
    /// Reinterprets raw encoding bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has bits set above the format's width.
    #[inline]
    #[must_use]
    pub fn from_bits(bits: u64, format: PositFormat) -> Self {
        assert!(
            bits & !format.bits_mask() == 0,
            "bits 0x{bits:x} exceed posit width {}",
            format.n()
        );
        Self { bits, format }
    }

    /// Zero (the all-zeros encoding).
    #[must_use]
    pub fn zero(format: PositFormat) -> Self {
        Self { bits: 0, format }
    }

    /// One (`0 10…0`).
    #[must_use]
    pub fn one(format: PositFormat) -> Self {
        Self {
            bits: 1u64 << (format.n() - 2),
            format,
        }
    }

    /// Not-a-Real.
    #[inline]
    #[must_use]
    pub fn nar(format: PositFormat) -> Self {
        Self {
            bits: format.nar_bits(),
            format,
        }
    }

    /// Largest representable value (`0 11…1`).
    #[must_use]
    pub fn maxpos(format: PositFormat) -> Self {
        Self {
            bits: format.nar_bits() - 1,
            format,
        }
    }

    /// Smallest positive value (`0 0…01`).
    #[must_use]
    pub fn minpos(format: PositFormat) -> Self {
        Self { bits: 1, format }
    }

    /// The raw encoding bits (two's complement, right-aligned).
    #[inline]
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The format of this value.
    #[must_use]
    pub fn format(&self) -> PositFormat {
        self.format
    }

    /// Classifies the encoding.
    #[must_use]
    pub fn class(&self) -> PositClass {
        if self.bits == 0 {
            PositClass::Zero
        } else if self.bits == self.format.nar_bits() {
            PositClass::Nar
        } else {
            PositClass::Real
        }
    }

    /// Whether this is NaR.
    #[inline]
    #[must_use]
    pub fn is_nar(&self) -> bool {
        self.class() == PositClass::Nar
    }

    /// Whether this is zero.
    #[inline]
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.bits == 0
    }

    /// The sign bit. NaR reports `true` (its encoding has the sign bit
    /// set), zero reports `false`.
    #[must_use]
    pub fn sign(&self) -> bool {
        self.bits >> (self.format.n() - 1) == 1
    }

    /// Negation: exact two's-complement negate, no special cases (§V —
    /// "negation with 2's complement also works without exception").
    /// `-NaR = NaR` and `-0 = 0` fall out of the arithmetic.
    #[must_use]
    pub fn neg(&self) -> Self {
        Self {
            bits: self.bits.wrapping_neg() & self.format.bits_mask(),
            format: self.format,
        }
    }

    /// Absolute value via two's complement.
    #[must_use]
    pub fn abs(&self) -> Self {
        if self.sign() && !self.is_nar() {
            self.neg()
        } else {
            *self
        }
    }

    /// The sign-extended encoding as a signed integer — the comparison key.
    /// Posit ordering *is* integer ordering of this key (§V, Fig. 7).
    #[must_use]
    pub fn as_ordered_int(&self) -> i64 {
        let shift = 64 - self.format.n();
        ((self.bits << shift) as i64) >> shift
    }

    /// Decodes a real (non-zero, non-NaR) posit into sign/significand/
    /// exponent. Returns `None` for zero and NaR.
    #[inline]
    #[must_use]
    pub fn unpack(&self) -> Option<Unpacked> {
        if self.class() != PositClass::Real {
            return None;
        }
        let fmt = self.format;
        let n = fmt.n();
        let es = fmt.es();
        let sign = self.sign();
        // Two's-complement magnitude: decode the positive twin.
        let mag = if sign {
            self.bits.wrapping_neg() & fmt.bits_mask()
        } else {
            self.bits
        };
        // Left-align the n-1 bits after the sign in a u64.
        let body = mag << (64 - (n - 1));
        let first = body >> 63;
        let run = if first == 1 {
            (body.leading_ones()).min(n - 1)
        } else {
            (body.leading_zeros()).min(n - 1)
        };
        let k: i32 = if first == 1 {
            run as i32 - 1
        } else {
            -(run as i32)
        };
        debug_assert!(
            (1..=n - 1).contains(&run),
            "regime run {run} must stay inside the {n}-bit body"
        );
        debug_assert!(
            k.unsigned_abs() < n,
            "regime value {k} out of range for n = {n}"
        );
        // Regime bits consumed: run plus terminator (when present).
        let used = (run + 1).min(n - 1);
        let avail = n - 1 - used;
        let rest = if used >= 64 { 0 } else { body << used };
        // Exponent bits: the available high bits; missing low bits are 0.
        let e_present = es.min(avail);
        let e = if e_present == 0 {
            0
        } else {
            ((rest >> (64 - e_present)) as u32) << (es - e_present)
        };
        debug_assert!(e >> es == 0, "exponent field {e} exceeds {es} bits");
        let frac_len = avail - e_present;
        let frac = if frac_len == 0 {
            0
        } else {
            (rest << e_present) >> (64 - frac_len)
        };
        let scale = k * fmt.useed_log2() + e as i32;
        let sig = (1u64 << frac_len) | frac;
        Some(Unpacked {
            sign,
            sig,
            exp: scale - frac_len as i32,
        })
    }

    /// Encodes `(-1)^sign * sig * 2^exp` (with `sig != 0`) into the nearest
    /// posit, using the standard posit rounding: round to nearest with ties
    /// to the even encoding, never rounding a nonzero value to zero or NaR
    /// (saturate at `minpos`/`maxpos` instead).
    #[inline]
    #[must_use]
    pub fn from_parts(sign: bool, sig: u128, exp: i32, format: PositFormat) -> Self {
        Self::from_parts_with_events(sign, sig, exp, format).0
    }

    /// [`Self::from_parts`] plus the [`Event8`] the rounder raised:
    /// `INEXACT` when nonzero bits were discarded, and
    /// `SATURATED` when the result railed at `maxpos`/`minpos` (either from
    /// an out-of-range scale or from the round-up clamp). This is the single
    /// rounding site, so every arithmetic op inherits its event semantics.
    #[inline]
    #[must_use]
    pub fn from_parts_with_events(
        sign: bool,
        sig: u128,
        exp: i32,
        format: PositFormat,
    ) -> (Self, Event8) {
        if sig == 0 {
            return (Self::zero(format), Event8::NONE);
        }
        let fmt = format;
        let n = fmt.n();
        let es = fmt.es();
        // Collapse very wide significands (quire conversions) to 64 bits
        // with a sticky LSB; posit widths are <= 32 so 64 bits of
        // significand leave the sticky far below any rounding point.
        let width = 128 - sig.leading_zeros();
        let (sig, exp) = if width > 64 {
            let k = width - 64;
            let dropped = sig & ((1u128 << k) - 1);
            ((sig >> k) | u128::from(dropped != 0), exp + k as i32)
        } else {
            (sig, exp)
        };
        let frac_len = (127 - sig.leading_zeros()) as i32; // sig has frac_len+1 bits
        let scale = exp + frac_len;
        let sat = Event8::SATURATED | Event8::INEXACT;
        // Saturate out-of-range scales.
        if scale > fmt.max_scale() {
            let m = Self::maxpos(fmt);
            return (if sign { m.neg() } else { m }, sat);
        }
        if scale < -fmt.max_scale() {
            let m = Self::minpos(fmt);
            return (if sign { m.neg() } else { m }, sat);
        }
        // Regime / exponent split (Euclidean so 0 <= e < 2^es).
        let useed = fmt.useed_log2();
        let k = scale.div_euclid(useed);
        let e = (scale.rem_euclid(useed)) as u128;
        // Assemble the exact body: regime, exponent, fraction.
        let (regime, r_len) = if k >= 0 {
            // (k+1) ones then a zero terminator.
            ((((1u128 << (k + 1)) - 1) << 1), (k + 2) as u32)
        } else {
            // (-k) zeros then a one terminator.
            (1u128, (-k + 1) as u32)
        };
        let frac = sig - (1u128 << frac_len);
        let body_len = r_len + es + frac_len as u32;
        debug_assert!(body_len <= 127, "body fits u128");
        let body = (regime << (es + frac_len as u32)) | (e << frac_len) | frac;
        // Round the body to n-1 bits, ties to even encoding.
        let mut events = Event8::NONE;
        let target = n - 1;
        let rounded: u128 = if body_len <= target {
            body << (target - body_len)
        } else {
            let drop = body_len - target;
            let mask = (1u128 << drop) - 1;
            let rem = body & mask;
            let q = body >> drop;
            let half = 1u128 << (drop - 1);
            if rem != 0 {
                events |= Event8::INEXACT;
            }
            if rem > half || (rem == half && q & 1 == 1) {
                q + 1
            } else {
                q
            }
        };
        // Saturate: never round to zero or into the NaR half.
        let max_mag = (1u128 << target) - 1;
        if rounded < 1 || rounded > max_mag {
            events |= sat;
        }
        let mag = rounded.clamp(1, max_mag) as u64;
        let bits = if sign {
            mag.wrapping_neg() & fmt.bits_mask()
        } else {
            mag
        };
        // Rounding must stay inside the real half-planes: the clamp above
        // keeps |mag| in [1, 2^(n-1) - 1], so neither special encoding is
        // reachable.
        debug_assert!(bits != fmt.nar_bits(), "encode produced the NaR pattern");
        debug_assert!(bits != 0, "nonzero value rounded to the zero pattern");
        (Self { bits, format: fmt }, events)
    }

    // lint: allow-start(no-host-float): declared host<->posit conversion
    // boundary — never on a compute path; tables and kernels go through
    // from_parts/unpack only.
    /// Converts an `f64` to the nearest posit. NaN and infinities map to
    /// NaR; both zeros map to zero.
    #[must_use]
    pub fn from_f64(x: f64, format: PositFormat) -> Self {
        if x.is_nan() || x.is_infinite() {
            return Self::nar(format);
        }
        if x == 0.0 {
            return Self::zero(format);
        }
        let host = x.to_bits();
        let sign = host >> 63 == 1;
        let e_field = ((host >> 52) & 0x7FF) as i32;
        let frac = host & ((1u64 << 52) - 1);
        let (sig, exp) = if e_field == 0 {
            (frac, 1 - 1023 - 52)
        } else {
            (frac | (1u64 << 52), e_field - 1023 - 52)
        };
        Self::from_parts(sign, sig as u128, exp, format)
    }

    /// The exact value as `f64`. NaR maps to NaN. Exact for every supported
    /// format (`n <= 32` keeps significands and scales inside `f64`).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        match self.class() {
            PositClass::Zero => 0.0,
            PositClass::Nar => f64::NAN,
            PositClass::Real => {
                let Some(u) = self.unpack() else {
                    return f64::NAN;
                };
                let v = u.sig as f64 * (u.exp as f64).exp2();
                if u.sign {
                    -v
                } else {
                    v
                }
            }
        }
    }
    // lint: allow-end(no-host-float)

    /// Converts to another posit format with a single correct rounding.
    #[must_use]
    pub fn convert(&self, format: PositFormat) -> Self {
        match self.class() {
            PositClass::Zero => Self::zero(format),
            PositClass::Nar => Self::nar(format),
            PositClass::Real => {
                let Some(u) = self.unpack() else {
                    return Self::nar(format);
                };
                Self::from_parts(u.sign, u.sig as u128, u.exp, format)
            }
        }
    }

    /// The exact fixed-point expansion: returns `(raw, frac_bits)` such
    /// that the value equals `raw * 2^-frac_bits` *exactly*.
    ///
    /// §V: "a 16-bit posit … can thus be converted to a signed fixed-point
    /// representation with 58 bits" — for posit16 the result always fits in
    /// 58 bits (`1 + 29 + 28`): [`PositFormat::max_scale`] integer bits, the
    /// same number of fraction bits, and a sign. Returns `None` for NaR.
    #[must_use]
    pub fn to_fixed_parts(&self) -> Option<(i128, u32)> {
        match self.class() {
            PositClass::Nar => None,
            PositClass::Zero => Some((0, self.format.max_scale() as u32)),
            PositClass::Real => {
                let u = self.unpack()?;
                let frac_bits = self.format.max_scale() as u32;
                // value = sig * 2^exp = raw * 2^-frac_bits
                // => raw = sig << (exp + frac_bits); the shift is always
                // non-negative because exp >= -max_scale - frac_len and the
                // significand supplies frac_len bits.
                let shift = u.exp + frac_bits as i32;
                debug_assert!(shift >= 0, "posit value has no bits below minpos");
                let raw = (u.sig as i128) << shift;
                Some(if u.sign {
                    (-raw, frac_bits)
                } else {
                    (raw, frac_bits)
                })
            }
        }
    }

    /// Converts a signed integer to the nearest posit.
    ///
    /// ```
    /// use nga_core::{Posit, PositFormat};
    /// let p = Posit::from_i64(-12, PositFormat::POSIT16);
    /// assert_eq!(p.to_f64(), -12.0);
    /// ```
    #[must_use]
    pub fn from_i64(v: i64, format: PositFormat) -> Self {
        if v == 0 {
            return Self::zero(format);
        }
        Self::from_parts(v < 0, u128::from(v.unsigned_abs()), 0, format)
    }

    /// Rounds to the nearest integer (ties to even), returning `None` for
    /// NaR. Values beyond `i64` saturate (only possible for posit formats
    /// with `max_scale > 62`, which this crate does not construct).
    #[must_use]
    pub fn to_i64(&self) -> Option<i64> {
        match self.class() {
            PositClass::Nar => None,
            PositClass::Zero => Some(0),
            PositClass::Real => {
                let u = self.unpack()?;
                let mag: i64 = if u.exp >= 0 {
                    let sig_bits = 64 - u.sig.leading_zeros();
                    if u.exp as u32 + sig_bits > 63 {
                        i64::MAX
                    } else {
                        (u.sig << u.exp) as i64
                    }
                } else {
                    let shift = (-u.exp) as u32;
                    if shift >= 64 {
                        0
                    } else {
                        let q = u.sig >> shift;
                        let rem = u.sig & ((1u64 << shift) - 1);
                        let half = 1u64 << (shift - 1);
                        (if rem > half || (rem == half && q & 1 == 1) {
                            q + 1
                        } else {
                            q
                        }) as i64
                    }
                };
                Some(if u.sign { -mag } else { mag })
            }
        }
    }

    /// Number of bits needed by the fixed-point expansion of this format:
    /// `2 * max_scale + 2` (sign + integer part + fraction part).
    ///
    /// ```
    /// use nga_core::{Posit, PositFormat};
    /// assert_eq!(Posit::fixed_expansion_bits(PositFormat::POSIT16), 58);
    /// ```
    #[must_use]
    pub fn fixed_expansion_bits(format: PositFormat) -> u32 {
        2 * format.max_scale() as u32 + 2
    }
}

impl PartialOrd for Posit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Posit {
    /// Integer comparison of the sign-extended encodings. NaR (the most
    /// negative encoding) is equal to itself and less than everything.
    ///
    /// # Panics
    ///
    /// Panics if the formats differ.
    fn cmp(&self, other: &Self) -> Ordering {
        assert_eq!(self.format, other.format, "mixed-format posit compare");
        self.as_ordered_int().cmp(&other.as_ordered_int())
    }
}

/// Error from parsing a posit from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePositError {
    reason: &'static str,
}

impl fmt::Display for ParsePositError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid posit literal: {}", self.reason)
    }
}

impl std::error::Error for ParsePositError {}

impl Posit {
    /// Parses a decimal literal (or `NaR`, case-insensitive) into the
    /// nearest posit of the given format.
    ///
    /// There is no `FromStr` impl because the format is a runtime value;
    /// this inherent method plays that role.
    ///
    /// ```
    /// use nga_core::{Posit, PositFormat};
    /// # fn main() -> Result<(), nga_core::ParsePositError> {
    /// let x = Posit::parse("-2.5", PositFormat::POSIT16)?;
    /// assert_eq!(x.to_f64(), -2.5);
    /// assert!(Posit::parse("nar", PositFormat::POSIT16)?.is_nar());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ParsePositError`] if the text is neither `NaR` nor a
    /// finite decimal number.
    pub fn parse(text: &str, format: PositFormat) -> Result<Self, ParsePositError> {
        let t = text.trim();
        if t.eq_ignore_ascii_case("nar") {
            return Ok(Self::nar(format));
        }
        // lint: allow-start(no-host-float): text round-trips through the
        // host decimal parser; the value is re-rounded by from_f64.
        let v: f64 = t.parse().map_err(|_| ParsePositError {
            reason: "expected a decimal number or NaR",
        })?;
        if !v.is_finite() {
            return Err(ParsePositError {
                reason: "infinite and NaN literals are not posit values (use NaR)",
            });
        }
        Ok(Self::from_f64(v, format))
        // lint: allow-end(no-host-float)
    }
}

impl fmt::Display for Posit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_nar() {
            write!(f, "NaR")
        } else {
            write!(f, "{}", self.to_f64())
        }
    }
}

impl fmt::LowerHex for Posit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.bits, f)
    }
}

impl fmt::Binary for Posit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.bits, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P8: PositFormat = PositFormat::POSIT8;
    const P16: PositFormat = PositFormat::POSIT16;
    const P32: PositFormat = PositFormat::POSIT32;

    #[test]
    fn known_encodings_posit8() {
        // posit8 {8,0}: 0x40 = 1.0, 0x60 = 2.0, 0x20 = 0.5, 0x7F = maxpos=64.
        assert_eq!(Posit::from_bits(0x40, P8).to_f64(), 1.0);
        assert_eq!(Posit::from_bits(0x60, P8).to_f64(), 2.0);
        assert_eq!(Posit::from_bits(0x20, P8).to_f64(), 0.5);
        assert_eq!(Posit::from_bits(0x7F, P8).to_f64(), 64.0);
        assert_eq!(Posit::from_bits(0x01, P8).to_f64(), 1.0 / 64.0);
        // Negation: -1.0 is the two's complement of 1.0.
        assert_eq!(Posit::from_bits(0xC0, P8).to_f64(), -1.0);
    }

    #[test]
    fn known_encodings_posit16() {
        assert_eq!(Posit::one(P16).bits(), 0x4000);
        assert_eq!(Posit::one(P16).to_f64(), 1.0);
        // 0x5000: sign 0, regime 10 (k=0), e=1 -> 2^1 = 2.0
        assert_eq!(Posit::from_bits(0x5000, P16).to_f64(), 2.0);
        assert_eq!(Posit::maxpos(P16).to_f64(), (2.0f64).powi(28));
        assert_eq!(Posit::minpos(P16).to_f64(), (2.0f64).powi(-28));
    }

    #[test]
    fn round_trip_all_posit8() {
        for bits in 0..=0xFFu64 {
            let p = Posit::from_bits(bits, P8);
            if p.is_nar() {
                continue;
            }
            let q = Posit::from_f64(p.to_f64(), P8);
            assert_eq!(p.bits(), q.bits(), "bits 0x{bits:02x}");
        }
    }

    #[test]
    fn round_trip_all_posit16() {
        for bits in 0..=0xFFFFu64 {
            let p = Posit::from_bits(bits, P16);
            if p.is_nar() {
                continue;
            }
            let q = Posit::from_f64(p.to_f64(), P16);
            assert_eq!(p.bits(), q.bits(), "bits 0x{bits:04x}");
        }
    }

    #[test]
    fn round_trip_sampled_posit32() {
        let mut bits = 0u64;
        for _ in 0..200_000 {
            bits = bits.wrapping_add(0x9E37_79B9).wrapping_mul(0x85EB_CA6B) & 0xFFFF_FFFF;
            let p = Posit::from_bits(bits, P32);
            if p.is_nar() {
                continue;
            }
            let q = Posit::from_f64(p.to_f64(), P32);
            assert_eq!(p.bits(), q.bits(), "bits 0x{bits:08x}");
        }
    }

    #[test]
    fn encodings_are_monotone_in_value() {
        // §V / Fig. 7: posits climb monotonically around the ring.
        let mut prev = f64::NEG_INFINITY;
        // Walk the ring from NaR+1 (most negative real) to maxpos.
        for i in 1..0x10000u64 {
            let bits = (0x8000 + i) & 0xFFFF;
            let p = Posit::from_bits(bits, P16);
            let v = p.to_f64();
            assert!(v > prev, "monotonicity broken at 0x{bits:04x}");
            prev = v;
        }
    }

    #[test]
    fn ordering_is_integer_ordering() {
        let vals = [-100.0, -1.0, -0.001, 0.0, 0.25, 1.0, 3.5, 1e6];
        for &x in &vals {
            for &y in &vals {
                let px = Posit::from_f64(x, P16);
                let py = Posit::from_f64(y, P16);
                assert_eq!(
                    px.cmp(&py),
                    x.partial_cmp(&y).expect("finite"),
                    "{x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn nar_is_least_and_equal_to_itself() {
        let nar = Posit::nar(P16);
        assert_eq!(nar.cmp(&nar), Ordering::Equal);
        for bits in [0u64, 1, 0x4000, 0x7FFF, 0xFFFF] {
            let p = Posit::from_bits(bits, P16);
            assert_eq!(nar.cmp(&p), Ordering::Less, "NaR < 0x{bits:04x}");
        }
    }

    #[test]
    fn neg_is_twos_complement() {
        for bits in 0..=0xFFu64 {
            let p = Posit::from_bits(bits, P8);
            let n = p.neg();
            if p.is_nar() {
                assert!(n.is_nar(), "-NaR = NaR");
            } else {
                assert_eq!(n.to_f64(), -p.to_f64(), "bits 0x{bits:02x}");
            }
        }
    }

    #[test]
    fn saturation_never_rounds_to_zero_or_nar() {
        // Way beyond maxpos saturates to maxpos.
        let p = Posit::from_f64(1e30, P16);
        assert_eq!(p.bits(), Posit::maxpos(P16).bits());
        // Way below minpos saturates to minpos.
        let p = Posit::from_f64(1e-30, P16);
        assert_eq!(p.bits(), Posit::minpos(P16).bits());
        let p = Posit::from_f64(-1e-30, P16);
        assert_eq!(p.bits(), Posit::minpos(P16).neg().bits());
    }

    #[test]
    fn rounding_ties_to_even_encoding() {
        // Between 1.0 (0x40) and 1+2^-5 = 1.03125 (0x41) in posit8 {8,0}:
        // fraction has 5 bits at this scale; midpoint is 1 + 2^-6.
        let mid = 1.0 + (2.0f64).powi(-6);
        let p = Posit::from_f64(mid, P8);
        assert_eq!(p.bits(), 0x40, "tie rounds to even encoding");
        let above = 1.0 + (2.0f64).powi(-6) + (2.0f64).powi(-9);
        assert_eq!(Posit::from_f64(above, P8).bits(), 0x41);
    }

    #[test]
    fn reciprocal_of_powers_of_two_is_exact() {
        // §V: "reciprocation is symmetric for posits".
        for k in -6..=6 {
            let x = Posit::from_f64((k as f64).exp2(), P8);
            let rx = Posit::from_f64((-k as f64).exp2(), P8);
            // Bitwise: 1/x is the 2's-complement reversal around the ring.
            assert_eq!(x.to_f64() * rx.to_f64(), 1.0, "2^{k}");
        }
    }

    #[test]
    fn posit16_fixed_expansion_is_58_bits() {
        assert_eq!(Posit::fixed_expansion_bits(P16), 58);
        for bits in (0..=0xFFFFu64).step_by(17) {
            let p = Posit::from_bits(bits, P16);
            let Some((raw, fb)) = p.to_fixed_parts() else {
                continue;
            };
            assert_eq!(fb, 28);
            assert_eq!(raw as f64 * (-(fb as f64)).exp2(), p.to_f64());
            // Fits in 58 bits signed.
            assert!((-(1i128 << 57)..(1i128 << 57)).contains(&raw));
        }
    }

    #[test]
    fn convert_between_posit_widths() {
        let x = Posit::from_f64(std::f64::consts::PI, P32);
        let y = x.convert(P16);
        let direct = Posit::from_f64(x.to_f64(), P16);
        assert_eq!(y.bits(), direct.bits());
        let z = y.convert(P8);
        assert!((z.to_f64() - std::f64::consts::PI).abs() < 0.1);
    }

    #[test]
    fn unity_regime_has_expected_fraction_resolution() {
        // At scale 0, posit16 has 12 fraction bits: gap to next value is 2^-12.
        let one = Posit::one(P16);
        let next = Posit::from_bits(one.bits() + 1, P16);
        assert_eq!(next.to_f64() - one.to_f64(), (2.0f64).powi(-12));
    }

    #[test]
    fn parse_round_trips_display() {
        for bits in (0..=0xFFFFu64).step_by(523) {
            let p = Posit::from_bits(bits, P16);
            let q = Posit::parse(&p.to_string(), P16).expect("display is parseable");
            assert_eq!(p.bits(), q.bits(), "0x{bits:04x}");
        }
        assert!(Posit::parse("NaR", P16).expect("nar").is_nar());
        assert!(Posit::parse("bogus", P16).is_err());
        assert!(Posit::parse("inf", P16).is_err());
    }

    #[test]
    fn integer_conversions_round_trip() {
        for v in [-4096i64, -100, -1, 0, 1, 7, 100, 255, 4096] {
            let p = Posit::from_i64(v, P16);
            // Every small integer is exactly representable in posit16's
            // central band; larger ones round.
            if v.unsigned_abs() <= 1 << 13 {
                assert_eq!(p.to_i64(), Some(v), "{v}");
            }
        }
        assert_eq!(Posit::nar(P16).to_i64(), None);
        // Rounding: 2.5 ties to even -> 2; 3.5 -> 4.
        assert_eq!(Posit::from_f64(2.5, P16).to_i64(), Some(2));
        assert_eq!(Posit::from_f64(3.5, P16).to_i64(), Some(4));
        assert_eq!(Posit::from_f64(-2.5, P16).to_i64(), Some(-2));
    }

    #[test]
    fn to_i64_saturates_at_huge_posit32_values() {
        let big = Posit::maxpos(P32); // 2^120
        assert_eq!(big.to_i64(), Some(i64::MAX));
        assert_eq!(big.neg().to_i64(), Some(-i64::MAX));
    }

    #[test]
    fn tapered_precision_fewer_bits_far_from_one() {
        // Near 2^20 the regime eats bits: gaps are far wider than near 1.
        let big = Posit::from_f64((2.0f64).powi(20), P16);
        let next = Posit::from_bits(big.bits() + 1, P16);
        let gap_big = next.to_f64() - big.to_f64();
        let one = Posit::one(P16);
        let gap_one = Posit::from_bits(one.bits() + 1, P16).to_f64() - 1.0;
        assert!(gap_big / big.to_f64() > gap_one / 1.0 * 100.0);
    }
}
