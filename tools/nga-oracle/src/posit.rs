//! Reference posit arithmetic: fresh regime/exponent/fraction decode and
//! a table-driven correctly rounding encoder.
//!
//! The standard posit rounding rule operates on *encodings*: the decision
//! boundary between adjacent codes `c` and `c + 1` of posit⟨n,es⟩ is the
//! value of code `2c + 1` in posit⟨n+1,es⟩, ties go to the even encoding,
//! values beyond maxpos (below minpos) saturate to maxpos (minpos), and a
//! nonzero real never rounds to 0 or NaR. The encoder precomputes every
//! positive code's exact value plus every boundary value, then binary
//! searches with exact comparisons — structurally independent of
//! `nga-core`'s bit-packing rounder.

use crate::exact::Exact;
use nga_core::PositFormat;

/// The static shape of a posit format (width and exponent-field size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PositSpec {
    /// Total width in bits (3..=32 in this workspace).
    pub n: u32,
    /// Exponent field size.
    pub es: u32,
}

/// A decoded posit datum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositVal {
    /// Not-a-Real (the single exception value).
    Nar,
    /// The single unsigned zero.
    Zero,
    /// A nonzero real.
    Fin(Exact),
}

impl PositSpec {
    /// The spec of a workspace format descriptor.
    #[must_use]
    pub fn of(fmt: PositFormat) -> Self {
        Self {
            n: fmt.n(),
            es: fmt.es(),
        }
    }

    /// The NaR encoding `1 0…0`.
    #[must_use]
    pub fn nar_bits(&self) -> u64 {
        1u64 << (self.n - 1)
    }

    /// Largest positive magnitude code (maxpos).
    #[must_use]
    pub fn max_mag(&self) -> u64 {
        self.nar_bits() - 1
    }

    fn mask(&self) -> u64 {
        if self.n == 64 {
            u64::MAX
        } else {
            (1u64 << self.n) - 1
        }
    }

    /// Decodes an n-bit encoding by walking the regime run, exponent and
    /// fraction fields explicitly.
    #[must_use]
    pub fn decode(&self, bits: u64) -> PositVal {
        let bits = bits & self.mask();
        if bits == 0 {
            return PositVal::Zero;
        }
        if bits == self.nar_bits() {
            return PositVal::Nar;
        }
        let sign = (bits >> (self.n - 1)) & 1 == 1;
        let mag = if sign {
            bits.wrapping_neg() & self.mask()
        } else {
            bits
        };
        // Regime: the run of identical bits starting at position n-2.
        let first = (mag >> (self.n - 2)) & 1;
        let mut run = 0i32;
        let mut i = self.n as i32 - 2;
        while i >= 0 && (mag >> i) & 1 == first {
            run += 1;
            i -= 1;
        }
        let regime = if first == 1 { run - 1 } else { -run };
        i -= 1; // skip the regime terminator (if any bits remain)
                // Exponent: the next es bits, zero-padded if truncated.
        let mut e = 0i32;
        let mut taken = 0;
        while taken < self.es && i >= 0 {
            e = (e << 1) | ((mag >> i) & 1) as i32;
            taken += 1;
            i -= 1;
        }
        e <<= self.es - taken;
        // Fraction: whatever remains, with the hidden bit prepended.
        let fbits = (i + 1).max(0) as u32;
        let frac = mag & ((1u64 << fbits) - 1);
        let scale = regime * (1 << self.es) + e;
        PositVal::Fin(Exact::new(
            sign,
            u128::from((1u64 << fbits) | frac),
            scale - fbits as i32,
        ))
    }
}

/// Exact (significand, exponent) of a positive code, as table entries.
type Entry = (u128, i32);

/// A posit rounding oracle with precomputed value and boundary tables.
#[derive(Debug)]
pub struct PositOracle {
    spec: PositSpec,
    /// `vals[c - 1]` = exact value of positive code `c`, `c ∈ [1, maxpos]`.
    vals: Vec<Entry>,
    /// `mids[c - 1]` = the rounding boundary between codes `c` and `c+1`:
    /// the value of code `2c + 1` in posit⟨n+1, es⟩.
    mids: Vec<Entry>,
}

impl PositOracle {
    /// Builds the tables for `spec` (2^(n-1) - 1 entries each).
    #[must_use]
    pub fn new(spec: PositSpec) -> Self {
        let wide = PositSpec {
            n: spec.n + 1,
            es: spec.es,
        };
        let max_mag = spec.max_mag();
        let mut vals = Vec::with_capacity(max_mag as usize);
        let mut mids = Vec::with_capacity(max_mag as usize);
        for c in 1..=max_mag {
            match spec.decode(c) {
                PositVal::Fin(v) => vals.push((v.sig, v.exp)),
                // Positive codes below NaR are always finite.
                PositVal::Nar | PositVal::Zero => vals.push((1, 0)),
            }
            if c < max_mag {
                match wide.decode(2 * c + 1) {
                    PositVal::Fin(v) => mids.push((v.sig, v.exp)),
                    PositVal::Nar | PositVal::Zero => mids.push((1, 0)),
                }
            }
        }
        Self { spec, vals, mids }
    }

    /// The format shape this oracle rounds into.
    #[must_use]
    pub fn spec(&self) -> &PositSpec {
        &self.spec
    }

    /// Rounds a nonzero real into the nearest encoding per the standard
    /// posit rules (see module docs). The value's sign rides along.
    #[must_use]
    pub fn round(&self, v: &Exact) -> u64 {
        let max_mag = self.spec.max_mag();
        // Number of positive codes whose value lies strictly below |v|.
        let below = self
            .vals
            .partition_point(|&(s, e)| v.cmp_mag(s, e) == std::cmp::Ordering::Greater)
            as u64;
        let mag = if below == max_mag {
            // Beyond maxpos: saturate, never round to NaR.
            max_mag
        } else if below == 0 {
            // At or below minpos: never round a nonzero real to zero.
            1
        } else {
            let above = below + 1; // 1-based code with value ≥ |v|
            let above_val = self.vals.get(above as usize - 1).copied().unwrap_or((1, 0));
            if v.cmp_mag(above_val.0, above_val.1) == std::cmp::Ordering::Equal {
                above
            } else {
                let mid = self.mids.get(below as usize - 1).copied().unwrap_or((1, 0));
                match v.cmp_mag(mid.0, mid.1) {
                    std::cmp::Ordering::Less => below,
                    std::cmp::Ordering::Greater => above,
                    // Tie: the even encoding wins.
                    std::cmp::Ordering::Equal => {
                        if below & 1 == 0 {
                            below
                        } else {
                            above
                        }
                    }
                }
            }
        };
        if v.sign {
            mag.wrapping_neg() & self.spec.mask()
        } else {
            mag
        }
    }

    fn round_val(&self, v: Option<Exact>) -> u64 {
        match v {
            None => 0,
            Some(v) => self.round(&v),
        }
    }

    /// Reference addition on raw encodings.
    #[must_use]
    pub fn add_bits(&self, a: u64, b: u64) -> u64 {
        use PositVal as V;
        match (self.spec.decode(a), self.spec.decode(b)) {
            (V::Nar, _) | (_, V::Nar) => self.spec.nar_bits(),
            (V::Zero, V::Zero) => 0,
            (V::Zero, V::Fin(v)) | (V::Fin(v), V::Zero) => self.round(&v),
            (V::Fin(x), V::Fin(y)) => self.round_val(x.add(&y)),
        }
    }

    /// Reference subtraction `a - b`.
    #[must_use]
    pub fn sub_bits(&self, a: u64, b: u64) -> u64 {
        let neg_b = match self.spec.decode(b) {
            PositVal::Nar => return self.spec.nar_bits(),
            _ => b.wrapping_neg() & self.spec.mask(),
        };
        self.add_bits(a, neg_b)
    }

    /// Reference multiplication on raw encodings.
    #[must_use]
    pub fn mul_bits(&self, a: u64, b: u64) -> u64 {
        use PositVal as V;
        match (self.spec.decode(a), self.spec.decode(b)) {
            (V::Nar, _) | (_, V::Nar) => self.spec.nar_bits(),
            (V::Zero, _) | (_, V::Zero) => 0,
            (V::Fin(x), V::Fin(y)) => self.round(&x.mul(&y)),
        }
    }

    /// Reference division `a / b` (division by zero gives NaR).
    #[must_use]
    pub fn div_bits(&self, a: u64, b: u64) -> u64 {
        use PositVal as V;
        match (self.spec.decode(a), self.spec.decode(b)) {
            (V::Nar, _) | (_, V::Nar) | (_, V::Zero) => self.spec.nar_bits(),
            (V::Zero, _) => 0,
            (V::Fin(x), V::Fin(y)) => self.round(&x.div(&y)),
        }
    }

    /// Reference square root (negative inputs give NaR).
    #[must_use]
    pub fn sqrt_bits(&self, a: u64) -> u64 {
        use PositVal as V;
        match self.spec.decode(a) {
            V::Nar => self.spec.nar_bits(),
            V::Zero => 0,
            V::Fin(v) if v.sign => self.spec.nar_bits(),
            V::Fin(v) => self.round(&v.sqrt()),
        }
    }

    /// Reference fused multiply-add `a·b + c` with a single rounding.
    /// A zero product leaves `c` untouched (posits have one zero).
    #[must_use]
    pub fn fma_bits(&self, a: u64, b: u64, c: u64) -> u64 {
        use PositVal as V;
        let (va, vb, vc) = (
            self.spec.decode(a),
            self.spec.decode(b),
            self.spec.decode(c),
        );
        if matches!(va, V::Nar) || matches!(vb, V::Nar) || matches!(vc, V::Nar) {
            return self.spec.nar_bits();
        }
        let (V::Fin(x), V::Fin(y)) = (va, vb) else {
            // Zero product: the sum is exactly c.
            return c & self.spec.mask();
        };
        let p = x.mul(&y);
        match vc {
            V::Zero => self.round(&p),
            V::Fin(cv) => self.round_val(p.add(&cv)),
            V::Nar => self.spec.nar_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P8: PositSpec = PositSpec { n: 8, es: 0 };
    const P16: PositSpec = PositSpec { n: 16, es: 1 };

    #[track_caller]
    fn assert_decodes_to(spec: &PositSpec, code: u64, sign: bool, sig: u128, exp: i32) {
        match spec.decode(code) {
            PositVal::Fin(v) => {
                assert_eq!(v.sign, sign, "sign of {code:#x}");
                assert!(!v.sticky, "decode of {code:#x} must be exact");
                assert_eq!(
                    v.cmp_mag(sig, exp),
                    std::cmp::Ordering::Equal,
                    "magnitude of {code:#x}: got {}·2^{}",
                    v.sig,
                    v.exp
                );
            }
            other => panic!("{code:#x} decoded to {other:?}"),
        }
    }

    #[test]
    fn decode_known_posit8_codes() {
        assert_eq!(P8.decode(0x00), PositVal::Zero);
        assert_eq!(P8.decode(0x80), PositVal::Nar);
        // 0x40 = 1.0
        assert_decodes_to(&P8, 0x40, false, 1, 0);
        // maxpos = 2^6, minpos = 2^-6 for posit<8,0>.
        assert_decodes_to(&P8, 0x7F, false, 1, 6);
        assert_decodes_to(&P8, 0x01, false, 1, -6);
        // -1.0 is the two's complement of 0x40.
        assert_decodes_to(&P8, 0xC0, true, 1, 0);
        // 0x50 = 1.5 for posit<8,0>: fraction 10000 after regime 10.
        assert_decodes_to(&P8, 0x50, false, 3, -1);
    }

    #[test]
    fn decode_matches_impl_for_all_posit16_codes() {
        // The fresh decoder and nga-core's unpack must agree on the real
        // value of every finite code.
        let fmt = PositFormat::POSIT16;
        for code in 0..=0xFFFFu64 {
            let ours = P16.decode(code);
            let theirs = nga_core::Posit::from_bits(code, fmt).unpack();
            match (ours, theirs) {
                (PositVal::Zero | PositVal::Nar, None) => {}
                (PositVal::Fin(v), Some(u)) => {
                    assert_eq!(v.sign, u.sign, "sign of {code:#06x}");
                    // Compare sig·2^exp as normalized pairs.
                    let (mut s1, mut e1) = (v.sig, v.exp);
                    let (mut s2, mut e2) = (u128::from(u.sig), u.exp);
                    while s1 & 1 == 0 {
                        s1 >>= 1;
                        e1 += 1;
                    }
                    while s2 & 1 == 0 {
                        s2 >>= 1;
                        e2 += 1;
                    }
                    assert_eq!((s1, e1), (s2, e2), "value of {code:#06x}");
                }
                (o, t) => panic!("code {code:#06x}: oracle {o:?} vs impl {t:?}"),
            }
        }
    }

    #[test]
    fn round_trips_every_posit16_code() {
        let oracle = PositOracle::new(P16);
        for code in 1..=0xFFFFu64 {
            if let PositVal::Fin(v) = P16.decode(code) {
                assert_eq!(oracle.round(&v), code, "code {code:#06x} round-trips");
            }
        }
    }

    #[test]
    fn saturation_and_never_to_zero() {
        let oracle = PositOracle::new(P8);
        // 2^100 saturates to maxpos, 2^-100 to minpos.
        assert_eq!(oracle.round(&Exact::new(false, 1, 100)), 0x7F);
        assert_eq!(oracle.round(&Exact::new(false, 1, -100)), 0x01);
        assert_eq!(oracle.round(&Exact::new(true, 1, 100)), 0x81);
        assert_eq!(oracle.round(&Exact::new(true, 1, -100)), 0xFF);
        // Just above maxpos stays maxpos (never NaR).
        assert_eq!(oracle.round(&Exact::new(false, 65, 0)), 0x7F);
    }

    #[test]
    fn tapered_tie_goes_to_even_encoding() {
        let oracle = PositOracle::new(P8);
        // Codes 0x7E (=32) and 0x7F (=64) straddle 48: the boundary is
        // the posit<9,0> value of code 0xFD = 48, and 0x7E is even.
        assert_eq!(oracle.round(&Exact::new(false, 48, 0)), 0x7E);
        assert_eq!(oracle.round(&Exact::new(false, 49, 0)), 0x7F);
        assert_eq!(oracle.round(&Exact::new(false, 47, 0)), 0x7E);
        // The boundary between 1.0 (0x40) and 33/32 (0x41) is 65/64: the
        // tie goes to the even encoding 0x40; just above it rounds up.
        assert_eq!(oracle.round(&Exact::new(false, 65, -6)), 0x40);
        assert_eq!(oracle.round(&Exact::new(false, 131, -7)), 0x41);
    }

    #[test]
    fn ops_match_posit_specials() {
        let oracle = PositOracle::new(P16);
        let nar = P16.nar_bits();
        let one = 0x4000u64;
        assert_eq!(oracle.add_bits(nar, one), nar);
        assert_eq!(oracle.div_bits(one, 0), nar);
        assert_eq!(oracle.div_bits(0, one), 0);
        assert_eq!(oracle.sqrt_bits(0xC000), nar, "sqrt(-1) = NaR");
        assert_eq!(oracle.sub_bits(one, one), 0);
        assert_eq!(oracle.fma_bits(0, one, one), one);
        assert_eq!(oracle.mul_bits(one, one), one);
    }
}
