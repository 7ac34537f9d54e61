use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// The five IEEE 754 exception flags.
///
/// Full-IEEE hardware must compute these for every operation; the paper's §V
/// argues this bookkeeping (plus subnormal and NaN handling) is where float
/// hardware cost hides, and that published posit-vs-float comparisons must
/// say whether the float side implements it. A small hand-rolled bitset
/// keeps this crate dependency-free.
///
/// ```
/// use nga_softfloat::Flags;
/// let f = Flags::OVERFLOW | Flags::INEXACT;
/// assert!(f.contains(Flags::OVERFLOW));
/// assert!(!f.contains(Flags::INVALID));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flags(u8);

impl Flags {
    /// No exception.
    pub const NONE: Self = Self(0);
    /// Invalid operation (produced a NaN from non-NaN inputs).
    pub const INVALID: Self = Self(1);
    /// Division of a finite nonzero value by zero.
    pub const DIV_BY_ZERO: Self = Self(2);
    /// Result overflowed to infinity.
    pub const OVERFLOW: Self = Self(4);
    /// Result was tiny and inexact (gradual underflow engaged).
    pub const UNDERFLOW: Self = Self(8);
    /// Result was rounded.
    pub const INEXACT: Self = Self(16);

    /// Whether all flags in `other` are set in `self`.
    #[must_use]
    pub fn contains(&self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no flag is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Raw bits (bit 0 = invalid .. bit 4 = inexact).
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.0
    }
}

impl BitOr for Flags {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }
}

impl BitOrAssign for Flags {
    fn bitor_assign(&mut self, rhs: Self) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        let names = [
            (Self::INVALID, "invalid"),
            (Self::DIV_BY_ZERO, "div0"),
            (Self::OVERFLOW, "overflow"),
            (Self::UNDERFLOW, "underflow"),
            (Self::INEXACT, "inexact"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_contains() {
        let mut f = Flags::NONE;
        assert!(f.is_empty());
        f |= Flags::UNDERFLOW;
        f |= Flags::INEXACT;
        assert!(f.contains(Flags::UNDERFLOW | Flags::INEXACT));
        assert!(!f.contains(Flags::OVERFLOW));
    }

    #[test]
    fn display_lists_flags() {
        assert_eq!(Flags::NONE.to_string(), "-");
        assert_eq!(
            (Flags::OVERFLOW | Flags::INEXACT).to_string(),
            "overflow|inexact"
        );
    }
}
