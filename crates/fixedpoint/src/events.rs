//! Fixed-point operation event reporting.
//!
//! Fixed-point datapaths have exactly two silent hazards: range overflow
//! (handled by saturation or two's-complement wrap, per
//! [`OverflowMode`](crate::OverflowMode)) and quantization (dropped
//! fraction bits). Hardware DSPs expose both as status bits; this module
//! is the fixed-point counterpart of `nga_softfloat::Flags`, so robustness
//! sweeps can account for them per operation. `nga-kernels` translates
//! them into `nga-obs`'s shared `Event8` alphabet, where they are counted.

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// Events raised by a single fixed-point operation.
///
/// ```
/// use nga_fixed::{Fixed, FixedEvents, FixedFormat, OverflowMode};
/// # fn main() -> Result<(), nga_fixed::FixedError> {
/// let fmt = FixedFormat::signed(4, 4)?;
/// let max = Fixed::from_raw(fmt.max_raw(), fmt)?;
/// let (sum, ev) = max.checked_add_with_events(max)?;
/// assert_eq!(sum.raw(), fmt.max_raw());
/// assert!(ev.contains(FixedEvents::SATURATED));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FixedEvents(u8);

impl FixedEvents {
    /// No event: the result is exact and in range.
    pub const NONE: Self = Self(0);
    /// The result railed at the format's min/max (saturating overflow).
    pub const SATURATED: Self = Self(1);
    /// The result wrapped modulo 2^bits (two's-complement overflow).
    pub const WRAPPED: Self = Self(2);
    /// Nonzero fraction bits were discarded by re-quantization.
    pub const ROUNDED: Self = Self(4);

    /// Whether all events in `other` are set in `self`.
    #[must_use]
    pub fn contains(&self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no event is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Raw bits (bit 0 = saturated, bit 1 = wrapped, bit 2 = rounded).
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.0
    }
}

impl BitOr for FixedEvents {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }
}

impl BitOrAssign for FixedEvents {
    fn bitor_assign(&mut self, rhs: Self) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for FixedEvents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        let names = [
            (Self::SATURATED, "saturated"),
            (Self::WRAPPED, "wrapped"),
            (Self::ROUNDED, "rounded"),
        ];
        let mut first = true;
        for (ev, name) in names {
            if self.contains(ev) {
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
    fn bitset_and_display() {
        let ev = FixedEvents::SATURATED | FixedEvents::ROUNDED;
        assert!(ev.contains(FixedEvents::SATURATED));
        assert!(!ev.contains(FixedEvents::WRAPPED));
        assert_eq!(ev.to_string(), "saturated|rounded");
        assert_eq!(FixedEvents::NONE.to_string(), "-");
    }
}
