//! # nga-fixed — parametric fixed-point arithmetic
//!
//! Software model of the fixed-point number systems used throughout
//! *Next Generation Arithmetic for Edge Computing* (DATE 2020): the
//! "triangular ramp" format of Fig. 9/10, the 58-bit signed accumulator a
//! 16-bit posit expands into (§V), and the fixed-point datapaths generated by
//! the FloPoCo-style operator generators of §II.
//!
//! The central idea of §II-B ("computing just right") is that every signal in
//! an application-specific datapath carries its own format: a signedness, a
//! most-significant-bit weight and a least-significant-bit weight. This crate
//! therefore represents formats as *runtime values* ([`FixedFormat`]) rather
//! than const generics, so that generators can explore format spaces
//! programmatically.
//!
//! ```
//! use nga_fixed::{Fixed, FixedFormat, RoundingMode};
//!
//! # fn main() -> Result<(), nga_fixed::FixedError> {
//! // Q4.4: signed, 4 integer bits, 4 fraction bits.
//! let fmt = FixedFormat::signed(4, 4)?;
//! let a = Fixed::from_f64(2.5, fmt, RoundingMode::NearestEven)?;
//! let b = Fixed::from_f64(-0.75, fmt, RoundingMode::NearestEven)?;
//! let sum = a.checked_add(b)?;
//! assert_eq!(sum.to_f64(), 1.75);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod events;
mod fixed;
mod format;

pub use error::FixedError;
pub use events::FixedEvents;
pub use fixed::Fixed;
pub use format::{FixedFormat, OverflowMode, RoundingMode};

/// Round a real value (scaled so that 1 ulp == 1.0) to an integer using the
/// given rounding mode.
///
/// This is the scalar rounding primitive shared by [`Fixed`] conversions and
/// by the operator generators in `nga-funcgen`; exposing it keeps every
/// datapath in the workspace on exactly one rounding implementation.
///
/// ```
/// use nga_fixed::{round_scaled, RoundingMode};
/// assert_eq!(round_scaled(2.5, RoundingMode::NearestEven), 2);
/// assert_eq!(round_scaled(3.5, RoundingMode::NearestEven), 4);
/// assert_eq!(round_scaled(-2.5, RoundingMode::NearestEven), -2);
/// assert_eq!(round_scaled(2.9, RoundingMode::Truncate), 2);
/// assert_eq!(round_scaled(-2.9, RoundingMode::Truncate), -2);
/// ```
// lint: allow-start(no-host-float): the host->fixed conversion boundary —
// the one place a real value crosses into raw-integer ulps. Fixed/Fixed
// arithmetic never re-enters it.
#[must_use]
pub fn round_scaled(x: f64, mode: RoundingMode) -> i128 {
    match mode {
        RoundingMode::Truncate => x.trunc() as i128,
        RoundingMode::Floor => x.floor() as i128,
        RoundingMode::NearestTiesAway => {
            // f64::round ties away from zero.
            x.round() as i128
        }
        RoundingMode::NearestEven => {
            let floor = x.floor();
            let frac = x - floor;
            let f = floor as i128;
            if frac > 0.5 || (frac == 0.5 && f % 2 != 0) {
                f + 1
            } else {
                f
            }
        }
    }
}
// lint: allow-end(no-host-float)

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_scaled_ties_to_even_both_signs() {
        assert_eq!(round_scaled(0.5, RoundingMode::NearestEven), 0);
        assert_eq!(round_scaled(1.5, RoundingMode::NearestEven), 2);
        assert_eq!(round_scaled(-0.5, RoundingMode::NearestEven), 0);
        assert_eq!(round_scaled(-1.5, RoundingMode::NearestEven), -2);
        assert_eq!(round_scaled(-2.5, RoundingMode::NearestEven), -2);
    }

    #[test]
    fn round_scaled_ties_away() {
        assert_eq!(round_scaled(0.5, RoundingMode::NearestTiesAway), 1);
        assert_eq!(round_scaled(-0.5, RoundingMode::NearestTiesAway), -1);
    }

    #[test]
    fn round_scaled_floor_vs_trunc_negative() {
        assert_eq!(round_scaled(-1.25, RoundingMode::Floor), -2);
        assert_eq!(round_scaled(-1.25, RoundingMode::Truncate), -1);
    }
}
