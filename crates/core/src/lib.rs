//! # nga-core — posit (type III unum) arithmetic
//!
//! A from-scratch implementation of posit arithmetic as described in §V of
//! *Next Generation Arithmetic for Edge Computing* (DATE 2020) and in
//! Gustafson & Yonemoto, *Beating Floating Point at its Own Game* (2017):
//! the two's-complement-native number format proposed as a drop-in
//! replacement for IEEE 754 on edge devices.
//!
//! The crate implements:
//!
//! - runtime-parametric formats ([`PositFormat`]) with the classic
//!   `posit8 {8,0}`, `posit16 {16,1}` and `posit32 {32,2}` presets,
//! - exact decode/encode with the regime/exponent/fraction fields handled
//!   in two's complement (never sign-magnitude re-encoding — the "mistake"
//!   §V calls out in published comparisons),
//! - correctly rounded add/sub/mul/div/sqrt with posit rounding (round to
//!   nearest, ties to even encoding; saturate at `maxpos`/`minpos`; the
//!   only exception value is NaR),
//! - the [`Quire`] exact dot-product accumulator,
//! - integer-identical comparison ([`Posit::cmp`] *is* two's-complement
//!   integer comparison — no separate comparison unit needed, §V),
//! - the exact posit→fixed-point expansion (a 16-bit posit becomes a
//!   58-bit signed fixed-point number, §V),
//! - encoding-space analysis backing the paper's Fig. 7 ring plot.
//!
//! ```
//! use nga_core::{Posit, PositFormat};
//!
//! let p16 = PositFormat::POSIT16;
//! let a = Posit::from_f64(1.5, p16);
//! let b = Posit::from_f64(-0.25, p16);
//! assert_eq!(a.mul(b).to_f64(), -0.375);
//!
//! // Reciprocation is symmetric around ±1 (§V):
//! let x = Posit::from_f64(4.0, p16);
//! assert_eq!(Posit::one(p16).div(x).to_f64(), 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod arith;
mod events;
mod format;
mod posit;
mod quire;

pub use analysis::{decimal_accuracy, decode_difficulty, DecodeDifficulty, PositRingCensus};
pub use events::PositEvents;
pub use format::PositFormat;
pub use posit::{ParsePositError, Posit, PositClass, Unpacked};
pub use quire::Quire;
