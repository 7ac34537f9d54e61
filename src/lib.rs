//! # nextgen-arith — next-generation arithmetic for edge computing
//!
//! A from-scratch Rust reproduction of *Next Generation Arithmetic for
//! Edge Computing* (DATE 2020): posit arithmetic with a quire, parametric
//! software IEEE 754 floats, parametric fixed point, the FloPoCo-style
//! bit-heap and operator-generator frameworks, an approximate-multiplier
//! library with a DNN retraining substrate, and hardware cost models for
//! the posit-vs-float comparison.
//!
//! This facade re-exports every workspace crate under one roof; each
//! sub-crate is also usable on its own:
//!
//! - [`posit`] (`nga-core`) — `Posit`, `PositFormat`, `Quire`
//! - [`softfloat`] (`nga-softfloat`) — `SoftFloat`, `FloatFormat`
//! - [`fixed`] (`nga-fixed`) — `Fixed`, `FixedFormat`
//! - [`bitheap`] (`nga-bitheap`) — `BitHeap`, compressor trees, packing
//! - [`funcgen`] (`nga-funcgen`) — operator generators, sin/cos, tables
//! - [`approx`] (`nga-approx`) — the approximate 8×8 multiplier ladder
//! - [`kernels`] (`nga-kernels`) — 8-bit LUT kernels, [`prelude::ArithCtx`]
//! - [`obs`] (`nga-obs`) — deterministic op-count/event tracing
//! - [`nn`] (`nga-nn`) — the DNN quantization/retraining substrate
//! - [`hwmodel`] (`nga-hwmodel`) — ring plots, accuracy profiles, costs
//!
//! New code should start from [`prelude`], which gathers the one-stop
//! arithmetic surface: an [`prelude::ArithCtx`] for instrumented 8-bit
//! ops, the scalar number types, and the observability entry points.
//!
//! ```
//! use nextgen_arith::posit::{Posit, PositFormat};
//! use nextgen_arith::softfloat::{FloatFormat, SoftFloat};
//!
//! // The same value in three 16-bit systems:
//! let x = 3.14159265;
//! let p = Posit::from_f64(x, PositFormat::POSIT16);
//! let f = SoftFloat::from_f64(x, FloatFormat::BINARY16);
//! let b = SoftFloat::from_f64(x, FloatFormat::BFLOAT16);
//! // Near 1.0, posits carry more fraction bits than either float:
//! assert!((p.to_f64() - x).abs() < (f.to_f64() - x).abs());
//! assert!((p.to_f64() - x).abs() < (b.to_f64() - x).abs());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nga_approx as approx;
pub use nga_bitheap as bitheap;
pub use nga_core as posit;
pub use nga_fixed as fixed;
pub use nga_funcgen as funcgen;
pub use nga_hwmodel as hwmodel;
pub use nga_kernels as kernels;
pub use nga_nn as nn;
pub use nga_obs as obs;
pub use nga_softfloat as softfloat;

/// The one-stop arithmetic surface: everything a typical caller needs to
/// compute in the paper's number systems with status tracking and
/// deterministic tracing, in one `use`.
///
/// The centerpiece is [`ArithCtx`](prelude::ArithCtx): construct one,
/// optionally pin a [`KernelTier`](prelude::KernelTier), and every
/// operation through it folds its [`Event8`](prelude::Event8) flags into
/// sticky [`StatusCounters`](prelude::StatusCounters) and attributes op
/// counts to the context's trace scope.
///
/// ```
/// use nextgen_arith::prelude::*;
///
/// // Instrumented 8-bit arithmetic through an explicit context.
/// let mut ctx = ArithCtx::labeled("example").with_tier(KernelTier::Table);
/// let one = 0x40; // posit8 1.0
/// assert_eq!(ctx.mul(Format8::Posit8, one, one), one);
/// let a = vec![one; 4];
/// let mut out = vec![0u8; 4];
/// ctx.matmul8(Format8::Posit8, &a, &a, &mut out, 2, 2, 2);
/// assert!(!ctx.events().contains(Event8::NAR_NAN));
/// assert_eq!(ctx.counters().ops(), 1 + 2 * 8);
///
/// // The scalar number systems behind the 8-bit formats.
/// let p = Posit::from_f64(1.5, PositFormat::POSIT8);
/// let f = SoftFloat::from_f64(1.5, FloatFormat::FP8_E4M3);
/// let q = Fixed::from_f64(1.5, FixedFormat::Q4_4, RoundingMode::NearestEven).unwrap();
/// assert_eq!(p.to_f64(), 1.5);
/// assert_eq!(f.to_f64(), 1.5);
/// assert_eq!(q.to_f64(), 1.5);
///
/// // The trace registry saw the context's work.
/// let report = obs::snapshot();
/// let row = report.get("example").expect("scope recorded");
/// assert_eq!(row.status.ops(), 1 + 2 * 8);
/// ```
pub mod prelude {
    pub use nga_fixed::{Fixed, FixedFormat, RoundingMode};
    pub use nga_kernels::{ArithCtx, Event8, Format8, KernelTier, StatusCounters};
    pub use nga_obs as obs;
    pub use nga_softfloat::{FloatFormat, SoftFloat};

    pub use nga_core::{Posit, PositFormat};
}
