//! [`KernelTier`]: the execution tiers benchmarks and binaries A/B —
//! scalar vs table vs table+parallel — selected per
//! [`ArithCtx`](crate::ArithCtx).

/// An execution tier as a first-class value: the explicit way to pick a
/// kernel, replacing ambient `NGA_KERNEL` reads scattered across callers.
///
/// Construct one directly, [`parse`](Self::parse) it from a CLI argument,
/// or take the documented environment fallback via
/// [`from_env`](Self::from_env) — then hand it to
/// [`ArithCtx::with_tier`](crate::ArithCtx::with_tier).
///
/// ```
/// use nga_kernels::KernelTier;
/// assert_eq!(KernelTier::parse("table"), Some(KernelTier::Table));
/// assert_eq!(KernelTier::Table.name(), "table");
/// assert_eq!(KernelTier::default(), KernelTier::Parallel);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Decode/compute/encode through the reference scalar ops.
    Scalar,
    /// One 64 KiB lookup per multiply/add, serial.
    Table,
    /// Lookup tables plus scoped-thread row bands.
    Parallel,
}

impl KernelTier {
    /// All tiers, in escalation order.
    pub const ALL: [Self; 3] = [Self::Scalar, Self::Table, Self::Parallel];

    /// Stable tier name (used in benchmark output, JSON and span names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Table => "table",
            Self::Parallel => "parallel",
        }
    }

    /// Parses a tier name (`"scalar"` / `"table"` / `"parallel"`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(Self::Scalar),
            "table" => Some(Self::Table),
            "parallel" => Some(Self::Parallel),
            _ => None,
        }
    }

    /// The documented environment fallback: reads `NGA_KERNEL`
    /// (`scalar` / `table` / `parallel`; anything else, including unset,
    /// means [`Parallel`](Self::Parallel)). This is the only place in the
    /// workspace that reads `NGA_KERNEL` — the `ctx-single-source` lint
    /// rule keeps it that way.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("NGA_KERNEL").as_deref() {
            Ok("scalar") => Self::Scalar,
            Ok("table") => Self::Table,
            _ => Self::Parallel,
        }
    }
}

impl Default for KernelTier {
    /// [`Parallel`](Self::Parallel) — the same default the environment
    /// fallback uses when `NGA_KERNEL` is unset.
    fn default() -> Self {
        Self::Parallel
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
