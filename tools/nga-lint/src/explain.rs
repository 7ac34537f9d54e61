//! `--explain <rule>`: the contract behind each rule id.

use crate::rules;

/// Long-form documentation for a rule id, or `None` if unknown.
#[must_use]
pub fn explain(rule: &str) -> Option<&'static str> {
    match rule {
        rules::NO_HOST_FLOAT => Some(
            "no-host-float (R1)\n\
             ==================\n\
             The paper's central claim is that every format is implemented from bit\n\
             manipulation: results must never depend on the host FPU. This rule flags\n\
             `f32`/`f64` identifiers (types, `as` casts, paths like `f64::NAN`) and float\n\
             literals in the configured bit-exact cores. One stray host-float multiply\n\
             would silently corrupt every LUT built from the scalar ops.\n\n\
             Exemptions: `#[cfg(test)]`/`#[test]` items are skipped; conversion shims\n\
             (e.g. softfloat's `value.rs` bit-cast boundary) are allowlisted per-path in\n\
             lint.toml; individual conversion functions use region annotations:\n\
             `// lint: allow-start(no-host-float): <why this is a conversion boundary>`\n\
             … `// lint: allow-end(no-host-float)`.",
        ),
        rules::NO_PANIC => Some(
            "no-panic (R2)\n\
             =============\n\
             Library paths of the arithmetic crates must be panic-free: arithmetic on\n\
             edge devices has no business aborting. Flags `.unwrap()`, `.expect(…)`,\n\
             `panic!`, `unreachable!`, `todo!`, `unimplemented!`, and — when\n\
             `check_indexing = true` — single-element slice indexing whose index\n\
             expression contains arithmetic (`v[i * n + j]`). Range slicing is not\n\
             flagged. `assert!`-style documented preconditions are deliberate API\n\
             contracts and stay allowed.\n\n\
             Escape hatch (reason required):\n\
             `// lint: allow(no-panic): index in bounds by construction, see shape check`.",
        ),
        rules::NO_UNSAFE => Some(
            "no-unsafe (R3)\n\
             ==============\n\
             No `unsafe` anywhere in the workspace, tests included — bit-exactness\n\
             claims are only as strong as the memory model they sit on. Also verifies\n\
             each configured crate root carries `#![forbid(unsafe_code)]` so the\n\
             compiler enforces the same invariant.",
        ),
        rules::KERNEL_CONSISTENCY => Some(
            "kernel-consistency (R4)\n\
             =======================\n\
             Cross-file structural checks for the kernels crate:\n\
             * every `impl <op trait> for T` (`Mac8`: one multiply-accumulate step of\n\
               the generic u8 matmul loop) must be named by a configured tier entry\n\
               point (`dispatch_fn`, one name or a list) and by the equivalence-test\n\
               suite (an unreachable or untested op is a silent correctness hole);\n\
             * per-format LUT cache arrays (`[OnceLock<…>; N]`) must have exactly one\n\
               slot per `Format8` variant, matching `Format8::ALL`;\n\
             * LUT entry arrays must hold `(1 << code_bits)²` entries — the exhaustive\n\
               size implied by 8-bit codes (65 536).",
        ),
        rules::NO_ENV_TIME => Some(
            "no-env-time (R5)\n\
             ================\n\
             Reproducibility: numeric results must be a function of inputs alone.\n\
             Flags `std::env`/`std::time` paths and `Instant`/`SystemTime` uses outside\n\
             the allowlisted kernel-selection module (`NGA_KERNEL`/`NGA_THREADS`\n\
             plumbing) and the bench crate.",
        ),
        rules::CTX_SINGLE_SOURCE => Some(
            "ctx-single-source (R6)\n\
             ======================\n\
             Kernel-tier selection has one ambient entry point: the documented\n\
             `NGA_KERNEL` fallback read in `KernelTier::from_env` (kernel.rs). This\n\
             rule flags any other string literal containing `NGA_KERNEL` — a second\n\
             `std::env::var(\"NGA_KERNEL\")` read (or a message claiming to report the\n\
             env selection) can disagree with the tier an `ArithCtx` actually runs,\n\
             which is exactly the bench-header bug that motivated the rule. Select\n\
             tiers with `KernelTier::parse`/`ArithCtx::with_tier` and report\n\
             `ctx.tier()` instead.",
        ),
        rules::LINT_ANNOTATION => Some(
            "lint-annotation\n\
             ===============\n\
             Escape hatches are part of the audit surface, so they are themselves\n\
             checked: `// lint: allow(<rule>): <reason>` needs a non-empty reason and a\n\
             known rule id; `allow-start` must be closed by `allow-end`. A malformed\n\
             annotation is a finding, never a silent no-op.",
        ),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in rules::ALL_RULES {
            assert!(explain(rule).is_some(), "missing --explain text for {rule}");
        }
        assert!(explain("bogus").is_none());
    }
}
