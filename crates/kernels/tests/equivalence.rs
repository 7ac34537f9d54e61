//! The table tier's correctness contract: for every 8-bit format, the
//! 64 KiB lookup tables agree with the bit-exact scalar ops on **all**
//! 65 536 input pairs (including NaR, NaN, infinities and both zeros),
//! every op the generic u8 matmul loop runs agrees on every tier, and
//! the parallel tensor kernels agree with the serial ones bit-for-bit on
//! random shapes.

use nga_kernels::{
    add_table, matmul8, matmul8_parallel, matmul8_scalar, matmul8_tables, matmul_f32,
    matmul_f32_parallel, mul_table, ArithCtx, BinaryTable, Format8, KernelTier, LutOp,
    StatusCounters, StatusOp,
};
use proptest::prelude::*;

/// Special codes worth calling out in failure messages.
fn label(fmt: Format8, code: u8) -> &'static str {
    match (fmt, code) {
        (Format8::Posit8, 0x80) => "NaR",
        (Format8::E4m3, 0x7F | 0xFF) => "NaN",
        (Format8::E5m2, 0x7C | 0xFC) => "inf",
        (Format8::E5m2, c) if c & 0x7F > 0x7C => "NaN",
        (_, 0x00) => "+0",
        (Format8::E4m3 | Format8::E5m2, 0x80) => "-0",
        _ => "",
    }
}

fn exhaustive_for(fmt: Format8) {
    let mul = mul_table(fmt);
    let add = add_table(fmt);
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            assert_eq!(
                mul.get(a, b),
                fmt.mul_scalar_events(a, b).0,
                "{} mul {a:#04x}{} × {b:#04x}{}",
                fmt.id(),
                label(fmt, a),
                label(fmt, b),
            );
            assert_eq!(
                add.get(a, b),
                fmt.add_scalar_events(a, b).0,
                "{} add {a:#04x}{} + {b:#04x}{}",
                fmt.id(),
                label(fmt, a),
                label(fmt, b),
            );
        }
    }
}

#[test]
fn posit8_tables_match_scalar_on_all_65536_pairs() {
    exhaustive_for(Format8::Posit8);
}

#[test]
fn e4m3_tables_match_scalar_on_all_65536_pairs() {
    exhaustive_for(Format8::E4m3);
}

#[test]
fn e5m2_tables_match_scalar_on_all_65536_pairs() {
    exhaustive_for(Format8::E5m2);
}

#[test]
fn fixed8_tables_match_scalar_on_all_65536_pairs() {
    exhaustive_for(Format8::Fixed8);
}

#[test]
fn nar_is_absorbing_for_posit8_ops() {
    // NaR in ⇒ NaR out, for every partner code, through the tables.
    let op = LutOp::new(Format8::Posit8);
    for b in 0..=255u8 {
        assert_eq!(op.mul(0x80, b), 0x80, "NaR × {b:#04x}");
        assert_eq!(op.add(0x80, b), 0x80, "NaR + {b:#04x}");
        assert_eq!(op.mul(b, 0x80), 0x80, "{b:#04x} × NaR");
        assert_eq!(op.add(b, 0x80), 0x80, "{b:#04x} + NaR");
    }
}

/// Every op the generic u8 matmul loop runs — the scalar `Format8` op,
/// `LutOp`, a raw `BinaryTable` pair and `StatusOp` — on every entry
/// point and every `KernelTier` must agree with a naive `i, j, k` fold of
/// `StatusOp`, codes and counters alike. nga-lint's kernel-consistency
/// rule checks that each op is named here.
#[test]
fn every_op_and_tier_matches_naive_reference_on_every_format() {
    // Odd m with m·n ≥ 16 384, so the parallel paths split uneven bands.
    let (m, k, n) = (131, 5, 129);
    // Deterministic byte inputs that include NaR/NaN/inf codes.
    let a8: Vec<u8> = (0..m * k).map(|i| (i * 41 + 3) as u8).collect();
    let b8: Vec<u8> = (0..k * n).map(|i| (i * 97 + 128) as u8).collect();
    for fmt in Format8::ALL {
        let status_op = StatusOp::new(fmt);
        let mut want = vec![0u8; m * n];
        let mut want_s = StatusCounters::new();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0u8;
                for x in 0..k {
                    let (p, em) = status_op.mul(a8[i * k + x], b8[x * n + j]);
                    let (s, ea) = status_op.add(acc, p);
                    want_s.record(em);
                    want_s.record(ea);
                    acc = s;
                }
                want[i * n + j] = acc;
            }
        }
        let lut = LutOp::new(fmt);
        let tables: (&BinaryTable, &BinaryTable) = (mul_table(fmt), add_table(fmt));
        let mut out = vec![0u8; m * n];
        matmul8_scalar(fmt, &a8, &b8, &mut out, m, k, n);
        assert_eq!(out, want, "{} scalar ≡ reference", fmt.id());
        matmul8(&lut, &a8, &b8, &mut out, m, k, n);
        assert_eq!(out, want, "{} table ≡ reference", fmt.id());
        matmul8_parallel(&lut, &a8, &b8, &mut out, m, k, n);
        assert_eq!(out, want, "{} parallel ≡ reference", fmt.id());
        matmul8_tables(tables.0, tables.1, &a8, &b8, &mut out, m, k, n);
        assert_eq!(out, want, "{} raw tables ≡ reference", fmt.id());
        for tier in KernelTier::ALL {
            let mut ctx = ArithCtx::labeled("equivalence").with_tier(tier);
            let s = ctx.matmul8(fmt, &a8, &b8, &mut out, m, k, n);
            assert_eq!(out, want, "{} {tier} ctx ≡ reference", fmt.id());
            assert_eq!(s, want_s, "{} {tier} ctx counters ≡ reference", fmt.id());
        }
    }
}

#[test]
fn f32_matmul_is_bit_identical_on_every_tier() {
    let (m, k, n) = (131, 5, 129);
    let af: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.03 - 0.4).collect();
    let bf: Vec<f32> = (0..k * n).map(|i| 0.7 - i as f32 * 0.02).collect();
    let mut want = vec![0.0f32; m * n];
    matmul_f32(&af, &bf, &mut want, m, k, n);
    let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
    for tier in KernelTier::ALL {
        let mut out = vec![0.0f32; m * n];
        ArithCtx::labeled("equivalence")
            .with_tier(tier)
            .matmul_f32(&af, &bf, &mut out, m, k, n);
        let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{tier} f32 ≡ serial");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_f32_matmul_is_bit_identical_to_serial(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u32 << 31) as f32) - 0.5
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let mut serial = vec![0.0f32; m * n];
        let mut par = vec![0.0f32; m * n];
        matmul_f32(&a, &b, &mut serial, m, k, n);
        matmul_f32_parallel(&a, &b, &mut par, m, k, n);
        let sb: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u32> = par.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sb, pb);
    }

    #[test]
    fn parallel_matmul8_matches_serial_and_scalar(
        m in 1usize..24,
        k in 1usize..16,
        n in 1usize..24,
        seed in 0u64..1_000_000,
    ) {
        for fmt in Format8::ALL {
            let op = LutOp::new(fmt);
            let mut state = seed ^ (fmt as u64);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            };
            let a: Vec<u8> = (0..m * k).map(|_| next()).collect();
            let b: Vec<u8> = (0..k * n).map(|_| next()).collect();
            let mut scalar = vec![0u8; m * n];
            let mut serial = vec![0u8; m * n];
            let mut par = vec![0u8; m * n];
            matmul8_scalar(fmt, &a, &b, &mut scalar, m, k, n);
            matmul8(&op, &a, &b, &mut serial, m, k, n);
            matmul8_parallel(&op, &a, &b, &mut par, m, k, n);
            prop_assert_eq!(&scalar, &serial, "{} table ≡ scalar", fmt.id());
            prop_assert_eq!(&serial, &par, "{} parallel ≡ serial", fmt.id());
        }
    }
}
