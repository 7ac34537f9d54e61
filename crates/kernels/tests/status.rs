//! Status-flag subsystem invariants: every execution tier must report
//! byte-identical output codes *and* identical event counters, and table
//! checksums must catch injected corruption.

use nga_kernels::{
    matmul8_scalar, matmul8_tables, mul_table, ArithCtx, BinaryTable, Event8, Format8, KernelTier,
    StatusCounters, StatusOp,
};

/// Exhaustive 8-bit sweep: the event tables must agree with the scalar
/// event ops on every one of the 65 536 input pairs, for both ops and
/// all four formats (the table tier inherits its status semantics from
/// these tables, so this pins tier agreement at the op level).
#[test]
fn event_tables_match_scalar_exhaustively() {
    for fmt in Format8::ALL {
        let op = StatusOp::new(fmt);
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let (mv, mev) = fmt.mul_scalar_events(a, b);
                assert_eq!(
                    op.mul(a, b),
                    (mv, mev),
                    "{} mul({a:#04x}, {b:#04x})",
                    fmt.id()
                );
                let (av, aev) = fmt.add_scalar_events(a, b);
                assert_eq!(
                    op.add(a, b),
                    (av, aev),
                    "{} add({a:#04x}, {b:#04x})",
                    fmt.id()
                );
            }
        }
    }
}

#[test]
fn status_counters_agree_across_tiers() {
    // Both shapes are large enough that the parallel tier actually spawns
    // bands (m * n >= 16384); the odd m leaves the bands uneven, so the
    // per-band counters are merged from unequal row counts.
    for (m, k, n) in [(130, 40, 130), (131, 40, 129)] {
        let a: Vec<u8> = (0..m * k).map(|i| (i * 37 + 11) as u8).collect();
        let b: Vec<u8> = (0..k * n).map(|i| (i * 91 + 3) as u8).collect();
        for fmt in Format8::ALL {
            let mut want = vec![0u8; m * n];
            let mut ctx = ArithCtx::labeled("status-test").with_tier(KernelTier::Scalar);
            let want_s = ctx.matmul8(fmt, &a, &b, &mut want, m, k, n);
            assert_eq!(
                want_s.ops(),
                2 * (m * k * n) as u64,
                "one mul + one add per MAC"
            );
            for tier in [KernelTier::Table, KernelTier::Parallel] {
                let mut out = vec![0u8; m * n];
                let mut ctx = ArithCtx::labeled("status-test").with_tier(tier);
                let s = ctx.matmul8(fmt, &a, &b, &mut out, m, k, n);
                assert_eq!(out, want, "{} {m}x{k}x{n}: {tier} codes ≡ scalar", fmt.id());
                assert_eq!(
                    s,
                    want_s,
                    "{} {m}x{k}x{n}: {tier} counters ≡ scalar",
                    fmt.id()
                );
            }
            // The status path must not perturb the value path.
            let mut plain = vec![0u8; m * n];
            matmul8_scalar(fmt, &a, &b, &mut plain, m, k, n);
            assert_eq!(plain, want, "{}: status output ≡ plain output", fmt.id());
        }
    }
}

#[test]
fn posit8_counters_see_saturation_and_inexactness() {
    // maxpos * maxpos saturates; the counters must say so.
    let fmt = Format8::Posit8;
    let maxpos = 0x7Fu8;
    let (v, ev) = fmt.mul_scalar_events(maxpos, maxpos);
    assert_eq!(v, maxpos);
    assert!(ev.contains(Event8::SATURATED | Event8::INEXACT));
    // 1 * 1 is exact.
    let (v, ev) = fmt.mul_scalar_events(0x40, 0x40);
    assert_eq!(v, 0x40);
    assert!(ev.is_empty());
}

#[test]
fn checksum_catches_injected_corruption() {
    let fmt = Format8::E4m3;
    let mut table = BinaryTable::build(|a, b| fmt.mul_scalar_events(a, b).0);
    assert!(table.verify(), "freshly built table verifies");
    assert_eq!(
        table.checksum(),
        mul_table(fmt).checksum(),
        "same contents, same checksum"
    );
    table.corrupt_entry(0x3C, 0x3C, 0x40);
    assert!(!table.verify(), "single bit flip is detected");
    // Flipping the same bit back restores integrity.
    table.corrupt_entry(0x3C, 0x3C, 0x40);
    assert!(table.verify(), "restored table verifies again");
}

#[test]
fn corrupted_table_changes_matmul_output() {
    let fmt = Format8::Posit8;
    let mut mul = BinaryTable::build(|a, b| fmt.mul_scalar_events(a, b).0);
    let add = BinaryTable::build(|a, b| fmt.add_scalar_events(a, b).0);
    let (m, k, n) = (4, 4, 4);
    let a: Vec<u8> = (0..m * k).map(|i| (i * 17 + 0x38) as u8).collect();
    let b: Vec<u8> = (0..k * n).map(|i| (i * 13 + 0x42) as u8).collect();
    let mut clean = vec![0u8; m * n];
    matmul8_tables(&mul, &add, &a, &b, &mut clean, m, k, n);
    let mut reference = vec![0u8; m * n];
    matmul8_scalar(fmt, &a, &b, &mut reference, m, k, n);
    assert_eq!(clean, reference, "clean tables match the scalar tier");
    // Corrupt the entry for a pair that actually occurs in the product.
    mul.corrupt_entry(a[0], b[0], 0x80);
    let mut faulty = vec![0u8; m * n];
    matmul8_tables(&mul, &add, &a, &b, &mut faulty, m, k, n);
    assert_ne!(faulty, reference, "the upset propagates to the output");
}

#[test]
fn empty_counters_have_empty_union() {
    let c = StatusCounters::new();
    assert_eq!(c.ops(), 0);
    assert!(c.union().is_empty());
}
