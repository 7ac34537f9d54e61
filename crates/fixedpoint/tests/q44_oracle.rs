//! Exhaustive differential tests of the Q4.4 datapath against
//! `nga-oracle`'s independently derived reference arithmetic — every raw
//! code (or code pair) is checked, including the most-negative-value
//! saturation corners that two's-complement wrap bugs hide in.

use nga_fixed::{Fixed, FixedFormat, OverflowMode, RoundingMode};
use nga_oracle::fixedpt;

fn q44(raw: u8) -> Fixed {
    Fixed::from_raw(i128::from(raw as i8), FixedFormat::Q4_4).expect("Q4.4 raw in range")
}

fn raw_u8(f: &Fixed) -> u8 {
    (f.raw() as i8) as u8
}

#[test]
fn exhaustive_q44_saturating_add_matches_oracle() {
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            let got = q44(a).checked_add(q44(b)).expect("same-format add");
            assert_eq!(raw_u8(&got), fixedpt::add_q44(a, b), "{a:#04x} + {b:#04x}");
        }
    }
}

#[test]
fn exhaustive_q44_saturating_sub_matches_oracle() {
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            let got = q44(a).checked_sub(q44(b)).expect("same-format sub");
            assert_eq!(raw_u8(&got), fixedpt::sub_q44(a, b), "{a:#04x} - {b:#04x}");
        }
    }
}

#[test]
fn exhaustive_q44_rounded_saturating_mul_matches_oracle() {
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            let got = q44(a)
                .mul_exact(&q44(b))
                .and_then(|w| {
                    w.convert(
                        FixedFormat::Q4_4,
                        RoundingMode::NearestEven,
                        OverflowMode::Saturate,
                    )
                })
                .expect("Q4.4 product path");
            assert_eq!(raw_u8(&got), fixedpt::mul_q44(a, b), "{a:#04x} * {b:#04x}");
        }
    }
}

#[test]
fn exhaustive_q44_saturating_neg_matches_oracle() {
    for a in 0..=255u8 {
        let got = q44(a).saturating_neg();
        assert_eq!(raw_u8(&got), fixedpt::neg_q44(a), "-{a:#04x}");
    }
    // The headline corner: negating the most-negative value must saturate
    // to maxpos, not wrap back to itself.
    assert_eq!(raw_u8(&q44(0x80).saturating_neg()), 0x7F);
}

#[test]
fn exhaustive_q44_converts_match_oracle_in_every_mode() {
    let targets = [
        FixedFormat::signed(2, 2).expect("Q2.2"),
        FixedFormat::signed(6, 2).expect("Q6.2"),
        FixedFormat::signed(2, 6).expect("Q2.6"),
    ];
    let modes = [
        RoundingMode::Truncate,
        RoundingMode::Floor,
        RoundingMode::NearestEven,
        RoundingMode::NearestTiesAway,
    ];
    for target in targets {
        for mode in modes {
            for a in 0..=255u8 {
                let got = q44(a)
                    .convert(target, mode, OverflowMode::Saturate)
                    .expect("saturating convert")
                    .raw();
                let want =
                    fixedpt::convert_sat(i128::from(a as i8), FixedFormat::Q4_4, target, mode)
                        .expect("in oracle domain");
                assert_eq!(got, want, "convert {a:#04x} to {target:?} under {mode:?}");
            }
        }
    }
}
