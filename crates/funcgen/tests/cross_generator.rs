//! Cross-generator integration: independent operator families must agree
//! with each other wherever they compute the same function — a stronger
//! check than each family's oracle test alone, because the families share
//! no code beyond the rounding primitives.

use nga_funcgen::cordic::CordicSinCos;
use nga_funcgen::elem::{Exp2, Log2};
use nga_funcgen::fir::FirFilter;
use nga_funcgen::sincos::SinCos;

#[test]
fn table_and_cordic_sincos_agree_within_two_ulp() {
    let table = SinCos::generate(12, 6, 10);
    let cordic = CordicSinCos::generate(12, 10, 16);
    let ulp = (2.0f64).powi(-10);
    let mut max_gap = 0.0f64;
    for x in 0..(1u64 << 12) {
        let (ts, tc) = table.eval_f64(x);
        let (cs, cc) = cordic.eval_f64(x);
        max_gap = max_gap.max((ts - cs).abs()).max((tc - cc).abs());
    }
    assert!(
        max_gap <= 2.0 * ulp,
        "independent families agree: gap {max_gap}"
    );
}

#[test]
fn exp2_inverts_log2_through_the_generated_operators() {
    let e = Exp2::generate(10, 14);
    let l = Log2::generate(10, 14);
    for raw in (1u64..1 << 14).step_by(111) {
        // x in (0, 16): log2 then exp2 returns x within combined error.
        let lg = l.eval_f64(raw); // log2(raw · 2^-10)
        let x_back = e.eval_f64((lg * 1024.0).round() as i64);
        let x = raw as f64 / 1024.0;
        assert!((x_back - x).abs() / x < 0.004, "exp2(log2({x})) = {x_back}");
    }
}

#[test]
fn fir_of_a_generated_sinusoid_attenuates_per_theory() {
    // Drive an FIR low-pass with tones synthesized by the sin/cos
    // generator; the out-of-band tone must be attenuated relative to the
    // in-band tone by the filter's own frequency response.
    let osc = SinCos::generate(12, 6, 12);
    let taps = 25usize;
    let fc = 0.1;
    let coeffs: Vec<f64> = (0..taps)
        .map(|i| {
            let m = i as f64 - (taps as f64 - 1.0) / 2.0;
            let sinc = if m == 0.0 {
                2.0 * fc
            } else {
                (std::f64::consts::TAU * fc * m).sin() / (std::f64::consts::PI * m)
            };
            sinc * (0.54 - 0.46 * (std::f64::consts::TAU * i as f64 / (taps as f64 - 1.0)).cos())
        })
        .collect();
    let fir = FirFilter::generate(&coeffs, 14, 12, 12);

    let run_tone = |freq: f64| -> f64 {
        let phase_steps = 4096.0;
        let samples: Vec<i64> = (0..512)
            .map(|n| {
                let phase = ((n as f64 * freq * phase_steps) as u64) % 4096;
                osc.eval(phase).0
            })
            .collect();
        // RMS of the filtered signal.
        let mut sum_sq = 0.0;
        let mut count = 0.0;
        for n in taps + 64..samples.len() {
            let y = fir.eval_mac(&samples[n - taps..n]) as f64 * (2.0f64).powi(-12);
            sum_sq += y * y;
            count += 1.0;
        }
        (sum_sq / count).sqrt()
    };
    let in_band = run_tone(0.02);
    let out_band = run_tone(0.35);
    assert!(
        in_band > 10.0 * out_band,
        "low-pass separates the tones: {in_band} vs {out_band}"
    );
}
