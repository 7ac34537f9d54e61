//! Deterministic observability trace: runs a fixed, seeded workload
//! through every instrumented subsystem and writes the resulting
//! `nga-obs` snapshot as `TRACE_REPORT.json` (or, with `--quick`, a
//! smaller workload as `TRACE_REPORT.quick.json`).
//!
//! The report contains op counts and folded event totals only — no
//! wall-clock numbers, no timestamps — so two runs on any machine produce
//! byte-identical files. `scripts/check.sh` runs the quick mode twice and
//! `cmp`s the outputs to keep that guarantee honest.
//!
//! Workload per mode:
//!
//! * 8-bit matmuls through [`ArithCtx`] over every format × every
//!   [`KernelTier`] (exercises all three kernel tiers + status folding),
//! * a float CNN forward/backward plus a short training run (`nn:*`
//!   scopes), and the quantized/approximate forward (`nn:qforward`),
//! * a `funcgen:explore` sweep.

use nga_approx::ApproxMultiplier;
use nga_kernels::{ArithCtx, Format8, KernelTier};
use nga_nn::data::Dataset;
use nga_nn::quant::QuantizedNetwork;
use nga_nn::train::{accuracy, train_float, TrainConfig};
use nga_nn::Tensor;

struct Workload {
    mode: &'static str,
    mat: (usize, usize, usize),
    per_class: usize,
    epochs: usize,
    explore_points: u64,
}

const QUICK: Workload = Workload {
    mode: "quick",
    mat: (6, 8, 6),
    per_class: 2,
    epochs: 1,
    explore_points: 8,
};

const FULL: Workload = Workload {
    mode: "full",
    mat: (24, 32, 24),
    per_class: 6,
    epochs: 3,
    explore_points: 32,
};

fn run(w: &Workload) {
    // 1. Kernel tiers: every format through every tier, via the context.
    let (m, k, n) = w.mat;
    let a: Vec<u8> = (0..m * k).map(|i| (i * 53 + 7) as u8).collect();
    let b: Vec<u8> = (0..k * n).map(|i| (i * 29 + 1) as u8).collect();
    for tier in KernelTier::ALL {
        let mut ctx = ArithCtx::labeled("trace:kernels").with_tier(tier);
        for fmt in Format8::ALL {
            let mut out = vec![0u8; m * n];
            let _ = ctx.matmul8(fmt, &a, &b, &mut out, m, k, n);
            let _ = ctx.mul(fmt, a[0], b[0]);
            let _ = ctx.add(fmt, a[1], b[1]);
        }
    }

    // 2. Neural network: train a tiny CNN, then eval float + quantized.
    let data = Dataset::synth_images(4, w.per_class, 8, 11);
    let mut net = nga_nn::models::resnet_mini(4, 4, 5);
    let cfg = TrainConfig {
        epochs: w.epochs,
        seed: 13,
        ..TrainConfig::default()
    };
    let _ = train_float(&mut net, &data, &cfg);
    let _ = accuracy(&net, &data);
    let calib: Vec<Tensor> = (0..data.len().min(4)).map(|i| data.sample(i).0).collect();
    let qnet = QuantizedNetwork::from_float(&net, &calib);
    let _ = qnet.forward(&calib[0], ApproxMultiplier::Trunc8);

    // 3. Funcgen exploration (synthetic landscape: cost = p, error = N/p).
    let pts = w.explore_points;
    let _ = nga_funcgen::explore::explore(1..=pts, |&p| (p, pts as f64 / p as f64), 1.0);
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let w = if quick { &QUICK } else { &FULL };

    run(w);
    let report = nga_obs::snapshot();

    let path = if quick {
        "TRACE_REPORT.quick.json"
    } else {
        "TRACE_REPORT.json"
    };
    std::fs::write(path, report.to_json(w.mode)).expect("write trace report");

    let total = report.total();
    println!(
        "wrote {path}: {} scopes, {} ops, {} muls, {} adds, {} lut hits, {} events",
        report.scopes.len(),
        total.status.ops(),
        total.muls,
        total.adds,
        total.lut_hits,
        total.status.events_total(),
    );
}
