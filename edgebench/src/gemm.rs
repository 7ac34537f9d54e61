//! `fmt8-gemm`: the im2col GEMM and dense GEMV of every weight layer of
//! ResNet20, KWS-CNN1 and KWS-CNN2, through the default
//! `ArithCtx::matmul8` in posit8, E4M3, E5M2 and Q4.4.
//!
//! The paper's 8-bit formats have no network consumer yet, so this is
//! their only end-to-end path. It bypasses `nga-nn` (shapes only come
//! from `nga_nn::models`) and stresses the LUT and status kernels and the
//! banding decision: ResNet20's 16×144×1024 GEMMs cross the banding
//! threshold, the GEMVs never do.

use std::ops::Range;
use std::time::{Duration, Instant};

use nga_approx::ApproxMultiplier;
use nga_kernels::{ArithCtx, BinaryTable, Format8, KernelTier, LutOp, MacTable, StatusCounters};
use nga_nn::layers::{Layer, Network};
use nga_nn::models::{kws_cnn1, kws_cnn2, resnet20};

use crate::checks::{Checks, Digest};
use crate::golden::Entry;
use crate::report::Metric;
use crate::rng::{sub_seed, SplitMix64};
use crate::stats::median;

/// Each GEMV runs this many times per round, so the dense layers fill a
/// measurable share of a round (one pass is only ~1 % of its MACs).
const GEMV_REPS: usize = 16;

/// One distinct weight-layer shape of a model, lowered to
/// `out[m×n] = a[m×k] · b[k×n]`; `count` layers of the model have it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub model: &'static str,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub count: usize,
}

impl Shape {
    pub fn macs(&self) -> u64 {
        (self.m * self.k * self.n) as u64
    }

    fn is_gemv(&self) -> bool {
        self.n == 1
    }

    fn reps(&self) -> usize {
        if self.is_gemv() {
            GEMV_REPS
        } else {
            1
        }
    }
}

/// The three Table I models with their input shapes.
pub fn models() -> Vec<(&'static str, Network, Vec<usize>)> {
    vec![
        ("resnet20", resnet20(10, 1), vec![3, 32, 32]),
        ("kws_cnn1", kws_cnn1(12, 1), vec![1, 49, 10]),
        ("kws_cnn2", kws_cnn2(12, 1), vec![1, 49, 10]),
    ]
}

/// Appends the GEMM shape of every weight layer in `layers` (residual
/// branches included) and returns the output shape.
fn lower(
    model: &'static str,
    layers: &[Layer],
    in_shape: &[usize],
    out: &mut Vec<Shape>,
) -> Vec<usize> {
    let mut shape = in_shape.to_vec();
    for l in layers {
        let (m, k, n) = match l {
            Layer::Conv2d(c) => {
                let w = c.weights.shape();
                let os = c.out_shape(&shape);
                (w[0], w[1] * w[2] * w[3], os[1] * os[2])
            }
            Layer::Dense(d) => (d.weights.shape()[0], d.weights.shape()[1], 1),
            Layer::Residual(r) => {
                lower(model, &r.main, &shape, out);
                lower(model, &r.shortcut, &shape, out);
                (0, 0, 0)
            }
            Layer::DwConv2d(_) => {
                panic!("{model}: a depthwise layer lowers to one GEMV per channel, not one GEMM")
            }
            _ => (0, 0, 0),
        };
        if m > 0 {
            match out
                .iter_mut()
                .find(|s| (s.model, s.m, s.k, s.n) == (model, m, k, n))
            {
                Some(s) => s.count += 1,
                None => out.push(Shape {
                    model,
                    m,
                    k,
                    n,
                    count: 1,
                }),
            }
        }
        shape = l.macs(&shape).1;
    }
    shape
}

/// The distinct weight-layer shapes of the three models, in model order.
/// ResNet20 repeats its block convolutions, so its 22 layers have 9
/// shapes; a round times each shape once.
pub fn shapes() -> Vec<Shape> {
    let mut out = Vec::new();
    for (name, net, input) in models() {
        lower(name, &net.layers, &input, &mut out);
    }
    out
}

/// Seeded operands for one shape in every format: weights are
/// He-scaled Gaussians, activations post-ReLU Gaussians, both through
/// `Format8::encode`, so NaR/NaN and saturation occur at inference-like
/// rates rather than uniform-code rates.
fn operands(s: &Shape, seed: u64) -> [(Vec<u8>, Vec<u8>); 4] {
    let mut rng = SplitMix64::new(seed);
    let std = (2.0 / s.k as f64).sqrt();
    let a: Vec<f64> = (0..s.m * s.k).map(|_| rng.gaussian() * std).collect();
    let b: Vec<f64> = (0..s.k * s.n).map(|_| rng.gaussian().max(0.0)).collect();
    Format8::ALL.map(|f| {
        (
            a.iter().map(|&v| f.encode(v)).collect(),
            b.iter().map(|&v| f.encode(v)).collect(),
        )
    })
}

struct Layer8 {
    shape: Shape,
    /// `(a, b)` per format, in `Format8::ALL` order.
    ops: [(Vec<u8>, Vec<u8>); 4],
    /// Warm-up `(codes, status)` per format.
    refs: Vec<(Vec<u8>, StatusCounters)>,
}

pub struct Gemm {
    layers: Vec<Layer8>,
    out: Vec<u8>,
    seed: u64,
    /// The format the next block of `run` measures.
    next_format: usize,
}

/// One timed call of a round.
#[derive(Debug, Clone, Copy)]
struct Call {
    format: usize,
    macs: u64,
    gemv: bool,
    secs: f64,
}

/// MACs over seconds of a set of calls.
fn rate<'a>(calls: impl Iterator<Item = &'a Call>) -> f64 {
    let (macs, secs) = calls.fold((0u64, 0.0), |(m, s), c| (m + c.macs, s + c.secs));
    macs as f64 / secs
}

/// The calls of every block of a run. Rates are total MACs over total
/// time (not medians over blocks), which follow a shared host's share of
/// fast phases smoothly instead of jumping between its two speed levels
/// (see `KwsRun`).
#[derive(Debug, Default)]
pub struct GemmRun {
    calls: Vec<Call>,
    blocks: usize,
}

impl GemmRun {
    pub fn merge(&mut self, other: Self) {
        self.calls.extend(other.calls);
        self.blocks += other.blocks;
    }

    pub fn metrics(&self) -> Vec<(&'static str, Option<f64>, &'static str)> {
        let some = |r: f64| Some(r).filter(|r| r.is_finite());
        vec![
            (
                "gemm_mac_per_s",
                some(rate(self.calls.iter().filter(|c| !c.gemv))),
                "MAC/s",
            ),
            (
                "gemv_mac_per_s",
                some(rate(self.calls.iter().filter(|c| c.gemv))),
                "MAC/s",
            ),
        ]
    }

    /// All MACs of the run over its time.
    pub fn rate(&self) -> Option<f64> {
        Some(rate(self.calls.iter())).filter(|r| r.is_finite())
    }

    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Time of the timed calls.
    pub fn secs(&self) -> f64 {
        self.calls.iter().map(|c| c.secs).sum()
    }
}

impl Gemm {
    /// Generates the operands and makes the first cold call per format,
    /// which builds that format's value and event tables.
    pub fn setup(seed: u64) -> Self {
        let layers: Vec<Layer8> = shapes()
            .into_iter()
            .enumerate()
            .map(|(i, shape)| Layer8 {
                ops: operands(&shape, sub_seed(seed, 100 + i as u64)),
                shape,
                refs: Vec::new(),
            })
            .collect();
        let max_out = layers
            .iter()
            .map(|l| l.shape.m * l.shape.n)
            .max()
            .unwrap_or(0);
        let mut g = Self {
            layers,
            out: vec![0; max_out],
            seed,
            next_format: 0,
        };
        let mut ctx = ArithCtx::labeled("edgebench.fmt8");
        let first = &g.layers[0];
        for (fi, fmt) in Format8::ALL.into_iter().enumerate() {
            let (a, b) = &first.ops[fi];
            let s = first.shape;
            let out = &mut g.out[..s.m * s.n];
            std::hint::black_box(ctx.matmul8(fmt, a, b, out, s.m, s.k, s.n));
        }
        g
    }

    /// The reference pass: one default-ctx call per shape and format,
    /// checked against the `KernelTier::Scalar` reference on a seeded row
    /// of every GEMM and on every row of every GEMV.
    pub fn warm_up(&mut self, checks: &mut Checks) -> Vec<Entry> {
        let mut ctx = ArithCtx::labeled("edgebench.fmt8");
        let mut scalar = ArithCtx::labeled("edgebench.scalar_ref").with_tier(KernelTier::Scalar);
        let mut rng = SplitMix64::new(sub_seed(self.seed, 99));
        for (li, l) in self.layers.iter_mut().enumerate() {
            let s = l.shape;
            l.refs = Format8::ALL
                .into_iter()
                .zip(&l.ops)
                .map(|(fmt, (a, b))| {
                    let mut out = vec![0; s.m * s.n];
                    let st = ctx.matmul8(fmt, a, b, &mut out, s.m, s.k, s.n);
                    (out, st)
                })
                .collect();
            let rows: Range<usize> = if s.is_gemv() {
                0..s.m
            } else {
                let r = rng.below(s.m);
                r..r + 1
            };
            for (fi, fmt) in Format8::ALL.into_iter().enumerate() {
                let a = &l.ops[fi].0[rows.start * s.k..rows.end * s.k];
                let b = &l.ops[fi].1;
                let mut want = vec![0; rows.len() * s.n];
                let want_st = scalar.matmul8(fmt, a, b, &mut want, rows.len(), s.k, s.n);
                let mut got = vec![0; rows.len() * s.n];
                let got_st = ctx.matmul8(fmt, a, b, &mut got, rows.len(), s.k, s.n);
                let full = &l.refs[fi].0[rows.start * s.n..rows.end * s.n];
                checks.check(want == full && want_st == got_st, || {
                    format!(
                        "fmt8: {} shape {li} ({}x{}x{}) rows {rows:?} differ from the scalar tier",
                        fmt.id(),
                        s.m,
                        s.k,
                        s.n
                    )
                });
            }
        }
        Format8::ALL
            .into_iter()
            .enumerate()
            .map(|(fi, fmt)| {
                let d = self.layers.iter().fold(Digest::default(), |d, l| {
                    let (codes, st) = &l.refs[fi];
                    d.bytes(codes).u64s(&status_fields(st))
                });
                Entry::exact(format!("fmt8.{}.digest", fmt.id()), d.hex())
            })
            .collect()
    }

    /// One block: every shape in format `fi` through `op`, each call timed
    /// and checked against its warm-up codes (and status, when `op`
    /// returns one).
    fn block(
        &mut self,
        fi: usize,
        checks: &mut Checks,
        op: &mut impl FnMut(Format8, &[u8], &[u8], &mut [u8], Shape) -> Option<StatusCounters>,
    ) -> Vec<Call> {
        let fmt = Format8::ALL[fi];
        let mut calls = Vec::new();
        for (li, l) in self.layers.iter().enumerate() {
            let s = l.shape;
            let (a, b) = &l.ops[fi];
            let (want, want_st) = &l.refs[fi];
            let out = &mut self.out[..s.m * s.n];
            for _ in 0..s.reps() {
                let t0 = Instant::now();
                let st = op(fmt, a, b, out, s);
                let secs = t0.elapsed().as_secs_f64();
                calls.push(Call {
                    format: fi,
                    macs: s.macs(),
                    gemv: s.is_gemv(),
                    secs,
                });
                checks.check(
                    *out == want[..] && st.is_none_or(|st| st == *want_st),
                    || format!("fmt8: {} shape {li} differs from warm-up", fmt.id()),
                );
            }
        }
        calls
    }

    /// One round: a block in every format.
    fn round(
        &mut self,
        checks: &mut Checks,
        mut op: impl FnMut(Format8, &[u8], &[u8], &mut [u8], Shape) -> Option<StatusCounters>,
    ) -> Vec<Call> {
        let mut calls = Vec::new();
        for fi in 0..Format8::ALL.len() {
            calls.extend(self.block(fi, checks, &mut op));
        }
        calls
    }

    fn ctx_round(&mut self, ctx: &mut ArithCtx, checks: &mut Checks) -> Vec<Call> {
        self.round(checks, |fmt, a, b, out, s| {
            Some(ctx.matmul8(fmt, a, b, out, s.m, s.k, s.n))
        })
    }

    /// Closed loop, one client, through the default `ArithCtx`: one block
    /// after another, cycling through the formats from where the previous
    /// call left off, until `budget` is spent. A block (~0.5 s) rather
    /// than a round (~2 s) is the unit, so that short slices stay
    /// short.
    pub fn run(&mut self, budget: Duration, checks: &mut Checks) -> GemmRun {
        let mut ctx = ArithCtx::labeled("edgebench.fmt8");
        let mut op = |fmt, a: &[u8], b: &[u8], out: &mut [u8], s: Shape| {
            Some(ctx.matmul8(fmt, a, b, out, s.m, s.k, s.n))
        };
        let mut run = GemmRun::default();
        let start = Instant::now();
        loop {
            let fi = self.next_format;
            self.next_format = (fi + 1) % Format8::ALL.len();
            run.calls.extend(self.block(fi, checks, &mut op));
            run.blocks += 1;
            if start.elapsed() >= budget {
                return run;
            }
        }
    }

    /// The traced run: one round per tier and through the LUT-only
    /// kernel, the f32 ceiling, the event rates and the table builds.
    ///
    /// Returns the per-layer metrics and the traced all-MAC rate.
    pub fn trace(&mut self, checks: &mut Checks) -> (Vec<Metric>, f64) {
        let mut out = Vec::new();

        let lut_before = nga_obs::snapshot().total().lut_hits;
        let mut ctx = ArithCtx::labeled("edgebench.fmt8");
        let dflt = self.ctx_round(&mut ctx, checks);
        drop(ctx);
        let lut_hits = nga_obs::snapshot().total().lut_hits - lut_before;
        let round_macs: u64 = dflt.iter().map(|c| c.macs).sum();
        for (fi, fmt) in Format8::ALL.into_iter().enumerate() {
            out.push(Metric::new(
                format!("kernels.ctx.{}.mac_per_s", short(fmt)),
                rate(dflt.iter().filter(|c| c.format == fi)),
                "MAC/s",
            ));
        }
        out.push(Metric::new(
            "kernels.lut_hits_per_mac",
            lut_hits as f64 / round_macs as f64,
            "count",
        ));

        let mut table = ArithCtx::labeled("edgebench.fmt8.table").with_tier(KernelTier::Table);
        let t = self.ctx_round(&mut table, checks);
        drop(table);
        let mut par = ArithCtx::labeled("edgebench.fmt8.parallel").with_tier(KernelTier::Parallel);
        let p = self.ctx_round(&mut par, checks);
        drop(par);
        for (name, gemv) in [("gemm", false), ("gemv", true)] {
            out.push(Metric::new(
                format!("kernels.parallel_vs_table_x.{name}"),
                rate(p.iter().filter(|c| c.gemv == gemv))
                    / rate(t.iter().filter(|c| c.gemv == gemv)),
                "x",
            ));
        }

        // The LUT-only kernel: the table tier's serial loop without the
        // event tables.
        let lut = self.round(checks, |fmt, a, b, o, s| {
            nga_kernels::matmul8(&LutOp::new(fmt), a, b, o, s.m, s.k, s.n);
            None
        });
        out.push(Metric::new(
            "kernels.lut_only.mac_per_s",
            rate(lut.iter()),
            "MAC/s",
        ));
        out.push(Metric::new(
            "kernels.status_cost_x",
            rate(lut.iter()) / rate(t.iter()),
            "x",
        ));

        out.push(Metric::new(
            "kernels.f32_ceiling.mac_per_s",
            self.f32_ceiling(),
            "MAC/s",
        ));
        out.push(Metric::new(
            "kernels.f32_conv_gemm.mac_per_s",
            f32_conv_gemm(self.seed),
            "MAC/s",
        ));

        let pass_macs: u64 = self.layers.iter().map(|l| l.shape.macs()).sum();
        for (fi, fmt) in Format8::ALL.into_iter().enumerate() {
            let mut sum = StatusCounters::new();
            for l in &self.layers {
                sum.merge(&l.refs[fi].1);
            }
            let per_mmac = |n: u64| n as f64 / (pass_macs as f64 / 1e6);
            let f = short(fmt);
            out.push(Metric::new(
                format!("kernels.events.{f}.nar_nan_per_mmac"),
                per_mmac(sum.nar_nan()),
                "1/MMAC",
            ));
            out.push(Metric::new(
                format!("kernels.events.{f}.saturated_per_mmac"),
                per_mmac(sum.saturated()),
                "1/MMAC",
            ));
            out.push(Metric::new(
                format!("kernels.events.{f}.inexact_per_mmac"),
                per_mmac(sum.inexact()),
                "1/MMAC",
            ));
        }

        out.extend(table_builds());
        (out, rate(dflt.iter()))
    }

    /// `matmul_f32` through the default tier on the same shapes, with the
    /// posit8 operands decoded to f32.
    fn f32_ceiling(&self) -> f64 {
        let ctx = ArithCtx::labeled("edgebench.f32");
        let (mut macs, mut secs) = (0u64, 0.0);
        let dec = |codes: &[u8]| -> Vec<f32> {
            codes
                .iter()
                .map(|&c| Format8::Posit8.decode(c) as f32)
                .collect()
        };
        for l in &self.layers {
            let s = l.shape;
            let (a, b) = (dec(&l.ops[0].0), dec(&l.ops[0].1));
            let mut o = vec![0.0f32; s.m * s.n];
            let t0 = Instant::now();
            ctx.matmul_f32(&a, &b, &mut o, s.m, s.k, s.n);
            secs += t0.elapsed().as_secs_f64();
            macs += s.macs();
            std::hint::black_box(&o);
        }
        macs as f64 / secs
    }
}

/// Short format names for metric keys.
fn short(fmt: Format8) -> &'static str {
    match fmt {
        Format8::Posit8 => "posit8",
        Format8::E4m3 => "e4m3",
        Format8::E5m2 => "e5m2",
        Format8::Fixed8 => "fixed8",
    }
}

fn status_fields(s: &StatusCounters) -> [u64; 8] {
    [
        s.ops(),
        s.nar_nan(),
        s.inexact(),
        s.overflow(),
        s.underflow(),
        s.div_by_zero(),
        s.saturated(),
        s.wrapped(),
    ]
}

/// im2col + `matmul_f32` at KWS-CNN1's two convolution shapes: the f32
/// path `f32_p50_us` on kws-stream runs through.
fn f32_conv_gemm(seed: u64) -> f64 {
    // (in_ch, h, w, out_ch) with 3×3 kernels, stride 1, pad 1.
    const CONVS: [(usize, usize, usize, usize); 2] = [(1, 49, 10, 28), (28, 24, 5, 40)];
    let ctx = ArithCtx::labeled("edgebench.f32_conv");
    let mut rng = SplitMix64::new(sub_seed(seed, 98));
    let inputs: Vec<(Vec<f32>, Vec<f32>)> = CONVS
        .iter()
        .map(|&(c, h, w, oc)| {
            let x = (0..c * h * w).map(|_| rng.gaussian() as f32).collect();
            let wts = (0..oc * c * 9)
                .map(|_| rng.gaussian() as f32 * 0.1)
                .collect();
            (x, wts)
        })
        .collect();
    let mut cols = Vec::new();
    let (mut macs, mut secs) = (0u64, 0.0);
    for _ in 0..200 {
        for (&(c, h, w, oc), (x, wts)) in CONVS.iter().zip(&inputs) {
            let t0 = Instant::now();
            let (oh, ow) = nga_kernels::im2col(x, c, h, w, 3, 3, 1, 1, &mut cols);
            let mut o = vec![0.0f32; oc * oh * ow];
            ctx.matmul_f32(wts, &cols, &mut o, oc, c * 9, oh * ow);
            secs += t0.elapsed().as_secs_f64();
            macs += (oc * c * 9 * oh * ow) as u64;
            std::hint::black_box(&o);
        }
    }
    macs as f64 / secs
}

/// Build times of the tables the scalar cores reach the end-to-end
/// metrics through, via the same public builders the caches use.
fn table_builds() -> Vec<Metric> {
    let time_ms = |f: &dyn Fn()| -> f64 {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&samples).unwrap_or(f64::NAN)
    };
    let values = time_ms(&|| {
        for fmt in Format8::ALL {
            std::hint::black_box(BinaryTable::build(|a, b| fmt.mul_scalar_events(a, b).0));
            std::hint::black_box(BinaryTable::build(|a, b| fmt.add_scalar_events(a, b).0));
        }
    });
    let events = time_ms(&|| {
        for fmt in Format8::ALL {
            std::hint::black_box(BinaryTable::build(|a, b| {
                fmt.mul_scalar_events(a, b).1.bits()
            }));
            std::hint::black_box(BinaryTable::build(|a, b| {
                fmt.add_scalar_events(a, b).1.bits()
            }));
        }
    });
    let mac: Vec<f64> = ApproxMultiplier::LADDER
        .iter()
        .map(|&m| {
            let t0 = Instant::now();
            std::hint::black_box(MacTable::build(m));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    vec![
        Metric::new("kernels.table_build_ms", values, "ms"),
        Metric::new("kernels.event_table_build_ms", events, "ms"),
        Metric::new(
            "kernels.mac_table_build_ms",
            median(&mac).unwrap_or(f64::NAN),
            "ms",
        ),
    ]
}

/// Generated inputs of one seed (KWS-CNN1's layers only, to keep the
/// self-test quick), for the determinism self-test.
#[cfg(test)]
pub fn input_digest(seed: u64) -> String {
    shapes()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.model == "kws_cnn1")
        .fold(Digest::default(), |d, (i, s)| {
            operands(s, sub_seed(seed, 100 + i as u64))
                .iter()
                .fold(d, |d, (a, b)| d.bytes(a).bytes(b))
        })
        .hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_list_sums_to_each_models_mac_count() {
        let all = shapes();
        for (name, net, input) in models() {
            let of_model = || all.iter().filter(|s| s.model == name);
            let sum: u64 = of_model().map(|s| s.count as u64 * s.macs()).sum();
            assert_eq!(sum, net.mac_count(&input), "{name}");
            let layers: usize = of_model().map(|s| s.count).sum();
            let distinct: Vec<_> = of_model().map(|s| (s.m, s.k, s.n)).collect();
            let mut dedup = distinct.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), distinct.len(), "{name}: shapes are distinct");
            if name == "resnet20" {
                // Stem + 18 block convs + 2 projections + classifier.
                assert_eq!(layers, 22);
                assert_eq!(distinct.len(), 9);
            } else {
                assert_eq!(layers, 4, "{name}: two convs, two dense layers");
            }
        }
        assert!(all.iter().any(|s| (s.m, s.k, s.n) == (16, 144, 1024)));
    }
}
