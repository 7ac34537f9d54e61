//! `kws-stream`: full-scale KWS-CNN1 (Table I row 2) classifies one
//! synthetic utterance at a time, through the f32 network and then
//! through the int8 ProxSim network with one fixed Table II multiplier.
//!
//! No layer output reaches the kernels' banding threshold here, so this
//! workload is bound by per-call overhead (allocation, clones, input
//! quantization, obs spans, the int8 MAC-table loop), not by banding.

use std::time::{Duration, Instant};

use nga_approx::ApproxMultiplier;
use nga_nn::data::Dataset;
use nga_nn::layers::Network;
use nga_nn::models::kws_cnn1;
use nga_nn::quant::QuantizedNetwork;
use nga_nn::Tensor;

use crate::checks::{same_bits, Checks, Digest};
use crate::golden::Entry;
use crate::report::Metric;
use crate::rng::sub_seed;
use crate::stats::{median, percentile};

const CLASSES: usize = 12;
const FRAMES: usize = 49;
const COEFFS: usize = 10;
/// 96 utterances, cycled; one pass over them is one round.
const PER_CLASS: usize = 8;
/// Every sixth utterance calibrates the int8 activation ranges, so all
/// twelve classes are covered.
const CALIB_STRIDE: usize = 6;
/// The fixed Table II multiplier of the int8 path (one 256 KiB MAC
/// table, which fits in L2).
pub const MULTIPLIER: ApproxMultiplier = ApproxMultiplier::Mitchell;
/// Layers whose achieved MAC rate the traced run reports.
const RATE_LAYERS: [usize; 4] = [0, 3, 7, 9];
/// Tolerance of the golden f32 logits: an f32 accumulation may be
/// reordered by a later change; a different computation fails.
const F32_REL_TOL: f64 = 1e-4;
const F32_ABS_TOL: f64 = 1e-5;
/// Utterances whose f32 logits are recorded in the golden file.
const GOLDEN_LOGIT_UTTERANCES: usize = 8;

pub struct Kws {
    net: Network,
    qnet: QuantizedNetwork,
    calib: Vec<Tensor>,
    utterances: Vec<Tensor>,
    /// Warm-up outputs `(f32, int8)` per utterance.
    refs: Vec<(Tensor, Tensor)>,
}

/// Latencies of a run.
///
/// Only the p90s are reported, not the medians. On a shared host this
/// code's speed switches between two levels (1.5× apart for f32, 1.9× for
/// int8 on the one this was tuned on) many times a second, and the share
/// of time at the slow level drifts between about a third and most of it
/// over minutes. The slow level is present at every share, so a p90 sits
/// in it and moves little (10–12 % between periods); a median sits between
/// the two levels and follows the share (up to 1.4× between periods).
#[derive(Debug, Default)]
pub struct KwsRun {
    f32_us: Vec<f64>,
    int8_us: Vec<f64>,
    secs: f64,
}

impl KwsRun {
    pub fn merge(&mut self, other: Self) {
        self.f32_us.extend(other.f32_us);
        self.int8_us.extend(other.int8_us);
        self.secs += other.secs;
    }

    /// Utterances through both paths per second, over the whole run.
    pub fn rate(&self) -> Option<f64> {
        (self.secs > 0.0).then(|| self.f32_us.len() as f64 / self.secs)
    }

    pub fn metrics(&self) -> Vec<(&'static str, Option<f64>, &'static str)> {
        vec![
            ("f32_p90_us", percentile(&self.f32_us, 0.9), "us"),
            ("int8_p90_us", percentile(&self.int8_us, 0.9), "us"),
        ]
    }

    pub fn samples(&self) -> usize {
        self.f32_us.len()
    }

    /// Wall time of the timed rounds, checks included.
    pub fn secs(&self) -> f64 {
        self.secs
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Kws {
    /// Builds the data and the model, quantizes it, and makes the first
    /// cold call on each path (which builds the MAC table).
    pub fn setup(seed: u64) -> Self {
        let net = kws_cnn1(CLASSES, sub_seed(seed, 1));
        let data = Dataset::synth_speech(CLASSES, PER_CLASS, FRAMES, COEFFS, sub_seed(seed, 2));
        let utterances: Vec<Tensor> = (0..data.len()).map(|i| data.sample(i).0).collect();
        let calib: Vec<Tensor> = utterances.iter().step_by(CALIB_STRIDE).cloned().collect();
        let qnet = QuantizedNetwork::from_float(&net, &calib);
        std::hint::black_box(net.forward(&utterances[0]));
        std::hint::black_box(qnet.forward(&utterances[0], MULTIPLIER));
        Self {
            net,
            qnet,
            calib,
            utterances,
            refs: Vec::new(),
        }
    }

    /// The reference pass: the outputs every timed request must
    /// reproduce, and the entries pinned in the golden file.
    pub fn warm_up(&mut self) -> Vec<Entry> {
        self.refs = self
            .utterances
            .iter()
            .map(|x| (self.net.forward(x), self.qnet.forward(x, MULTIPLIER)))
            .collect();
        let int8 = self
            .refs
            .iter()
            .fold(Digest::default(), |d, (_, q)| d.f32s(q.data()));
        let top1: String = self
            .refs
            .iter()
            .map(|(f, _)| char::from_digit(f.argmax() as u32, 36).unwrap_or('?'))
            .collect();
        let logits: Vec<f64> = self.refs[..GOLDEN_LOGIT_UTTERANCES]
            .iter()
            .flat_map(|(f, _)| f.data().iter().map(|&v| f64::from(v)))
            .collect();
        vec![
            Entry::exact("kws.int8.logits_digest", int8.hex()),
            Entry::exact("kws.f32.top1", top1),
            Entry::close("kws.f32.logits", logits, F32_REL_TOL, F32_ABS_TOL),
        ]
    }

    /// Closed loop, one client: utterance after utterance, f32 then int8,
    /// in rounds of one pass over the utterances, until `budget` is spent.
    pub fn run(&self, budget: Duration, checks: &mut Checks) -> KwsRun {
        let mut run = KwsRun::default();
        let start = Instant::now();
        while start.elapsed() < budget {
            for (i, (x, (rf, rq))) in self.utterances.iter().zip(&self.refs).enumerate() {
                let t0 = Instant::now();
                let f = self.net.forward(x);
                let t1 = Instant::now();
                let q = self.qnet.forward(x, MULTIPLIER);
                let t2 = Instant::now();
                run.f32_us.push(us(t1 - t0));
                run.int8_us.push(us(t2 - t1));
                checks.check(same_bits(f.data(), rf.data()), || {
                    format!("kws: f32 logits of utterance {i} differ from warm-up")
                });
                checks.check(same_bits(q.data(), rq.data()), || {
                    format!("kws: int8 logits of utterance {i} differ from warm-up")
                });
            }
        }
        run.secs = start.elapsed().as_secs_f64();
        run
    }

    /// The traced run: every layer called on its own, timed, and the
    /// chains checked against the whole-network outputs.
    ///
    /// Returns the per-layer metrics and the traced utterance rate.
    pub fn trace(&self, rounds: usize, checks: &mut Checks) -> (Vec<Metric>, f64) {
        let layers = &self.net.layers;
        // One-layer int8 networks, each calibrated on the float
        // activations entering its layer, as the whole network is.
        let mut acts = self.calib.clone();
        let singles: Vec<QuantizedNetwork> = layers
            .iter()
            .map(|l| {
                let one = Network {
                    layers: vec![l.clone()],
                };
                let q = QuantizedNetwork::from_float(&one, &acts);
                acts = acts.iter().map(|t| l.forward(t)).collect();
                q
            })
            .collect();

        let mut f32_us = vec![Vec::new(); layers.len()];
        let mut int8_us = vec![Vec::new(); layers.len()];
        let mut total = Duration::ZERO;
        for _ in 0..rounds {
            for (i, (x, (rf, rq))) in self.utterances.iter().zip(&self.refs).enumerate() {
                let mut t = x.clone();
                for (l, times) in layers.iter().zip(&mut f32_us) {
                    let t0 = Instant::now();
                    t = l.forward(&t);
                    let d = t0.elapsed();
                    total += d;
                    times.push(us(d));
                }
                checks.check(same_bits(t.data(), rf.data()), || {
                    format!("kws trace: chained f32 layers differ from Network::forward (utterance {i})")
                });
                let mut t = x.clone();
                for (q, times) in singles.iter().zip(&mut int8_us) {
                    let t0 = Instant::now();
                    t = q.forward(&t, MULTIPLIER);
                    let d = t0.elapsed();
                    total += d;
                    times.push(us(d));
                }
                checks.check(same_bits(t.data(), rq.data()), || {
                    format!("kws trace: chained one-layer int8 networks differ from the whole network (utterance {i})")
                });
            }
        }

        let mut out = Vec::new();
        let mut shape = vec![1, FRAMES, COEFFS];
        let mut macs = Vec::new();
        for l in layers {
            let (m, s) = l.macs(&shape);
            macs.push(m);
            shape = s;
        }
        for (path, times) in [("f32", &f32_us), ("int8", &int8_us)] {
            for (i, l) in layers.iter().enumerate() {
                let name = format!("nn.{path}.L{i}_{}", l.kind());
                let self_us = median(&times[i]).unwrap_or(f64::NAN);
                out.push(Metric::new(format!("{name}.self_us"), self_us, "us"));
                if RATE_LAYERS.contains(&i) {
                    out.push(Metric::new(
                        format!("{name}.mac_per_s"),
                        macs[i] as f64 / (self_us * 1e-6),
                        "MAC/s",
                    ));
                }
            }
        }

        // Program spans opened per utterance (both paths), from nga-obs.
        let x = &self.utterances[0];
        let before = nga_obs::snapshot().total().calls;
        std::hint::black_box(self.net.forward(x));
        std::hint::black_box(self.qnet.forward(x, MULTIPLIER));
        let spans = nga_obs::snapshot().total().calls - before;
        out.push(Metric::new("nn.spans_per_utterance", spans as f64, "count"));
        out.push(Metric::new("obs.span_ns", span_ns(), "ns"));

        let quantize_ms: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(QuantizedNetwork::from_float(&self.net, &self.calib));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.push(Metric::new(
            "nn.quantize_ms",
            median(&quantize_ms).unwrap_or(f64::NAN),
            "ms",
        ));

        let traced_rate = (rounds * self.utterances.len()) as f64 / total.as_secs_f64();
        (out, traced_rate)
    }
}

/// One `nga_obs::span` open and close, in ns: median over batches, with
/// the registry already holding the probe's scope (its steady size).
fn span_ns() -> f64 {
    const BATCH: u32 = 2000;
    let per_batch: Vec<f64> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                drop(std::hint::black_box(nga_obs::span("edgebench.span_probe")));
            }
            t0.elapsed().as_secs_f64() * 1e9 / f64::from(BATCH)
        })
        .collect();
    median(&per_batch[1..]).unwrap_or(f64::NAN)
}

/// Generated inputs of one seed, for the determinism self-test.
#[cfg(test)]
pub fn input_digest(seed: u64) -> String {
    let k = Kws::setup(seed);
    let d = k
        .utterances
        .iter()
        .fold(Digest::default(), |d, x| d.f32s(x.data()));
    let w = k.net.layers.iter().fold(d, |d, l| match l {
        nga_nn::layers::Layer::Conv2d(c) => d.f32s(c.weights.data()),
        nga_nn::layers::Layer::Dense(x) => d.f32s(x.weights.data()),
        _ => d,
    });
    w.hex()
}
