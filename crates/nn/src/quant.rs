//! 8-bit linear quantization and behavioural approximate-multiplier
//! injection (the ProxSim flow of §IV).
//!
//! "We quantize weights, bias, and activations to 8 bits using linear
//! quantization. The result of f̃(x, w) is obtained by introducing the
//! behavioural simulation of a given approximate multiplier in the
//! computation." Weights are symmetric `i8`, activations asymmetric `u8`
//! with per-layer scales calibrated on sample data; every
//! multiply inside conv/fc kernels goes through an
//! [`ApproxMultiplier`] on `(|w|, activation)` magnitudes, with
//! zero-point folding and bias addition kept exact (the accumulator is a
//! plain `i32`/`f32`, as in the AxDNN-style studies the paper cites).
//!
//! Plain and depthwise convolutions quantize to the same grouped layer
//! and run one int8 conv loop; only their trace scopes (`qconv2d`,
//! `qdwconv2d`) tell them apart.

use crate::layers::{conv_out_hw, Layer, Network};
use crate::tensor::Tensor;
use nga_approx::ApproxMultiplier;

/// Asymmetric `u8` quantization parameters for activations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Step size.
    pub scale: f32,
    /// Zero point (the u8 code representing 0.0).
    pub zero: i32,
}

impl QuantParams {
    /// Derives parameters covering `[lo, hi]` (always including 0).
    #[must_use]
    pub fn from_range(lo: f32, hi: f32) -> Self {
        let lo = lo.min(0.0);
        let hi = hi.max(lo + 1e-6).max(0.0);
        let scale = (hi - lo) / 255.0;
        let zero = (-lo / scale).round() as i32;
        Self {
            scale,
            zero: zero.clamp(0, 255),
        }
    }

    /// Quantizes one value to u8.
    #[must_use]
    pub fn quantize(&self, x: f32) -> u8 {
        ((x / self.scale).round() as i32 + self.zero).clamp(0, 255) as u8
    }

    /// Dequantizes one u8 code.
    #[must_use]
    pub fn dequantize(&self, q: u8) -> f32 {
        (i32::from(q) - self.zero) as f32 * self.scale
    }
}

/// A quantized grouped convolution layer: the input channels split into
/// `groups` equal groups, each convolved with its own share of the
/// output channels. `groups == 1` is a plain convolution and one input
/// channel per group is a depthwise one.
#[derive(Debug, Clone)]
struct QConv {
    /// Weights `[out_ch, in_ch / groups, k, k]`.
    wq: Vec<i8>,
    out_ch: usize,
    k: usize,
    groups: usize,
    w_scale: f32,
    bias: Vec<f32>,
    stride: usize,
    pad: usize,
    in_q: QuantParams,
    /// Trace scope of the float layer kind this came from.
    span: &'static str,
}

/// A quantized dense layer.
#[derive(Debug, Clone)]
struct QDense {
    wq: Vec<i8>,
    out: usize,
    input: usize,
    w_scale: f32,
    bias: Vec<f32>,
    in_q: QuantParams,
}

#[derive(Debug, Clone)]
enum QLayer {
    Conv(QConv),
    Dense(QDense),
    Relu,
    MaxPool2,
    GlobalAvgPool,
    Flatten,
    Residual {
        main: Vec<QLayer>,
        shortcut: Vec<QLayer>,
    },
}

/// A fully quantized mirror of a float [`Network`], evaluable with any
/// [`ApproxMultiplier`] standing in for the MAC array's multiplier.
///
/// ```
/// use nga_nn::{layers::{Dense, Layer, Network}, quant::QuantizedNetwork, Tensor};
/// use nga_approx::ApproxMultiplier;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let net = Network { layers: vec![Layer::Dense(Dense::new(&mut rng, 4, 8))] };
/// let calib: Vec<Tensor> = vec![Tensor::from_vec(&[8], vec![0.5; 8])];
/// let q = QuantizedNetwork::from_float(&net, &calib);
/// let x = Tensor::from_vec(&[8], vec![0.25; 8]);
/// let exact = q.forward(&x, ApproxMultiplier::Exact);
/// let float = net.forward(&x);
/// for (a, b) in exact.data().iter().zip(float.data()) {
///     assert!((a - b).abs() < 0.05, "quantization error is small");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    layers: Vec<QLayer>,
}

impl QuantizedNetwork {
    /// Quantizes a float network, calibrating activation ranges on the
    /// given sample inputs.
    ///
    /// # Panics
    ///
    /// Panics if `calib` is empty.
    #[must_use]
    pub fn from_float(net: &Network, calib: &[Tensor]) -> Self {
        assert!(!calib.is_empty(), "need calibration samples");
        let (layers, _) = build(&net.layers, calib.to_vec());
        Self { layers }
    }

    /// Forward pass with the given multiplier model.
    #[must_use]
    pub fn forward(&self, x: &Tensor, m: ApproxMultiplier) -> Tensor {
        let _span = nga_obs::span("nn:qforward");
        let mut t = x.clone();
        for l in &self.layers {
            t = eval(l, &t, m);
        }
        t
    }
}

/// Recursively quantizes layers, threading calibration activations.
fn build(layers: &[Layer], mut acts: Vec<Tensor>) -> (Vec<QLayer>, Vec<Tensor>) {
    let mut out = Vec::with_capacity(layers.len());
    for layer in layers {
        let ql = match layer {
            Layer::Conv2d(c) => {
                quantize_conv(&acts, &c.weights, &c.bias, 1, c.stride, c.pad, "qconv2d")
            }
            Layer::DwConv2d(c) => {
                let ch = c.weights.shape()[0];
                quantize_conv(&acts, &c.weights, &c.bias, ch, c.stride, c.pad, "qdwconv2d")
            }
            Layer::Dense(d) => {
                let in_q = range_of(&acts);
                let (wq, w_scale) = quantize_weights(d.weights.data());
                QLayer::Dense(QDense {
                    wq,
                    out: d.weights.shape()[0],
                    input: d.weights.shape()[1],
                    w_scale,
                    bias: d.bias.data().to_vec(),
                    in_q,
                })
            }
            Layer::Relu { .. } => QLayer::Relu,
            Layer::MaxPool2 { .. } => QLayer::MaxPool2,
            Layer::GlobalAvgPool { .. } => QLayer::GlobalAvgPool,
            Layer::Flatten { .. } => QLayer::Flatten,
            Layer::Residual(r) => {
                let (main, m_acts) = build(&r.main, acts.clone());
                let (shortcut, s_acts) = build(&r.shortcut, acts.clone());
                // Propagate summed activations.
                acts = m_acts.iter().zip(&s_acts).map(|(a, b)| a.add(b)).collect();
                out.push(QLayer::Residual { main, shortcut });
                continue;
            }
        };
        // Advance calibration activations through the float layer.
        acts = acts.iter().map(|t| layer.forward(t)).collect();
        out.push(ql);
    }
    (out, acts)
}

/// Quantizes a conv layer with weights `[out, in / groups, k, k]` (a
/// depthwise `[ch, k, k]` is the same layout with one input channel per
/// group).
fn quantize_conv(
    acts: &[Tensor],
    weights: &Tensor,
    bias: &Tensor,
    groups: usize,
    stride: usize,
    pad: usize,
    span: &'static str,
) -> QLayer {
    let (wq, w_scale) = quantize_weights(weights.data());
    let s = weights.shape();
    QLayer::Conv(QConv {
        wq,
        out_ch: s[0],
        k: s[s.len() - 1],
        groups,
        w_scale,
        bias: bias.data().to_vec(),
        stride,
        pad,
        in_q: range_of(acts),
        span,
    })
}

/// Activation range over all calibration tensors.
fn range_of(acts: &[Tensor]) -> QuantParams {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for t in acts {
        let (l, h) = t.min_max();
        lo = lo.min(l);
        hi = hi.max(h);
    }
    QuantParams::from_range(lo, hi)
}

/// Symmetric i8 weight quantization; returns `(codes, scale)`.
fn quantize_weights(w: &[f32]) -> (Vec<i8>, f32) {
    let max = w.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-12);
    let scale = max / 127.0;
    let codes = w
        .iter()
        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    (codes, scale)
}

/// Records the nominal MAC count of a quantized kernel (padding taps
/// included, matching `Layer::macs`): one [`nga_kernels::MacTable`]
/// lookup plus one exact i32 add per MAC. Called once per kernel, outside
/// the parallel band region, so worker threads never touch the registry.
fn record_qmacs(macs: u64) {
    nga_obs::record(|c| {
        c.muls = c.muls.saturating_add(macs);
        c.adds = c.adds.saturating_add(macs);
        c.lut_hits = c.lut_hits.saturating_add(macs);
    });
}

/// One signed approximate MAC: `sign(w) * M(|w|, a)` — the scalar
/// reference the [`nga_kernels::mac_table`] lookup is proven against.
#[cfg(test)]
fn approx_mac(m: ApproxMultiplier, w: i8, a: u8) -> i32 {
    let p = i32::from(m.multiply(w.unsigned_abs(), a));
    if w < 0 {
        -p
    } else {
        p
    }
}

fn eval(l: &QLayer, x: &Tensor, m: ApproxMultiplier) -> Tensor {
    match l {
        QLayer::Conv(c) => {
            let _span = nga_obs::span(c.span);
            conv_forward(c, x, m)
        }
        QLayer::Dense(d) => {
            let _span = nga_obs::span("qdense");
            dense_forward(d, x, m)
        }
        QLayer::Relu => {
            let data = x.data().iter().map(|&v| v.max(0.0)).collect();
            Tensor::from_vec(x.shape(), data)
        }
        QLayer::MaxPool2 => Layer::max_pool2().forward(x),
        QLayer::GlobalAvgPool => Layer::global_avg_pool().forward(x),
        QLayer::Flatten => Layer::flatten().forward(x),
        QLayer::Residual { main, shortcut } => {
            let mut a = x.clone();
            for l in main {
                a = eval(l, &a, m);
            }
            let mut b = x.clone();
            for l in shortcut {
                b = eval(l, &b, m);
            }
            a.add(&b)
        }
    }
}

/// The one int8 convolution loop: per output channel, per output pixel,
/// the kernel window is clipped to the input once and walked over the
/// channel's group of input planes in ascending `(ic, ky, kx)` order.
fn conv_forward(c: &QConv, x: &Tensor, m: ApproxMultiplier) -> Tensor {
    let (out_ch, k) = (c.out_ch, c.k);
    let per_oc = c.wq.len() / out_ch;
    let in_ch = per_oc / (k * k);
    let (h, w) = (x.shape()[1], x.shape()[2]);
    assert_eq!(x.shape()[0], in_ch * c.groups, "channel count");
    let (oh, ow) = conv_out_hw(x.shape(), k, c.stride, c.pad);
    // Quantize the input feature map once.
    let xq: Vec<u8> = x.data().iter().map(|&v| c.in_q.quantize(v)).collect();
    let rescale = c.w_scale * c.in_q.scale;
    let mac = nga_kernels::mac_table(m);
    let npix = oh * ow;
    let oc_per_group = out_ch / c.groups;
    // Interior pixels see every kernel tap, so their Σw is the full
    // per-channel weight sum; only clipped border pixels recompute it.
    let full_wsum: Vec<i32> =
        c.wq.chunks(per_oc)
            .map(|ws| ws.iter().map(|&wv| i32::from(wv)).sum())
            .collect();
    record_qmacs((out_ch * per_oc * npix) as u64);
    let mut y = vec![0.0f32; out_ch * npix];
    nga_kernels::for_each_band(&mut y, out_ch, npix, |ocs, band| {
        for (loc, oc) in ocs.enumerate() {
            let wq = &c.wq[oc * per_oc..(oc + 1) * per_oc];
            let planes = &xq[oc / oc_per_group * in_ch * h * w..];
            let orow = &mut band[loc * npix..(loc + 1) * npix];
            let mut oidx = 0;
            for oy in 0..oh {
                let iy0 = (oy * c.stride) as isize - c.pad as isize;
                let ky_lo = (-iy0).clamp(0, k as isize) as usize;
                let ky_hi = (h as isize - iy0).clamp(0, k as isize) as usize;
                for ox in 0..ow {
                    let ix0 = (ox * c.stride) as isize - c.pad as isize;
                    let kx_lo = (-ix0).clamp(0, k as isize) as usize;
                    let kx_hi = (w as isize - ix0).clamp(0, k as isize) as usize;
                    let clipped = ky_hi - ky_lo < k || kx_hi - kx_lo < k;
                    let mut acc: i32 = 0;
                    let mut wsum: i32 = if clipped { 0 } else { full_wsum[oc] };
                    for ic in 0..in_ch {
                        let plane = &planes[ic * h * w..(ic + 1) * h * w];
                        let wch = &wq[ic * k * k..(ic + 1) * k * k];
                        for ky in ky_lo..ky_hi {
                            let ibase =
                                (iy0 + ky as isize) as usize * w + (ix0 + kx_lo as isize) as usize;
                            let wbase = ky * k + kx_lo;
                            let taps = kx_hi - kx_lo;
                            for (&wv, &av) in wch[wbase..wbase + taps]
                                .iter()
                                .zip(&plane[ibase..ibase + taps])
                            {
                                acc += mac.mac(wv, av);
                                if clipped {
                                    wsum += i32::from(wv);
                                }
                            }
                        }
                    }
                    // Zero-point folding is exact: subtract z * Σw.
                    let corrected = acc - c.in_q.zero * wsum;
                    orow[oidx] = corrected as f32 * rescale + c.bias[oc];
                    oidx += 1;
                }
            }
        }
    });
    Tensor::from_vec(&[out_ch, oh, ow], y)
}

fn dense_forward(d: &QDense, x: &Tensor, m: ApproxMultiplier) -> Tensor {
    assert_eq!(x.len(), d.input, "dense input size");
    let xq: Vec<u8> = x.data().iter().map(|&v| d.in_q.quantize(v)).collect();
    let rescale = d.w_scale * d.in_q.scale;
    let mac = nga_kernels::mac_table(m);
    record_qmacs((d.out * d.input) as u64);
    let mut y = vec![0.0f32; d.out];
    nga_kernels::for_each_band(&mut y, d.out, 1, |rows, band| {
        for (li, o) in rows.enumerate() {
            let row = &d.wq[o * d.input..(o + 1) * d.input];
            let mut acc: i32 = 0;
            let mut wsum: i32 = 0;
            for (&wv, &av) in row.iter().zip(&xq) {
                acc += mac.mac(wv, av);
                wsum += i32::from(wv);
            }
            let corrected = acc - d.in_q.zero * wsum;
            band[li] = corrected as f32 * rescale + d.bias[o];
        }
    });
    Tensor::from_vec(&[d.out], y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mac_table_matches_scalar_reference_exhaustively() {
        // Exact plus the ladder's two ends: every (w, a) pair.
        for m in [
            ApproxMultiplier::Exact,
            ApproxMultiplier::DropLsb,
            ApproxMultiplier::Trunc9,
        ] {
            let t = nga_kernels::mac_table(m);
            for w in i8::MIN..=i8::MAX {
                for a in 0..=255u8 {
                    assert_eq!(t.mac(w, a), approx_mac(m, w, a), "{m:?} w={w} a={a}");
                }
            }
        }
    }

    #[test]
    fn quant_params_round_trip_within_half_step() {
        let q = QuantParams::from_range(-2.0, 6.0);
        for i in 0..=100 {
            let x = -2.0 + 8.0 * i as f32 / 100.0;
            let back = q.dequantize(q.quantize(x));
            assert!((back - x).abs() <= q.scale / 2.0 + 1e-6, "{x} -> {back}");
        }
        // Zero is exactly representable.
        assert_eq!(q.dequantize(q.quantize(0.0)), 0.0);
    }

    #[test]
    fn weight_quantization_preserves_extremes() {
        let (codes, scale) = quantize_weights(&[-0.5, 0.25, 0.5]);
        assert_eq!(codes[0], -127);
        assert_eq!(codes[2], 127);
        assert!((scale - 0.5 / 127.0).abs() < 1e-9);
    }

    #[test]
    fn quantized_conv_with_exact_multiplier_tracks_float() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Network {
            layers: vec![
                Layer::Conv2d(Conv2d::new(&mut rng, 4, 2, 3, 1, 1)),
                Layer::relu(),
                Layer::flatten(),
                Layer::Dense(Dense::new(&mut rng, 3, 4 * 16)),
            ],
        };
        let calib: Vec<Tensor> = (0..4)
            .map(|i| {
                Tensor::from_vec(
                    &[2, 4, 4],
                    (0..32)
                        .map(|j| ((i * 7 + j) % 13) as f32 / 13.0 - 0.3)
                        .collect(),
                )
            })
            .collect();
        let q = QuantizedNetwork::from_float(&net, &calib);
        for t in &calib {
            let fy = net.forward(t);
            let qy = q.forward(t, ApproxMultiplier::Exact);
            let (_, hi) = fy.min_max();
            for (a, b) in fy.data().iter().zip(qy.data()) {
                assert!(
                    (a - b).abs() < 0.05 * hi.abs().max(1.0),
                    "float {a} vs quant {b}"
                );
            }
        }
    }

    #[test]
    fn approximate_multiplier_perturbs_but_preserves_scale() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Network {
            layers: vec![Layer::Dense(Dense::new(&mut rng, 4, 16))],
        };
        let calib = vec![Tensor::from_vec(&[16], vec![0.5; 16])];
        let q = QuantizedNetwork::from_float(&net, &calib);
        let x = Tensor::from_vec(&[16], (0..16).map(|i| i as f32 / 16.0).collect());
        let exact = q.forward(&x, ApproxMultiplier::Exact);
        let noisy = q.forward(&x, ApproxMultiplier::Trunc8);
        let mut differs = false;
        for (a, b) in exact.data().iter().zip(noisy.data()) {
            assert!((a - b).abs() < 1.0, "errors are bounded: {a} vs {b}");
            if a != b {
                differs = true;
            }
        }
        assert!(differs, "deep approximation must actually perturb outputs");
    }

    #[test]
    fn residual_blocks_quantize_recursively() {
        use crate::layers::Residual;
        let mut rng = StdRng::seed_from_u64(5);
        let net = Network {
            layers: vec![
                Layer::Residual(Residual {
                    main: vec![
                        Layer::Conv2d(Conv2d::new(&mut rng, 2, 2, 3, 1, 1)),
                        Layer::relu(),
                    ],
                    shortcut: vec![],
                }),
                Layer::global_avg_pool(),
            ],
        };
        let calib = vec![Tensor::from_vec(
            &[2, 4, 4],
            (0..32).map(|i| i as f32 / 32.0).collect(),
        )];
        let q = QuantizedNetwork::from_float(&net, &calib);
        let fy = net.forward(&calib[0]);
        let qy = q.forward(&calib[0], ApproxMultiplier::Exact);
        for (a, b) in fy.data().iter().zip(qy.data()) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }
}
