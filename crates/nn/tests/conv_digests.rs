//! Bit-exact pins for the convolution paths: plain, strided and depthwise
//! (grouped) convolutions, in the f32 forward, the int8 ProxSim forward
//! and one training step.
//!
//! Each test pins three FNV-1a digests over IEEE bit patterns: the f32
//! forward output, the int8 outputs under three multipliers, and the
//! input gradients of two SGD steps followed by every parameter after
//! them. Any change to accumulation order, zero-gradient skipping or
//! border clipping shows up as a mismatch. The expected values were
//! recorded from the separate plain and depthwise loops, before both
//! layer kinds shared one grouped convolution; a refactor of the layers
//! must keep all of them.

use nga_approx::ApproxMultiplier;
use nga_nn::layers::{Conv2d, Dense, DwConv2d, Layer, Network};
use nga_nn::models::{ds_cnn, kws_cnn1, resnet_mini};
use nga_nn::quant::QuantizedNetwork;
use nga_nn::train::softmax_xent;
use nga_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the bit patterns of a sequence of f32 values.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn f32s(mut self, xs: &[f32]) -> Self {
        for x in xs {
            for b in x.to_bits().to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
        self
    }

    fn params(self, layers: &[Layer]) -> Self {
        layers.iter().fold(self, |d, l| match l {
            Layer::Conv2d(c) => d.f32s(c.weights.data()).f32s(c.bias.data()),
            Layer::DwConv2d(c) => d.f32s(c.weights.data()).f32s(c.bias.data()),
            Layer::Dense(c) => d.f32s(c.weights.data()).f32s(c.bias.data()),
            Layer::Residual(r) => d.params(&r.main).params(&r.shortcut),
            _ => d,
        })
    }
}

/// Deterministic input in roughly `[-1, 1)`, with exact zeros mixed in so
/// padded and skipped taps are exercised.
fn input(shape: &[usize], seed: u64) -> Tensor {
    let n: usize = shape.iter().product();
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let data = (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if i % 7 == 3 {
                0.0
            } else {
                (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            }
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// `[f32, int8, train]` digests of `net` on inputs of `shape`.
fn digests(mut net: Network, shape: &[usize], classes: usize) -> [u64; 3] {
    let calib: Vec<Tensor> = (0..4).map(|i| input(shape, 100 + i)).collect();
    let x = input(shape, 7);
    let f32_out = Digest::new().f32s(net.forward(&x).data());
    let q = QuantizedNetwork::from_float(&net, &calib);
    let int8_out = [
        ApproxMultiplier::Exact,
        ApproxMultiplier::Trunc8,
        ApproxMultiplier::Mitchell,
    ]
    .into_iter()
    .fold(Digest::new(), |d, m| d.f32s(q.forward(&x, m).data()));
    let mut train = Digest::new();
    for (i, sample) in calib.iter().take(2).enumerate() {
        let logits = net.forward_train(sample);
        let (_, mut g) = softmax_xent(&logits, i % classes);
        for l in net.layers.iter_mut().rev() {
            g = l.backward(&g).expect("forward_train filled the caches");
        }
        train = train.f32s(g.data());
        net.step(0.05, 0.9);
    }
    [f32_out.0, int8_out.0, train.params(&net.layers).0]
}

/// Compares digests as one hex string, so a failure prints the new pin.
fn check(got: [u64; 3], want: &str) {
    let got = got.map(|d| format!("{d:016x}")).join(" ");
    assert_eq!(got, want, "[f32, int8, train] digests changed");
}

#[test]
fn ds_cnn_depthwise_digests_are_pinned() {
    let got = digests(ds_cnn(6, 8, 2, 11), &[1, 15, 10], 6);
    check(got, "82247ecb98a6b1de 249a64ca5e663c54 6bf74ec8000be85c");
}

#[test]
fn kws_cnn1_digests_are_pinned() {
    let got = digests(kws_cnn1(12, 2), &[1, 49, 10], 12);
    check(got, "9d1a75ff4ad8f42a 3ba47bc2efcfab57 f7a6f7a4df29411c");
}

#[test]
fn resnet_mini_digests_are_pinned() {
    let got = digests(resnet_mini(4, 10, 3), &[3, 12, 12], 10);
    check(got, "b4d7d4cd75380886 65a5d84c999030df 2f2755336db6ae08");
}

/// Strided and wide-kernel depthwise layers on an odd-sized map, where
/// most output pixels see a clipped window.
#[test]
fn strided_depthwise_digests_are_pinned() {
    let mut rng = StdRng::seed_from_u64(9);
    let net = Network {
        layers: vec![
            Layer::Conv2d(Conv2d::new(&mut rng, 6, 2, 3, 2, 1)),
            Layer::relu(),
            Layer::DwConv2d(DwConv2d::new(&mut rng, 6, 5, 2, 2)),
            Layer::relu(),
            Layer::DwConv2d(DwConv2d::new(&mut rng, 6, 3, 1, 0)),
            Layer::global_avg_pool(),
            Layer::Dense(Dense::new(&mut rng, 4, 6)),
        ],
    };
    let got = digests(net, &[2, 13, 11], 4);
    check(got, "6937df777b889924 983c48aad7173c0d 75b08b362b33979d");
}
