//! `apots-nn` layers timed on their own at the Fast-preset H shapes of
//! the training workload's dataset (5 roads and α = 12 with the default
//! configs): the first conv (6 → 12 channels, 3×3) over the
//! `[b, 6, roads, α]` image, the first LSTM (12·roads inputs, 32 hidden,
//! α steps) and the readout Dense (36 → 1). Batch 64 forward and
//! backward is what a training step runs; batch 1 and 2 forward
//! (evaluation mode) is what a serving micro-batch on nproc = 2
//! connections runs.

use std::time::Instant;

use apots::config::HyperPreset;
use apots::encode::IMAGE_CHANNELS;
use apots_nn::{Conv2d, Dense, Layer, Lstm};
use apots_tensor::rng::{normal, seeded};
use apots_tensor::Tensor;

use crate::report::Outcome;
use crate::stats::median;
use crate::train::TrainSpec;

fn random(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = seeded(seed);
    Tensor::build(shape, |d| {
        d.iter_mut().for_each(|v| *v = normal(&mut rng, 0.0, 1.0))
    })
}

/// Median microseconds per call of `f` over `iters` calls.
fn median_us(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// One layer at one input shape: forward, and optionally backward.
fn time_layer(
    out: &mut Outcome,
    name: &str,
    layer: &mut dyn Layer,
    input: &Tensor,
    backward: bool,
    iters: usize,
) {
    let batch = input.shape()[0];
    if backward {
        let fwd = median_us(iters, || {
            std::hint::black_box(layer.forward(input, true));
        });
        let grad = random(layer.forward(input, true).shape(), 99);
        let bwd = median_us(iters, || {
            layer.forward(input, true);
            std::hint::black_box(layer.backward(&grad));
        }) - fwd;
        out.metric(&format!("nn.{name}_fwd_us"), fwd, "us", Some(iters));
        out.metric(&format!("nn.{name}_bwd_us"), bwd, "us", Some(iters));
    } else {
        let fwd = median_us(iters, || {
            std::hint::black_box(layer.forward(input, false));
        });
        out.metric(
            &format!("nn.{name}_fwd_b{batch}_us"),
            fwd,
            "us",
            Some(iters),
        );
    }
}

/// Times every layer at the training and serving shapes, with the roads
/// and window length α taken from the training workload's dataset.
pub fn probe(seed: u64) -> Outcome {
    let data = TrainSpec::for_seed(seed).dataset();
    let roads = data.corridor().n_roads();
    let alpha = data.config().alpha;
    let hyper = HyperPreset::Fast.resolve();
    let mut rng = seeded(crate::derive_seed(seed, 31));
    let f0 = hyper.conv_filters[0];
    let step_width = hyper.conv_filters[2] * roads;
    let hidden = hyper.lstm_hidden[0];
    let mut conv = Conv2d::new(IMAGE_CHANNELS, f0, 3, 3, &mut rng);
    let mut lstm = Lstm::new(step_width, hidden, true, &mut rng);
    let mut dense = Dense::new(hyper.lstm_hidden[1] + 4, 1, &mut rng);

    let mut out = Outcome::default();
    for (batch, backward, iters) in [(64, true, 60), (1, false, 600), (2, false, 600)] {
        let image = random(&[batch, IMAGE_CHANNELS, roads, alpha], 1);
        let seq = random(&[batch, alpha, step_width], 2);
        let head = random(&[batch, hyper.lstm_hidden[1] + 4], 3);
        time_layer(&mut out, "conv2d", &mut conv, &image, backward, iters);
        time_layer(&mut out, "lstm", &mut lstm, &seq, backward, iters);
        time_layer(&mut out, "dense", &mut dense, &head, backward, iters);
    }
    out
}
