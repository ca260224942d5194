//! `train-h-adv`: the Hybrid predictor at the Fast preset, trained
//! adversarially (discriminator stepping from the first epoch) on a
//! seeded corridor dataset.
//!
//! One operation is a *training run*: fresh seeded parameters trained
//! for [`TrainSpec::epochs`] epochs. Runs repeat until the time budget is
//! spent; every run must reproduce the same final parameters and MSE (and
//! the pinned golden when the seed has one), with `d_loss > 0` in every
//! epoch.

use std::cell::RefCell;
use std::time::Instant;

use apots::config::{HyperPreset, PredictorKind, TrainConfig};
use apots::encode::{encode_context, encode_inputs};
use apots::predictor::{build_predictor, Predictor};
use apots::runtime::{BatchCtx, TrainOptions};
use apots::trainer::{build_discriminator, train_with_options, TrainReport};
use apots_nn::loss::{bce_with_logits, generator_loss_saturating};
use apots_nn::optim::{clip_global_norm, Adam, Optimizer};
use apots_tensor::rng::seeded;
use apots_tensor::Tensor;
use apots_traffic::calendar::Calendar;
use apots_traffic::{Corridor, DataConfig, FeatureMask, SimConfig, TrafficDataset};

use crate::calib::{HostSpeed, Work};
use crate::goldens::{self, TrainGolden};
use crate::report::Outcome;
use crate::stats::{median, samples_needed, Fnv, Summary};
use crate::timed::TimedPredictor;
use crate::{derive_seed, Budget};

/// Tail percentile reported for step latency.
pub const STEP_TAIL_P: f64 = 75.0;
/// Set-ups per run (the median is reported).
const SETUPS: usize = 11;
/// Share of step wall time the named per-step parts must account for in
/// a full traced run.
const NAMED_SHARE_MIN: f64 = 0.95;

/// Everything that defines one training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Workload seed.
    pub seed: u64,
    /// Epochs per training run.
    pub epochs: usize,
    /// Samples per epoch (a multiple of the batch size).
    pub samples: usize,
    /// Mini-batch size.
    pub batch: usize,
}

impl TrainSpec {
    /// The workload's training run for `seed`.
    pub fn for_seed(seed: u64) -> Self {
        TrainSpec {
            seed,
            epochs: 1,
            samples: 256,
            batch: 64,
        }
    }

    /// A small run for tests and foreign-workload probes.
    pub fn tiny(seed: u64) -> Self {
        TrainSpec {
            samples: 64,
            batch: 32,
            ..Self::for_seed(seed)
        }
    }

    /// The seeded corridor dataset: 7 days starting on a Sunday, day 3 a
    /// holiday.
    pub fn dataset(&self) -> TrafficDataset {
        let sim = SimConfig {
            seed: derive_seed(self.seed, 1),
            ..SimConfig::default()
        };
        let cal = Calendar::new(7, 6, vec![3]);
        TrafficDataset::new(
            Corridor::generate_with_calendar(sim, cal),
            DataConfig {
                seed: derive_seed(self.seed, 2),
                ..DataConfig::default()
            },
        )
    }

    /// Adversarial training with the warm-up turned off, so every epoch
    /// steps the discriminator.
    pub fn config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            adv_warmup_epochs: 0,
            max_train_samples: Some(self.samples),
            batch_size: self.batch,
            seed: derive_seed(self.seed, 4),
            ..TrainConfig::fast_adversarial(FeatureMask::BOTH)
        }
    }

    /// Freshly initialized H at the Fast preset.
    pub fn predictor(&self, data: &TrafficDataset) -> Box<dyn Predictor> {
        build_predictor(
            PredictorKind::Hybrid,
            HyperPreset::Fast,
            data,
            derive_seed(self.seed, 3),
        )
    }

    /// Optimizer steps in one training run.
    pub fn steps_per_rep(&self) -> usize {
        self.epochs * self.samples.div_ceil(self.batch)
    }
}

/// FNV-1a over every parameter's f32 bits, in `params_mut` order.
pub fn params_fnv(p: &mut dyn Predictor) -> u64 {
    let mut h = Fnv::default();
    for param in p.params_mut() {
        for v in param.value.data() {
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

/// The checked result of one training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepResult {
    /// [`params_fnv`] of the trained predictor.
    pub params_fnv: u64,
    /// Bits of the final epoch's MSE.
    pub mse_bits: u32,
}

/// One training run: its result, per-step wall times and report.
pub struct Rep {
    /// The checked result.
    pub result: RepResult,
    /// Wall time of each optimizer step, seconds.
    pub step_secs: Vec<f64>,
    /// Wall time of the whole run, seconds.
    pub secs: f64,
    /// The trainer's report.
    pub report: TrainReport,
}

/// Trains `p` for one run of `spec`, timing each step through the
/// trainer's per-batch hook (called before every batch; it never
/// poisons anything). With `speed`, the hook also takes the host-speed
/// reference samples the steps so far call for; their time is left out
/// of the step and run times.
pub fn run_rep(
    spec: &TrainSpec,
    data: &TrafficDataset,
    cfg: &TrainConfig,
    p: &mut dyn Predictor,
    mut speed: Option<&mut HostSpeed>,
) -> Result<Rep, String> {
    // (hook entered, hook left) for every batch.
    let marks = RefCell::new(Vec::<(Instant, Instant)>::with_capacity(
        spec.steps_per_rep(),
    ));
    let t0 = Instant::now();
    let report = {
        let mut options = TrainOptions {
            poison_hook: Some(Box::new(|_: BatchCtx| {
                let entered = Instant::now();
                if let Some(s) = speed.as_deref_mut() {
                    let since = marks.borrow().last().map_or(t0, |m| m.1);
                    s.maybe((entered - since).as_secs_f64());
                }
                marks.borrow_mut().push((entered, Instant::now()));
                false
            })),
            ..TrainOptions::default()
        };
        train_with_options(p, data, cfg, &mut options)
            .map_err(|e| format!("training failed: {e}"))?
    };
    let end = Instant::now();
    let marks = marks.into_inner();
    let step_secs = marks
        .iter()
        .enumerate()
        .map(|(i, &(_, left))| (marks.get(i + 1).map_or(end, |m| m.0) - left).as_secs_f64())
        .collect();
    let sampling: f64 = marks.iter().map(|&(e, l)| (l - e).as_secs_f64()).sum();
    if let (Some(s), Some(&(_, left))) = (speed, marks.last()) {
        s.count((end - left).as_secs_f64());
    }
    let mse = report.final_mse().ok_or("training ran no epochs")?;
    Ok(Rep {
        result: RepResult {
            params_fnv: params_fnv(p),
            mse_bits: mse.to_bits(),
        },
        step_secs,
        secs: (end - t0).as_secs_f64() - sampling,
        report,
    })
}

/// Checks one run: the discriminator stepped in every epoch, the run
/// matches the first run of this process and the pinned golden.
fn check_rep(rep: &Rep, first: Option<RepResult>, golden: Option<TrainGolden>) -> Option<String> {
    if let Some(e) = rep
        .report
        .epochs
        .iter()
        .position(|e| !(e.d_loss > 0.0 && e.d_loss.is_finite()))
    {
        return Some(format!(
            "epoch {e}: d_loss is {}",
            rep.report.epochs[e].d_loss
        ));
    }
    if rep.report.divergence_rollbacks > 0 {
        return Some("divergence sentinel rolled back an epoch".into());
    }
    if let Some(first) = first {
        if rep.result != first {
            return Some(format!(
                "run differs from the first run: {:?} vs {first:?}",
                rep.result
            ));
        }
    }
    if let Some(g) = golden {
        if rep.result.params_fnv != g.params_fnv || rep.result.mse_bits != g.mse_bits {
            return Some(format!(
                "golden mismatch: params {:#018x} mse {:#010x}, pinned {:#018x} {:#010x}",
                rep.result.params_fnv, rep.result.mse_bits, g.params_fnv, g.mse_bits
            ));
        }
    }
    None
}

/// One set-up: dataset, model, and a one-step adversarial warm-up that
/// spawns the pool and fills the workspace arena.
fn setup(spec: &TrainSpec) -> TrafficDataset {
    let data = spec.dataset();
    let warm = TrainConfig {
        epochs: 1,
        max_train_samples: Some(spec.batch),
        ..spec.config()
    };
    let mut p = spec.predictor(&data);
    train_with_options(p.as_mut(), &data, &warm, &mut TrainOptions::default())
        .expect("warm-up training");
    data
}

/// Runs the untraced workload: end-to-end metrics at the nominal host
/// speed (see [`crate::calib`]).
pub fn run(seed: u64, budget: Budget, started: Instant) -> Outcome {
    let spec = TrainSpec::for_seed(seed);
    let mut out = Outcome::default();
    let mut speed = HostSpeed::new(Work::ComputeAndWakeups);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut data = None;
    for i in 0..SETUPS {
        let t0 = if i == 0 { started } else { Instant::now() };
        data = Some(setup(&spec));
        let secs = t0.elapsed().as_secs_f64();
        setups.push(secs);
        speed.maybe(secs);
    }
    let data = data.expect("at least one set-up");
    let (fs, note) = speed.end_phase("set-up");
    out.note(note);
    let cfg = spec.config();
    let golden = goldens::train(seed);

    let mut first = None;
    // Every training run's time and step times, with the reference
    // samples taken during it.
    let mut reps: Vec<(f64, Vec<f64>, (usize, usize))> = Vec::new();
    // Training runs whose steps support the p75 tail.
    let need = samples_needed(STEP_TAIL_P).div_ceil(spec.steps_per_rep());
    let t0 = Instant::now();
    while !budget.done(t0, reps.len() >= need) {
        let mut p = spec.predictor(&data);
        let from = speed.mark();
        match run_rep(&spec, &data, &cfg, p.as_mut(), Some(&mut speed)) {
            Ok(rep) => {
                out.check(check_rep(&rep, first, golden));
                first.get_or_insert(rep.result);
                reps.push((rep.secs, rep.step_secs, (from, speed.mark())));
            }
            Err(e) => out.check(Some(e)),
        }
    }
    if reps.len() < need {
        out.error(format!(
            "only {} training runs in the time cap; {need} needed",
            reps.len()
        ));
        return out;
    }
    // Each training run scaled by the host's speed around it.
    let (mut secs, mut scaled_secs) = (Vec::new(), Vec::new());
    let (mut steps, mut scaled_steps) = (Vec::new(), Vec::new());
    for (rep_secs, step_secs, (from, to)) in &reps {
        let f = speed.local_factor(*from, *to);
        secs.push(*rep_secs);
        scaled_secs.push(rep_secs * f);
        steps.extend(step_secs.iter().copied());
        scaled_steps.extend(step_secs.iter().map(|s| s * f));
    }
    let (_, note) = speed.end_phase("measurement");
    out.note(note);
    let raw = Summary::of(&steps, STEP_TAIL_P);
    let s = Summary::of(&scaled_steps, STEP_TAIL_P);
    let per_rep = (spec.epochs * spec.samples) as f64;
    out.note(format!(
        "as measured: setup {:.4} s, {:.2} samples/s, step p50 {:.2} ms, p{STEP_TAIL_P} {:.2} ms",
        median(&setups),
        per_rep / median(&secs),
        raw.p50 * 1e3,
        raw.tail * 1e3
    ));
    out.metric("setup_s", median(&setups) * fs, "s", Some(SETUPS));
    // Samples per second of the median training run.
    out.metric(
        "throughput_per_s",
        per_rep / median(&scaled_secs),
        "1/s",
        Some(reps.len()),
    );
    out.metric("op_p50_ms", s.p50 * 1e3, "ms", Some(s.n));
    out.metric("op_tail_ms", s.tail * 1e3, "ms", Some(s.n));
    out
}

/// Replays the workload's batches through the public trainer pieces the
/// adversarial step calls besides `P`: input and context encoding, the
/// discriminator update and adversarial pass, gradient clipping and Adam.
/// Returns per-step seconds for (encode, d_step, adam, clip).
fn replay(spec: &TrainSpec, data: &TrafficDataset, steps: usize) -> (f64, f64, f64, f64) {
    let cfg = spec.config();
    let alpha = data.config().alpha;
    let mut rng = seeded(cfg.seed);
    let mut batches = data.train_batches(cfg.batch_size, &mut rng);
    batches.truncate(spec.samples.div_ceil(spec.batch));
    let mut p = spec.predictor(data);
    let mut disc = build_discriminator(data, &cfg);
    let mut p_opt = Adam::new(cfg.learning_rate);
    let mut d_opt = Adam::new(cfg.learning_rate);
    // Populate P's gradients once so clipping and Adam see real tensors.
    {
        let (input, targets) = encode_inputs(p.kind(), data, &batches[0], cfg.mask);
        let out = p.forward(&input, true);
        let (_, g) = apots_nn::loss::mse(&out, &targets);
        p.backward(&g);
    }
    let (mut encode, mut d_step, mut adam, mut clip) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..steps {
        let batch = &batches[i % batches.len()];
        let b = batch.len();

        let t = Instant::now();
        for _pass in 0..2 {
            for k in 0..alpha {
                let w: Vec<usize> = batch.iter().map(|&t| t - (alpha - 1 - k)).collect();
                std::hint::black_box(encode_inputs(p.kind(), data, &w, cfg.mask));
            }
        }
        let (real_seq, cond) = encode_context(data, batch, cfg.mask);
        encode += t.elapsed().as_secs_f64();

        // The fake sequence has the real one's shape; values do not
        // change the cost of a dense stack.
        let t = Instant::now();
        let seq_all = Tensor::build(&[2 * b, alpha], |d| {
            d[..b * alpha].copy_from_slice(real_seq.data());
            d[b * alpha..].copy_from_slice(real_seq.data());
        });
        let cw = cond.cols();
        let cond_all = Tensor::build(&[2 * b, cw], |d| {
            d[..b * cw].copy_from_slice(cond.data());
            d[b * cw..].copy_from_slice(cond.data());
        });
        let labels = Tensor::build(&[2 * b, 1], |d| d[..b].fill(1.0));
        let logits = disc.forward(&seq_all, &cond_all, true);
        let (_, dgrad) = bce_with_logits(&logits, &labels);
        let _ = disc.backward(&dgrad);
        let logits_fake = disc.forward(&real_seq, &cond, true);
        let (_, mut dlogits) = generator_loss_saturating(&logits_fake);
        dlogits.scale_in_place(cfg.adv_weight);
        std::hint::black_box(disc.backward(&dlogits));
        d_step += t.elapsed().as_secs_f64();

        let t = Instant::now();
        clip_global_norm(&mut disc.params_mut(), cfg.grad_clip);
        clip_global_norm(&mut p.params_mut(), cfg.grad_clip);
        clip += t.elapsed().as_secs_f64();

        let t = Instant::now();
        d_opt.step(disc.params_mut());
        p_opt.step(p.params_mut());
        adam += t.elapsed().as_secs_f64();
    }
    let n = steps.max(1) as f64;
    (encode / n, d_step / n, adam / n, clip / n)
}

/// Forward multiply–accumulates per sample of H at the Fast preset,
/// computed from the layer shapes (conv towers with "same" padding, two
/// LSTM layers over α steps, the readout).
pub fn h_forward_macs(data: &TrafficDataset) -> f64 {
    let hyper = HyperPreset::Fast.resolve();
    let roads = data.corridor().n_roads() as f64;
    let alpha = data.config().alpha as f64;
    let [f0, f1, f2] = hyper.conv_filters.map(|f| f as f64);
    let channels = apots::encode::IMAGE_CHANNELS as f64;
    let pixels = roads * alpha;
    let conv = pixels * (channels * 9.0 * f0 + f0 * f1 + f1 * 9.0 * f2);
    let [h0, h1] = hyper.lstm_hidden.map(|h| h as f64);
    let lstm = alpha * ((f2 * roads + h0) * 4.0 * h0 + (h0 + h1) * 4.0 * h1);
    conv + lstm + (h1 + 4.0)
}

/// Traced training: runs the workload for the budget with counters on
/// and `P` wrapped, then replays the other step parts.
pub fn trace(seed: u64, budget: Budget, full: bool) -> Outcome {
    let spec = if full {
        TrainSpec::for_seed(seed)
    } else {
        TrainSpec::tiny(seed)
    };
    let mut out = Outcome::default();
    let data = setup(&spec);
    let cfg = spec.config();
    let golden = if full { goldens::train(seed) } else { None };

    // Untraced runs first: the reference for the tracing overhead and for
    // the traced run's checksums.
    let mut untraced = (0.0, 0usize);
    let mut first = None;
    let t0 = Instant::now();
    while !budget.half().done(t0, untraced.1 > 0) {
        let mut p = spec.predictor(&data);
        match run_rep(&spec, &data, &cfg, p.as_mut(), None) {
            Ok(rep) => {
                out.check(check_rep(&rep, first, golden));
                first.get_or_insert(rep.result);
                untraced.0 += rep.secs;
                untraced.1 += rep.step_secs.len();
            }
            Err(e) => out.check(Some(e)),
        }
    }

    apots_obs::enable(None);
    // Totals over the traced runs: (steps, wall, P forward, P backward).
    let (mut steps, mut wall, mut p_fwd, mut p_bwd) = (0usize, 0.0, 0.0, 0.0);
    let t0 = Instant::now();
    while !budget.half().done(t0, steps > 0) {
        let mut inner = spec.predictor(&data);
        let mut timed = TimedPredictor::new(inner.as_mut());
        match run_rep(&spec, &data, &cfg, &mut timed, None) {
            Ok(rep) => {
                out.check(check_rep(&rep, first, golden));
                steps += rep.step_secs.len();
                wall += rep.secs;
                p_fwd += timed.times.forward.as_secs_f64();
                p_bwd += timed.times.backward.as_secs_f64();
            }
            Err(e) => out.check(Some(e)),
        }
    }
    apots_obs::disable();
    apots_obs::drain();
    let summary = apots_obs::summary::summarize(&apots_obs::render());
    let (encode, d_step, adam, clip) = replay(&spec, &data, steps.clamp(1, 16));

    let n = Some(steps);
    let per_step = |total: f64| total / steps.max(1) as f64;
    let (step, p_fwd, p_bwd) = (per_step(wall), per_step(p_fwd), per_step(p_bwd));
    let named = p_fwd + p_bwd + encode + d_step + adam + clip;
    for (name, secs) in [
        ("core.step_ms", step),
        ("core.p_forward_ms", p_fwd),
        ("core.p_backward_ms", p_bwd),
        ("core.d_step_ms", d_step),
        ("core.encode_ms", encode),
        ("nn.adam_ms", adam),
        ("nn.clip_ms", clip),
        ("core.step_other_ms", step - named),
    ] {
        out.metric(name, secs * 1e3, "ms", n);
    }
    out.metric("core.named_share", named / step, "ratio", n);
    if full && named / step < NAMED_SHARE_MIN {
        out.error(format!(
            "named step parts cover {:.3} of step wall time, below {NAMED_SHARE_MIN}",
            named / step
        ));
    }

    use apots_obs::metrics::{
        KERNEL_MATMUL, KERNEL_MATMUL_AT_B, KERNEL_MATMUL_A_BT, KERNEL_MATMUL_FLAT,
        KERNEL_SERIAL_BELOW_GRAIN, PAR_REGIONS_POOLED,
    };
    let matmuls = [
        &KERNEL_MATMUL,
        &KERNEL_MATMUL_AT_B,
        &KERNEL_MATMUL_A_BT,
        &KERNEL_MATMUL_FLAT,
    ]
    .iter()
    .map(|c| c.get() as f64)
    .sum::<f64>();
    out.metric(
        "tensor.matmul_calls_per_step",
        per_step(matmuls),
        "count",
        n,
    );
    out.metric(
        "tensor.below_grain_frac",
        KERNEL_SERIAL_BELOW_GRAIN.get() as f64 / matmuls.max(1.0),
        "ratio",
        n,
    );
    // Forward 2 FLOPs per MAC; backward computes input and weight
    // gradients, 4 FLOPs per MAC. 2α forwards and α backwards per step.
    let alpha = data.config().alpha as f64;
    let flops = h_forward_macs(&data) * spec.batch as f64 * alpha * (2.0 * 2.0 + 4.0);
    out.metric(
        "tensor.p_gflops",
        flops / (p_fwd + p_bwd) / 1e9,
        "GFLOP/s",
        n,
    );
    out.metric(
        "par.regions_pooled_per_step",
        per_step(PAR_REGIONS_POOLED.get() as f64),
        "count",
        n,
    );
    let runners = summary
        .ok()
        .and_then(|s| s.get("pool")?.get("mean_runners_per_region")?.as_f64())
        .unwrap_or(0.0);
    out.metric("par.runners_per_region", runners, "count", n);
    if full {
        let untraced_step = untraced.0 / untraced.1.max(1) as f64;
        out.metric("obs.overhead_frac", step / untraced_step - 1.0, "ratio", n);
    }
    out
}

/// The golden of `seed`'s training run, computed here and now.
pub fn golden_of(seed: u64) -> TrainGolden {
    let spec = TrainSpec::for_seed(seed);
    let data = spec.dataset();
    let mut p = spec.predictor(&data);
    let rep = run_rep(&spec, &data, &spec.config(), p.as_mut(), None).expect("golden training run");
    TrainGolden {
        params_fnv: rep.result.params_fnv,
        mse_bits: rep.result.mse_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_runs_reproduce_untraced_checksums() {
        let _g = crate::test_lock();
        let spec = TrainSpec::tiny(5);
        let data = spec.dataset();
        let cfg = spec.config();
        let mut p = spec.predictor(&data);
        let untraced = run_rep(&spec, &data, &cfg, p.as_mut(), None).unwrap();

        apots_obs::enable(None);
        let mut inner = spec.predictor(&data);
        let mut timed = TimedPredictor::new(inner.as_mut());
        let traced = run_rep(&spec, &data, &cfg, &mut timed, None);
        apots_obs::disable();
        let traced = traced.unwrap();

        assert_eq!(traced.result, untraced.result);
        assert_eq!(untraced.step_secs.len(), spec.steps_per_rep());
        assert!(check_rep(&traced, Some(untraced.result), None).is_none());
    }

    #[test]
    fn host_speed_samples_leave_training_unchanged() {
        let _g = crate::test_lock();
        let spec = TrainSpec::tiny(7);
        let data = spec.dataset();
        let cfg = spec.config();
        let mut p = spec.predictor(&data);
        let plain = run_rep(&spec, &data, &cfg, p.as_mut(), None).unwrap();
        let mut speed = HostSpeed::new(Work::ComputeAndWakeups);
        // Owe a sample before every batch.
        speed.count(10.0);
        let mut p = spec.predictor(&data);
        let sampled = run_rep(&spec, &data, &cfg, p.as_mut(), Some(&mut speed)).unwrap();
        assert_eq!(sampled.result, plain.result);
        assert_eq!(sampled.step_secs.len(), spec.steps_per_rep());
        assert!(speed.typical_secs() > 0.0, "no sample was taken");
        // The samples' time is not in the run's time.
        let steps: f64 = sampled.step_secs.iter().sum();
        assert!(sampled.secs >= steps && sampled.secs < steps + 0.05);
    }

    #[test]
    fn check_rep_rejects_mismatches() {
        let _g = crate::test_lock();
        let spec = TrainSpec::tiny(6);
        let data = spec.dataset();
        let mut p = spec.predictor(&data);
        let mut rep = run_rep(&spec, &data, &spec.config(), p.as_mut(), None).unwrap();
        let other = RepResult {
            params_fnv: rep.result.params_fnv ^ 1,
            ..rep.result
        };
        assert!(check_rep(&rep, Some(other), None).is_some());
        let golden = TrainGolden {
            params_fnv: rep.result.params_fnv,
            mse_bits: rep.result.mse_bits ^ 1,
        };
        assert!(check_rep(&rep, None, Some(golden)).is_some());
        rep.report.epochs[0].d_loss = 0.0;
        assert!(check_rep(&rep, None, None).unwrap().contains("d_loss"));
    }

    #[test]
    fn forward_macs_match_the_fast_hybrid_shapes() {
        let data = TrainSpec::tiny(1).dataset();
        // conv 60·(6·9·12 + 12·6 + 6·9·12) + LSTM 12·(92·128 + 64·128) + head 36.
        assert_eq!(h_forward_macs(&data), 82_080.0 + 239_616.0 + 36.0);
    }
}
