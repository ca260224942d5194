//! A delegating [`Predictor`] that times every forward and backward call
//! of the predictor it wraps. Handed to `train_with_options` in place of
//! the real predictor, it attributes training time to `P` without any
//! span inside the program; it adds two clock reads per call and changes
//! no arithmetic.

use std::time::{Duration, Instant};

use apots::config::PredictorKind;
use apots::encode::PredictorInput;
use apots::predictor::Predictor;
use apots::InferenceMode;
use apots_nn::layer::Param;
use apots_tensor::Tensor;

/// Accumulated call counts and busy time of one wrapped predictor.
#[derive(Debug, Default, Clone, Copy)]
pub struct PredictorTimes {
    /// `forward` calls (training and evaluation).
    pub forward_calls: u64,
    /// Time spent inside `forward`.
    pub forward: Duration,
    /// `backward` calls.
    pub backward_calls: u64,
    /// Time spent inside `backward`.
    pub backward: Duration,
}

/// Times the calls into `inner`.
pub struct TimedPredictor<'a> {
    inner: &'a mut dyn Predictor,
    /// What has been measured so far.
    pub times: PredictorTimes,
}

impl<'a> TimedPredictor<'a> {
    /// Wraps `inner` with zeroed timers.
    pub fn new(inner: &'a mut dyn Predictor) -> Self {
        TimedPredictor {
            inner,
            times: PredictorTimes::default(),
        }
    }
}

impl Predictor for TimedPredictor<'_> {
    fn kind(&self) -> PredictorKind {
        self.inner.kind()
    }

    fn forward(&mut self, input: &PredictorInput, train: bool) -> Tensor {
        let t0 = Instant::now();
        let out = self.inner.forward(input, train);
        self.times.forward += t0.elapsed();
        self.times.forward_calls += 1;
        out
    }

    fn backward(&mut self, grad: &Tensor) {
        let t0 = Instant::now();
        self.inner.backward(grad);
        self.times.backward += t0.elapsed();
        self.times.backward_calls += 1;
    }

    fn params_mut(&mut self) -> Vec<Param<'_>> {
        self.inner.params_mut()
    }

    fn prepare(&mut self, mode: InferenceMode) {
        self.inner.prepare(mode);
    }

    fn forward_infer(&mut self, input: &PredictorInput, mode: InferenceMode) -> Tensor {
        let t0 = Instant::now();
        let out = self.inner.forward_infer(input, mode);
        self.times.forward += t0.elapsed();
        self.times.forward_calls += 1;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{params_fnv, TrainSpec};
    use apots::runtime::TrainOptions;
    use apots::trainer::train_with_options;

    #[test]
    fn wrapped_training_is_bit_identical_to_unwrapped() {
        let _g = crate::test_lock();
        let spec = TrainSpec::tiny(3);
        let data = spec.dataset();
        let cfg = spec.config();

        let mut plain = spec.predictor(&data);
        let r_plain =
            train_with_options(plain.as_mut(), &data, &cfg, &mut TrainOptions::default()).unwrap();

        let mut inner = spec.predictor(&data);
        let mut wrapped = TimedPredictor::new(inner.as_mut());
        let r_wrapped =
            train_with_options(&mut wrapped, &data, &cfg, &mut TrainOptions::default()).unwrap();
        let times = wrapped.times;

        assert_eq!(params_fnv(plain.as_mut()), params_fnv(inner.as_mut()));
        let bits = |r: &apots::TrainReport| -> Vec<[u32; 3]> {
            r.epochs
                .iter()
                .map(|e| [e.mse.to_bits(), e.p_loss.to_bits(), e.d_loss.to_bits()])
                .collect()
        };
        assert_eq!(bits(&r_plain), bits(&r_wrapped));
        // α pass-A forwards + α P-step forwards and α backwards per step.
        let steps = spec.steps_per_rep() as u64;
        let alpha = data.config().alpha as u64;
        assert_eq!(times.forward_calls, 2 * alpha * steps);
        assert_eq!(times.backward_calls, alpha * steps);
        assert!(times.forward > Duration::ZERO && times.backward > Duration::ZERO);
    }
}
