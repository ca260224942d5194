//! The commute and leisure rush-hour congestion model shared by the
//! corridor ([`crate::sim`]) and network ([`crate::network`]) simulators:
//! Gaussian bumps over the time of day, phase-shifted per segment so
//! congestion waves appear to travel upstream.

use crate::calendar::DayType;

/// Morning commute peak congestion amplitude.
const MORNING_PEAK_AMP: f32 = 0.55;
/// Evening commute peak congestion amplitude (×1.3 on the day before a
/// holiday).
const EVENING_PEAK_AMP: f32 = 0.60;
/// Weekend/holiday midday congestion amplitude.
const WEEKEND_AMP: f32 = 0.28;

/// Rush congestion at interval-of-day `tau` for a segment whose peaks are
/// shifted by `shift` intervals, scaled by the day's multiplier `amp`.
///
/// Every term is evaluated as `(amp · amplitude) · bump`, so `amp = 1.0`
/// gives exactly the f32 chain of the unscaled model.
pub(crate) fn rush_congestion(dt: DayType, tau: f32, shift: f32, amp: f32) -> f32 {
    let mut c = 0.0f32;
    if dt.weekday {
        c += amp * MORNING_PEAK_AMP * gaussian_bump(tau, 93.0 + shift, 9.0); // ~07:45
        let evening_amp = if dt.day_before_holiday {
            EVENING_PEAK_AMP * 1.3
        } else {
            EVENING_PEAK_AMP
        };
        c += amp * evening_amp * gaussian_bump(tau, 222.0 + shift, 12.0); // ~18:30
    } else {
        // Weekend / holiday leisure traffic: broad midday bump.
        c += amp * WEEKEND_AMP * gaussian_bump(tau, 170.0 + shift, 30.0); // ~14:10
        if dt.day_after_holiday {
            // Return traffic in the evening.
            c += amp * 0.35 * gaussian_bump(tau, 228.0 + shift, 18.0);
        }
    }
    c
}

/// Unnormalised Gaussian bump `exp(−(x−mu)²/(2σ²))`.
fn gaussian_bump(x: f32, mu: f32, sigma: f32) -> f32 {
    let z = (x - mu) / sigma;
    (-0.5 * z * z).exp()
}
