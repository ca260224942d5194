//! The corridor speed generator.
//!
//! Simulates 5-minute average speeds for a chain of `2m+1` expressway
//! segments (road `0` is the most upstream; traffic flows towards higher
//! indices). The generator composes, per road and interval:
//!
//! * weekday commute peaks (morning/evening) and weekend/holiday midday
//!   profiles, with per-road phase lags so congestion *waves* move through
//!   the corridor;
//! * rain slowdowns driven by the [`crate::weather`] series;
//! * incident shockwaves from the [`crate::incidents`] log, which propagate
//!   to upstream segments with decay and lag (queues grow backwards);
//! * *flow breakdown*: when demand crosses a threshold, speed collapses an
//!   extra step and recovers abruptly — the mechanism behind the abrupt
//!   accelerations/decelerations of the paper's Fig 1 and Eq 7/8;
//! * AR(1) congestion noise plus white sensor noise, and a per-step rate
//!   limiter bounding step-to-step change (the paper observed at most ±30%;
//!   we allow slightly more so the θ = ±0.3 threshold has a populated tail).

use apots_tensor::rng::Rng;

use crate::calendar::Calendar;
use crate::incidents::{IncidentConfig, IncidentLog};
use crate::rush::rush_congestion;
use crate::weather::{Weather, WeatherConfig};
use crate::INTERVALS_PER_DAY;

/// Full configuration of a corridor simulation.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of upstream (= downstream) neighbours of the target road;
    /// the corridor has `2m + 1` segments and the target road is index `m`.
    pub m: usize,
    /// Weather generator settings.
    pub weather: WeatherConfig,
    /// Incident generator settings (`venue_road` is overridden to `m`).
    pub incidents: IncidentConfig,
    /// Nominal free-flow speed in km/h (per-road variation is applied).
    pub free_flow: f32,
    /// Congestion level beyond which flow breakdown may trigger.
    pub breakdown_threshold: f32,
    /// Extra congestion added while a road is in breakdown.
    pub breakdown_extra: f32,
    /// Per-segment decay of propagated incident congestion.
    pub propagation_decay: f32,
    /// Per-segment lag (in intervals) of propagated congestion.
    pub propagation_lag: usize,
    /// AR(1) coefficient of the congestion noise.
    pub noise_ar: f32,
    /// Innovation std-dev of the congestion noise.
    pub noise_std: f32,
    /// White sensor noise std-dev in km/h.
    pub sensor_noise: f32,
    /// Rate limiter: maximum fractional speed change per 5-minute step.
    pub max_step_frac: f32,
    /// RNG seed for the whole simulation.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            m: 2,
            weather: WeatherConfig::default(),
            incidents: IncidentConfig::default(),
            free_flow: 98.0,
            breakdown_threshold: 0.45,
            breakdown_extra: 0.22,
            propagation_decay: 0.55,
            propagation_lag: 2,
            noise_ar: 0.85,
            noise_std: 0.012,
            sensor_noise: 1.0,
            max_step_frac: 0.45,
            seed: 7,
        }
    }
}

impl SimConfig {
    /// Number of road segments, `2m + 1`.
    pub fn n_roads(&self) -> usize {
        2 * self.m + 1
    }

    /// Index of the target road `h`.
    pub fn target_road(&self) -> usize {
        self.m
    }
}

/// A simulated corridor: speeds plus every exogenous series that produced
/// them.
pub struct Corridor {
    config: SimConfig,
    calendar: Calendar,
    weather: Weather,
    incidents: IncidentLog,
    /// `speeds[road][t]` in km/h.
    speeds: Vec<Vec<f32>>,
    /// `volumes[road][t]` in veh/h (derived, see [`Corridor::volume`]).
    volumes: Vec<Vec<f32>>,
    /// Per-road free-flow speed.
    free_flow: Vec<f32>,
}

impl Corridor {
    /// Runs the simulation over the paper's 122-day calendar.
    pub fn generate(config: SimConfig) -> Self {
        Self::generate_with_calendar(config, Calendar::paper_period())
    }

    /// Runs the simulation over an arbitrary calendar (tests use short
    /// periods).
    pub fn generate_with_calendar(mut config: SimConfig, calendar: Calendar) -> Self {
        let n_roads = config.n_roads();
        config.incidents.venue_road = config.target_road();
        let mut rng = apots_tensor::rng::seeded(config.seed);
        let weather = Weather::generate(&calendar, &config.weather, &mut rng);
        let incidents =
            IncidentLog::generate(n_roads, &calendar, &weather, &config.incidents, &mut rng);
        let n = calendar.intervals();

        let free_flow: Vec<f32> = (0..n_roads)
            .map(|_| config.free_flow * (0.96 + 0.08 * rng.random::<f32>()))
            .collect();

        let mut speeds = vec![vec![0.0f32; n]; n_roads];
        let mut noise_state = vec![0.0f32; n_roads];
        let mut in_breakdown = vec![false; n_roads];
        let center = config.target_road() as f32;

        for t in 0..n {
            let day = calendar.day_of(t);
            let dt = calendar.day_type(day);
            let tau = (t % INTERVALS_PER_DAY) as f32;
            let rain = weather.precipitation[t];
            let c_rain = (0.45 * rain).min(0.35);

            for road in 0..n_roads {
                // Commute peaks, phase-shifted so downstream roads peak
                // earlier and congestion appears to travel upstream.
                let shift = (center - road as f32) * 1.5;
                let c_rush = rush_congestion(dt, tau, shift, 1.0);

                // Incident congestion: own plus propagated from downstream
                // segments (queues grow backwards into upstream roads).
                let mut c_inc = incidents.severity(road, t);
                for d in 1..=3usize {
                    let src = road + d;
                    if src >= n_roads {
                        break;
                    }
                    let lag = d * config.propagation_lag;
                    if t >= lag {
                        c_inc += incidents.severity(src, t - lag)
                            * config.propagation_decay.powi(d as i32);
                    }
                }
                let c_inc = c_inc.min(0.9);

                // Compose independent congestion causes multiplicatively in
                // "free-flow survival" space, keeping the result in [0, 1).
                let mut c = 1.0 - (1.0 - c_rush.min(0.9)) * (1.0 - c_rain) * (1.0 - c_inc);

                // Flow breakdown with hysteresis: an extra collapse when
                // demand crosses the threshold, released abruptly later.
                if in_breakdown[road] {
                    if c < config.breakdown_threshold - 0.10 && rng.random_bool(0.3) {
                        in_breakdown[road] = false;
                    }
                } else if c > config.breakdown_threshold && rng.random_bool(0.25) {
                    in_breakdown[road] = true;
                }
                if in_breakdown[road] {
                    c += config.breakdown_extra;
                }

                // AR(1) congestion noise.
                noise_state[road] = config.noise_ar * noise_state[road]
                    + apots_tensor::rng::normal(&mut rng, 0.0, config.noise_std);
                c = (c + noise_state[road]).clamp(0.0, 0.93);

                let mut s = free_flow[road] * (1.0 - c)
                    + apots_tensor::rng::normal(&mut rng, 0.0, config.sensor_noise);

                // Rate limiter: bounded step-to-step change.
                if t > 0 {
                    let prev = speeds[road][t - 1];
                    let lo = prev * (1.0 - config.max_step_frac);
                    let hi = prev * (1.0 + config.max_step_frac);
                    s = s.clamp(lo, hi);
                }
                speeds[road][t] = s.clamp(5.0, free_flow[road] * 1.05);
            }
        }

        let volumes = greenshields_volumes(&speeds, &free_flow, config.seed);

        Self {
            config,
            calendar,
            weather,
            incidents,
            speeds,
            volumes,
            free_flow,
        }
    }

    /// Assembles a corridor from pre-simulated parts. Used by
    /// [`crate::network`] to cut a `2m + 1` chain view out of a road
    /// network so the dataset/feature pipeline sees bit-identical inputs.
    ///
    /// # Panics
    /// Panics if the series shapes disagree with `config`/`calendar`.
    pub(crate) fn from_parts(
        config: SimConfig,
        calendar: Calendar,
        weather: Weather,
        incidents: IncidentLog,
        speeds: Vec<Vec<f32>>,
        volumes: Vec<Vec<f32>>,
        free_flow: Vec<f32>,
    ) -> Self {
        let n_roads = config.n_roads();
        let n = calendar.intervals();
        assert_eq!(speeds.len(), n_roads, "from_parts: speed rows");
        assert_eq!(volumes.len(), n_roads, "from_parts: volume rows");
        assert_eq!(free_flow.len(), n_roads, "from_parts: free-flow entries");
        assert!(
            speeds.iter().chain(&volumes).all(|row| row.len() == n),
            "from_parts: series length != calendar intervals"
        );
        Self {
            config,
            calendar,
            weather,
            incidents,
            speeds,
            volumes,
            free_flow,
        }
    }

    /// Number of road segments.
    pub fn n_roads(&self) -> usize {
        self.speeds.len()
    }

    /// Index of the target road `h`.
    pub fn target_road(&self) -> usize {
        self.config.target_road()
    }

    /// Number of 5-minute intervals simulated.
    pub fn intervals(&self) -> usize {
        self.calendar.intervals()
    }

    /// Speed of `road` at interval `t` in km/h.
    pub fn speed(&self, road: usize, t: usize) -> f32 {
        self.speeds[road][t]
    }

    /// The whole speed series of `road`.
    pub fn road_speeds(&self, road: usize) -> &[f32] {
        &self.speeds[road]
    }

    /// Traffic volume (veh/h) of `road` at interval `t`, derived from the
    /// Greenshields fundamental diagram plus detector noise.
    pub fn volume(&self, road: usize, t: usize) -> f32 {
        self.volumes[road][t]
    }

    /// The whole volume series of `road`.
    pub fn road_volumes(&self, road: usize) -> &[f32] {
        &self.volumes[road]
    }

    /// Per-road free-flow speeds.
    pub fn free_flow(&self) -> &[f32] {
        &self.free_flow
    }

    /// The simulation calendar.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// The weather series that drove the simulation.
    pub fn weather(&self) -> &Weather {
        &self.weather
    }

    /// The incident log that drove the simulation.
    pub fn incidents(&self) -> &IncidentLog {
        &self.incidents
    }

    /// The configuration used.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }
}

/// Traffic volume via the Greenshields fundamental diagram:
/// q = k_jam · v · (1 − v/v_f), i.e. flow peaks at half the free-flow
/// speed and vanishes at jam density and at free flow. This stands in for
/// the "traffic amount" data of the paper's future-work list (§VI) without
/// a separate demand model. The noise comes from its own stream, drawn
/// road-major, so volumes never perturb the speed simulation.
pub(crate) fn greenshields_volumes(
    speeds: &[Vec<f32>],
    free_flow: &[f32],
    seed: u64,
) -> Vec<Vec<f32>> {
    let k_jam = 120.0f32; // veh/km, typical jam density per lane-group
    let mut rng = apots_tensor::rng::seeded(seed ^ 0x0F10_77AA);
    let mut volume = |v: f32, vf: f32| {
        let q = k_jam * v * (1.0 - (v / vf).min(1.0));
        (q + apots_tensor::rng::normal(&mut rng, 0.0, 25.0)).max(0.0)
    };
    speeds
        .iter()
        .zip(free_flow)
        .map(|(row, &vf)| row.iter().map(|&v| volume(v, vf)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corridor() -> Corridor {
        // 14 days is enough to exercise weekday/weekend structure cheaply.
        let cal = Calendar::new(14, 6, vec![4]);
        Corridor::generate_with_calendar(SimConfig::default(), cal)
    }

    #[test]
    fn speeds_within_physical_bounds() {
        let c = small_corridor();
        for road in 0..c.n_roads() {
            let ff = c.free_flow()[road];
            for t in 0..c.intervals() {
                let s = c.speed(road, t);
                assert!(
                    (5.0..=ff * 1.05 + 1e-3).contains(&s),
                    "speed {s} at ({road}, {t})"
                );
            }
        }
    }

    #[test]
    fn step_changes_respect_rate_limit() {
        let c = small_corridor();
        let max = c.config().max_step_frac;
        for road in 0..c.n_roads() {
            let s = c.road_speeds(road);
            for t in 1..s.len() {
                let frac = (s[t] - s[t - 1]).abs() / s[t - 1];
                assert!(
                    frac <= max + 1e-3,
                    "step {frac} exceeds limit at ({road}, {t})"
                );
            }
        }
    }

    #[test]
    fn weekday_rush_hour_slower_than_predawn() {
        let c = small_corridor();
        let h = c.target_road();
        // Day 1 (Monday) of the 14-day period: compare 07:45 vs 03:00.
        let mut rush = 0.0f32;
        let mut dawn = 0.0f32;
        let mut n = 0;
        for day in [1usize, 2, 3, 8, 9] {
            rush += c.speed(h, day * 288 + 93);
            dawn += c.speed(h, day * 288 + 36);
            n += 1;
        }
        rush /= n as f32;
        dawn /= n as f32;
        assert!(
            rush < dawn - 15.0,
            "rush {rush} should be well below pre-dawn {dawn}"
        );
    }

    #[test]
    fn weekend_has_no_morning_commute_peak() {
        let c = small_corridor();
        let h = c.target_road();
        // Day 6 (Saturday) vs day 1 (Monday) at 07:45.
        let sat = c.speed(h, 6 * 288 + 93);
        let mon = c.speed(h, 288 + 93);
        assert!(sat > mon, "saturday {sat} vs monday {mon}");
    }

    #[test]
    fn abrupt_changes_exist_but_are_rare() {
        let cfg = SimConfig::default();
        let cor = Corridor::generate(cfg);
        let h = cor.target_road();
        let s = cor.road_speeds(h);
        let mut abrupt = 0usize;
        for t in 1..s.len() {
            let change = (s[t - 1] - s[t]) / s[t - 1];
            if change.abs() >= 0.3 {
                abrupt += 1;
            }
        }
        let frac = abrupt as f32 / s.len() as f32;
        assert!(
            frac > 0.0005 && frac < 0.1,
            "abrupt fraction {frac} ({abrupt} events)"
        );
    }

    #[test]
    fn adjacent_roads_are_correlated() {
        let cor = small_corridor();
        let h = cor.target_road();
        let a = cor.road_speeds(h);
        let b = cor.road_speeds(h + 1);
        let corr = pearson(a, b);
        assert!(corr > 0.5, "adjacent correlation {corr}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small_corridor();
        let b = small_corridor();
        assert_eq!(a.road_speeds(0), b.road_speeds(0));
        let cfg = SimConfig {
            seed: 99,
            ..SimConfig::default()
        };
        let c = Corridor::generate_with_calendar(cfg, Calendar::new(14, 6, vec![4]));
        assert_ne!(a.road_speeds(0), c.road_speeds(0));
    }

    #[test]
    fn rainy_intervals_slower_on_average() {
        let cor = Corridor::generate(SimConfig::default());
        let h = cor.target_road();
        // Compare off-peak (10:00–16:00) rain vs dry to isolate weather.
        let mut wet = (0.0f32, 0usize);
        let mut dry = (0.0f32, 0usize);
        for t in 0..cor.intervals() {
            let hour = cor.calendar().hour_of(t);
            if !(10..16).contains(&hour) {
                continue;
            }
            let s = cor.speed(h, t);
            if cor.weather().is_raining(t) {
                wet = (wet.0 + s, wet.1 + 1);
            } else {
                dry = (dry.0 + s, dry.1 + 1);
            }
        }
        assert!(wet.1 > 50, "not enough rainy samples ({})", wet.1);
        let wet_avg = wet.0 / wet.1 as f32;
        let dry_avg = dry.0 / dry.1 as f32;
        assert!(
            wet_avg < dry_avg - 3.0,
            "wet {wet_avg} should be below dry {dry_avg}"
        );
    }

    fn pearson(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len() as f32;
        let ma = a.iter().sum::<f32>() / n;
        let mb = b.iter().sum::<f32>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (x, y) in a.iter().zip(b) {
            cov += (x - ma) * (y - mb);
            va += (x - ma).powi(2);
            vb += (y - mb).powi(2);
        }
        cov / (va.sqrt() * vb.sqrt())
    }
}
