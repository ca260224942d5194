//! # apots-traffic
//!
//! The data substrate for the APOTS reproduction: a mechanistic expressway
//! corridor simulator standing in for the proprietary Hyundai Motor Company
//! dataset (Gyeongbu Expressway, July–October 2018), plus the feature
//! pipeline of the paper:
//!
//! * [`calendar`] — the 122-day period, weekday structure and the 7 Korean
//!   holidays in the window, encoded as the paper's 4-flag day type
//!   (weekday / holiday / day-before / day-after);
//! * [`weather`] — synthetic temperature and precipitation series standing
//!   in for the crawled Korea Meteorological Administration logs;
//! * [`incidents`] — Poisson accidents with recovery ramps, construction
//!   zones and scheduled events;
//! * [`sim`] — the corridor speed generator: rush-hour congestion, rain
//!   slowdowns, incident shockwaves that propagate to upstream segments
//!   (the spatio-temporal correlation the paper's adjacent-speed data
//!   exploits), plus autocorrelated and sensor noise;
//! * [`dataset`] — sliding-window samples (one per 5-minute interval),
//!   leakage-safe block train/test splitting with overlap discarding, and
//!   min–max normalization fitted on training data only;
//! * [`features`] — the encodings of §IV-A: speed-only input, the
//!   adjacent-speed matrix of Eq 6, non-speed data (event / weather / time)
//!   and the ablation masks used by Fig 5 and Table II;
//! * [`scenarios`] — locating the Fig 1 / Fig 6 case-study windows (rush
//!   hour, rainy day, accident recovery) inside a simulated corridor;
//! * [`outage`] — deterministic sensor-outage schedules (per-road dropout
//!   windows) and the LOCF + segment-mean imputation that feeds the
//!   degradation curves of `apots::degrade`;
//! * [`network`] — the network-scale generalization (DESIGN.md §16): a
//!   road-network graph of spliced mainline chains with merge/diverge
//!   junctions, congestion propagating upstream via a lagged, per-hop
//!   attenuated shockwave term under exponential relaxation;
//! * [`scenario_dsl`] — the strict-JSON scenario language (cascading
//!   accidents, city-wide events, outage windows, holiday super-peaks)
//!   and the deterministic corpus expansion that turns a spec into a
//!   checksummed [`network::RoadNetwork`] plus per-segment datasets.

pub mod calendar;
pub mod dataset;
pub mod features;
pub mod incidents;
pub mod network;
pub mod outage;
mod rush;
pub mod scenario_dsl;
pub mod scenarios;
pub mod sim;
pub mod weather;

pub use calendar::{Calendar, DayType};
pub use dataset::{DataConfig, Normalizer, TrafficDataset};
pub use features::{FeatureMask, NonSpeedMask, SampleFeatures};
pub use incidents::{Incident, IncidentKind, IncidentLog};
pub use network::{NetworkConfig, NetworkForcing, NetworkTopology, RoadNetwork};
pub use outage::{OutageConfig, OutagePlan, OutageView};
pub use scenario_dsl::{ScenarioCorpus, ScenarioEvent, ScenarioSpec};
pub use sim::{Corridor, SimConfig};
pub use weather::Weather;

/// Number of 5-minute intervals per day.
pub const INTERVALS_PER_DAY: usize = 288;
