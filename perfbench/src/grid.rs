//! `scenario-grid`: the demo scenario realized at network scale with
//! `ScenarioCorpus::generate` (the workload's set-up), then
//! `apots_experiments::network::network_report` over it: evaluation
//! segments × the four predictor kinds, each trained plain and scored
//! clean and through the scenario's outages, fanned out over the pool.
//!
//! One operation is one report. Every report must reproduce the first
//! report's bytes and, when the seed has a pinned golden, the golden
//! corpus checksum and report FNV.

use std::time::Instant;

use apots::config::{PredictorKind, TrainConfig};
use apots::degrade::evaluate_with_outage;
use apots::eval::{evaluate, EvalResult};
use apots::predictor::build_predictor;
use apots::runtime::TrainOptions;
use apots::trainer::train_with_options;
use apots_experiments::network::{eval_segments, network_report, NetworkRunConfig};
use apots_serde::Json;
use apots_traffic::{
    DataConfig, OutageView, RoadNetwork, ScenarioCorpus, ScenarioSpec, TrafficDataset,
};

use crate::calib::{HostSpeed, Work};
use crate::goldens::{self, GridGolden};
use crate::report::Outcome;
use crate::stats::{median, samples_needed, Fnv, Summary};
use crate::{derive_seed, Budget};

/// Tail percentile reported for report latency.
pub const REPORT_TAIL_P: f64 = 75.0;
/// Set-ups (corpus realizations) per run; the median is reported.
const SETUPS: usize = 11;

/// The scenario and report configuration of one grid run.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// The scenario: the demo events on a seeded network.
    pub scenario: ScenarioSpec,
    /// The report grid.
    pub run: NetworkRunConfig,
}

impl GridSpec {
    /// The workload's grid for `seed`: 2048 segments over 3 days, four
    /// evaluation segments, one epoch of 128 samples per run.
    pub fn for_seed(seed: u64) -> Self {
        Self::sized(seed, 2048, 4, 128)
    }

    /// A small grid for tests and foreign-workload probes.
    pub fn tiny(seed: u64) -> Self {
        Self::sized(seed, 256, 1, 64)
    }

    fn sized(seed: u64, segments: usize, eval: usize, samples: usize) -> Self {
        GridSpec {
            scenario: ScenarioSpec {
                seed: derive_seed(seed, 21),
                ..ScenarioSpec::demo(segments, 3)
            },
            run: NetworkRunConfig {
                seed: derive_seed(seed, 22),
                epochs: 1,
                max_train_samples: Some(samples),
                eval_samples: 32,
                eval_segments: eval,
                ..NetworkRunConfig::default()
            },
        }
    }

    /// (Segment × kind) runs in one report.
    pub fn runs_per_report(&self) -> usize {
        self.run.eval_segments * PredictorKind::all().len()
    }
}

/// One report: its FNV and its text.
fn report(corpus: &ScenarioCorpus, spec: &GridSpec) -> (u64, String) {
    let text = network_report(corpus, &spec.run).to_string();
    let mut h = Fnv::default();
    h.write(text.as_bytes());
    (h.finish(), text)
}

/// The golden of `seed`'s grid, computed here and now.
pub fn golden_of(seed: u64) -> GridGolden {
    let spec = GridSpec::for_seed(seed);
    let corpus = ScenarioCorpus::generate(&spec.scenario);
    GridGolden {
        corpus: corpus.checksum(),
        report: report(&corpus, &spec).0,
    }
}

/// Checks the corpus against the golden.
fn check_corpus(corpus: &ScenarioCorpus, golden: Option<GridGolden>) -> Option<String> {
    let g = golden?;
    (corpus.checksum() != g.corpus).then(|| {
        format!(
            "corpus checksum {:#018x}, pinned golden {:#018x}",
            corpus.checksum(),
            g.corpus
        )
    })
}

/// Checks one report against the first and the golden.
fn check_report(fnv: u64, first: Option<u64>, golden: Option<GridGolden>) -> Option<String> {
    if let Some(f) = first.filter(|&f| f != fnv) {
        return Some(format!(
            "report FNV {fnv:#018x} differs from the first report {f:#018x}"
        ));
    }
    let g = golden?;
    (fnv != g.report).then(|| format!("report FNV {fnv:#018x}, pinned golden {:#018x}", g.report))
}

/// Runs the untraced workload: end-to-end metrics at the nominal host
/// speed (see [`crate::calib`]).
pub fn run(seed: u64, budget: Budget, started: Instant) -> Outcome {
    let spec = GridSpec::for_seed(seed);
    let golden = goldens::grid(seed);
    let mut out = Outcome::default();
    let mut speed = HostSpeed::new(Work::Compute);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut corpus: Option<ScenarioCorpus> = None;
    let mut first_corpus = None;
    for i in 0..SETUPS {
        drop(corpus.take());
        let t0 = if i == 0 { started } else { Instant::now() };
        let c = ScenarioCorpus::generate(&spec.scenario);
        let secs = t0.elapsed().as_secs_f64();
        setups.push(secs);
        speed.maybe(secs);
        let sum = c.checksum();
        let first = *first_corpus.get_or_insert(sum);
        out.check(check_corpus(&c, golden).or_else(|| {
            (sum != first).then(|| {
                format!("corpus checksum {sum:#018x} differs from the first set-up's {first:#018x}")
            })
        }));
        corpus = Some(c);
    }
    let corpus = corpus.expect("at least one set-up");
    let (fs, note) = speed.end_phase("set-up");
    out.note(note);
    if out.failed > 0 {
        return out;
    }

    let need = samples_needed(REPORT_TAIL_P);
    let mut first = None;
    // Every report's time, with the reference samples taken after it.
    let mut lat: Vec<(f64, (usize, usize))> = Vec::new();
    let t0 = Instant::now();
    while !budget.done(t0, lat.len() >= need) {
        let t = Instant::now();
        let (fnv, _) = report(&corpus, &spec);
        let secs = t.elapsed().as_secs_f64();
        out.check(check_report(fnv, first, golden));
        first.get_or_insert(fnv);
        let from = speed.mark();
        speed.maybe(secs);
        lat.push((secs, (from, speed.mark())));
    }
    if lat.len() < need {
        out.error(format!(
            "only {} reports in the time cap; {need} needed",
            lat.len()
        ));
        return out;
    }
    // Each report scaled by the host's speed around it.
    let raw: Vec<f64> = lat.iter().map(|&(secs, _)| secs).collect();
    let scaled: Vec<f64> = lat
        .iter()
        .map(|&(secs, (from, to))| secs * speed.local_factor(from, to))
        .collect();
    let (_, note) = speed.end_phase("measurement");
    out.note(note);
    let r = Summary::of(&raw, REPORT_TAIL_P);
    let s = Summary::of(&scaled, REPORT_TAIL_P);
    let runs = spec.runs_per_report() as f64;
    out.note(format!(
        "as measured: setup {:.4} s, {:.2} runs/s, report p50 {:.2} ms, p{REPORT_TAIL_P} {:.2} ms",
        median(&setups),
        runs / r.p50,
        r.p50 * 1e3,
        r.tail * 1e3
    ));
    out.metric("setup_s", median(&setups) * fs, "s", Some(SETUPS));
    // (Segment × kind) runs per second of the median report.
    out.metric(
        "throughput_per_s",
        runs / s.p50,
        "1/s",
        Some(s.n),
    );
    out.metric("op_p50_ms", s.p50 * 1e3, "ms", Some(s.n));
    out.metric("op_tail_ms", s.tail * 1e3, "ms", Some(s.n));
    out
}

/// One timed (segment × kind) cell, computed exactly as `network_report`
/// computes it, through the same public functions.
fn timed_cell(
    data: &TrafficDataset,
    view: &OutageView,
    kind: PredictorKind,
    run: &NetworkRunConfig,
    seg: usize,
) -> (f64, EvalResult, EvalResult) {
    let t = Instant::now();
    let train_seed = run.seed ^ ((seg as u64 + 1).wrapping_mul(0x9E37_79B9)) ^ 0x5CE4;
    let tc = TrainConfig {
        epochs: run.epochs,
        max_train_samples: run.max_train_samples,
        seed: train_seed,
        ..TrainConfig::plain(run.mask)
    };
    let init_seed = train_seed ^ u64::from(kind.label().as_bytes()[0]);
    let mut p = build_predictor(kind, run.preset, data, init_seed);
    train_with_options(p.as_mut(), data, &tc, &mut TrainOptions::default())
        .expect("grid cell training");
    let samples: Vec<usize> = data
        .test_samples()
        .iter()
        .copied()
        .take(run.eval_samples.max(1))
        .collect();
    let clean = evaluate(p.as_mut(), data, run.mask, &samples);
    let outage = evaluate_with_outage(p.as_mut(), data, run.mask, &samples, view);
    (t.elapsed().as_secs_f64(), clean, outage)
}

/// Whether a cell's scores equal the report's entry for it.
fn cell_matches(entry: &Json, clean: &EvalResult, outage: &EvalResult) -> bool {
    let same = |j: Option<&Json>, r: &EvalResult| -> bool {
        let Some(j) = j else { return false };
        [
            ("mae", r.overall.mae),
            ("rmse", r.overall.rmse),
            ("mape", r.overall.mape),
        ]
        .iter()
        .all(|&(k, v)| j.get(k).and_then(Json::as_f64) == Some(f64::from(v)))
    };
    same(entry.get("clean"), clean) && same(entry.get("outage"), outage)
}

/// Traced grid: network propagation and per-segment dataset builds timed
/// on their own, the report timed untraced and traced, and the report's
/// cells replayed through `fan_out` with each cell timed, checked against
/// the report's scores.
pub fn trace(seed: u64, budget: Budget, full: bool) -> Outcome {
    let spec = if full {
        GridSpec::for_seed(seed)
    } else {
        GridSpec::tiny(seed)
    };
    let golden = if full { goldens::grid(seed) } else { None };
    let mut out = Outcome::default();
    let days = spec.scenario.days as f64;

    let mut propagation = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let net =
            RoadNetwork::generate_plain(spec.scenario.network_config(), spec.scenario.calendar());
        propagation.push(t.elapsed().as_secs_f64() / days);
        std::hint::black_box(net.checksum());
    }
    let corpus = ScenarioCorpus::generate(&spec.scenario);
    out.check(check_corpus(&corpus, golden));

    let need = if full { 8 } else { 1 };
    let mut first = None;
    let mut timed = |traced: bool, out: &mut Outcome| -> Vec<f64> {
        if traced {
            apots_obs::enable(None);
        }
        let mut lat = Vec::new();
        let t0 = Instant::now();
        while !budget.half().done(t0, lat.len() >= need) {
            let t = Instant::now();
            let (fnv, _) = report(&corpus, &spec);
            lat.push(t.elapsed().as_secs_f64());
            out.check(check_report(fnv, first, golden));
            first.get_or_insert(fnv);
        }
        apots_obs::disable();
        lat
    };
    let untraced = timed(false, &mut out);
    let traced = timed(true, &mut out);

    // Replay the report's cells with per-cell timing.
    let run = &spec.run;
    let segments = eval_segments(corpus.network.n_segments(), run.eval_segments);
    let mut dataset_for = Vec::new();
    let per_segment: Vec<(usize, TrafficDataset, OutageView)> = segments
        .iter()
        .map(|&seg| {
            let t = Instant::now();
            let data = corpus.dataset_for(
                seg,
                run.m,
                DataConfig {
                    seed: run.seed ^ ((seg as u64 + 1).wrapping_mul(0x9E37_79B9)),
                    ..DataConfig::default()
                },
            );
            dataset_for.push(t.elapsed().as_secs_f64());
            let view = corpus.outage_view_for(seg, run.m);
            (seg, data, view)
        })
        .collect();
    let jobs: Vec<(usize, usize, PredictorKind)> = per_segment
        .iter()
        .enumerate()
        .flat_map(|(si, (seg, _, _))| PredictorKind::all().map(|k| (si, *seg, k)))
        .collect();
    let t = Instant::now();
    let cells = apots_experiments::fan_out(jobs.clone(), |(si, seg, kind)| {
        let (_, data, view) = &per_segment[si];
        timed_cell(data, view, kind, run, seg)
    });
    let fan_wall = t.elapsed().as_secs_f64();

    let (_, text) = report(&corpus, &spec);
    let parsed = Json::parse(&text).ok();
    let entries: Vec<&Json> = parsed
        .as_ref()
        .and_then(|j| j.get("eval_segments")?.as_array())
        .map(|segs| {
            segs.iter()
                .filter_map(|s| s.get("kinds")?.as_array())
                .flatten()
                .collect()
        })
        .unwrap_or_default();
    if entries.len() != cells.len() {
        out.error(format!(
            "report has {} cells, replay {}",
            entries.len(),
            cells.len()
        ));
        return out;
    }
    for (((_, seg, kind), (_, clean, outage)), entry) in jobs.iter().zip(&cells).zip(&entries) {
        if !cell_matches(entry, clean, outage) {
            out.error(format!(
                "replayed cell (segment {seg}, {}) differs from the report",
                kind.label()
            ));
        }
    }

    let n_cells = Some(cells.len());
    for kind in PredictorKind::all() {
        let times: Vec<f64> = jobs
            .iter()
            .zip(&cells)
            .filter(|((_, _, k), _)| *k == kind)
            .map(|(_, (secs, _, _))| *secs)
            .collect();
        let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
        out.metric(
            &format!("grid.cell_s.{}", kind.label()),
            mean,
            "s",
            Some(times.len()),
        );
    }
    let busy: f64 = cells.iter().map(|(secs, _, _)| secs).sum();
    let threads = apots_par::current_threads() as f64;
    out.metric(
        "par.fanout_efficiency",
        busy / (threads * fan_wall),
        "ratio",
        n_cells,
    );
    out.metric(
        "traffic.propagation_ms_per_day",
        median(&propagation) * 1e3,
        "ms",
        Some(propagation.len()),
    );
    out.metric(
        "traffic.dataset_for_ms",
        median(&dataset_for) * 1e3,
        "ms",
        Some(dataset_for.len()),
    );
    if full {
        out.metric(
            "obs.overhead_frac",
            median(&traced) / median(&untraced) - 1.0,
            "ratio",
            Some(traced.len()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_report_matches_untraced() {
        let _g = crate::test_lock();
        let spec = GridSpec::tiny(3);
        let corpus = ScenarioCorpus::generate(&spec.scenario);
        let (untraced, _) = report(&corpus, &spec);
        apots_obs::enable(None);
        let (traced, _) = report(&corpus, &spec);
        apots_obs::disable();
        assert_eq!(traced, untraced);
        assert!(check_report(untraced, Some(untraced), None).is_none());
        assert!(check_report(untraced ^ 1, Some(untraced), None).is_some());
    }

    #[test]
    fn traced_probe_replays_the_report_cells() {
        let _g = crate::test_lock();
        let out = trace(4, Budget::new(0.0), false);
        assert!(out.correct(), "{:?}", out.errors);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        for kind in ["F", "L", "C", "H"] {
            assert!(names.contains(&format!("grid.cell_s.{kind}").as_str()));
        }
        assert!(names.contains(&"par.fanout_efficiency"));
    }
}
