//! The APOTS benchmark: three workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run. See
//! README.md for every metric's definition and the layer map.
//!
//! ```text
//! perfbench --workload <train-h-adv|serve-h-closed|scenario-grid>
//!           --seed N --seconds S --trace 0|1
//! perfbench --capture-goldens FROM TO
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. A run whose
//! outputs fail a check prints no metrics and exits with code 1.

mod calib;
mod goldens;
mod grid;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod timed;
mod train;

use std::time::Instant;

use apots_serde::{Json, Map};

use crate::report::Outcome;

/// The benchmark's workloads, in report order.
pub const WORKLOADS: [&str; 3] = ["train-h-adv", "serve-h-closed", "scenario-grid"];

/// How long a measurement loop runs: at least `secs` seconds and until
/// it has enough samples, but never past `cap` seconds.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    secs: f64,
    cap: f64,
}

impl Budget {
    /// `secs` seconds, capped at four times that (or 8 s for short runs).
    pub fn new(secs: f64) -> Self {
        Budget {
            secs,
            cap: (4.0 * secs).max(8.0),
        }
    }

    /// Whether a loop started at `t0` should stop, given whether it has
    /// enough samples yet.
    pub fn done(&self, t0: Instant, enough: bool) -> bool {
        let elapsed = t0.elapsed().as_secs_f64();
        (enough && elapsed >= self.secs) || elapsed >= self.cap
    }

    /// This budget, lengthened to at least `secs` seconds.
    pub fn at_least(&self, secs: f64) -> Self {
        Budget {
            secs: self.secs.max(secs),
            cap: self.cap.max(4.0 * secs),
        }
    }

    /// Half of this budget.
    pub fn half(&self) -> Self {
        Budget {
            secs: self.secs / 2.0,
            cap: self.cap / 2.0,
        }
    }
}

/// Derives an independent stream seed from the workload seed
/// (splitmix64 finalizer over `seed` and the stream index).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The untraced run of `workload`: end-to-end metrics.
fn run_untraced(workload: &str, seed: u64, budget: Budget, started: Instant) -> Outcome {
    let mut out = match workload {
        "train-h-adv" => train::run(seed, budget, started),
        "serve-h-closed" => serve::run(seed, budget, started),
        _ => grid::run(seed, budget, started),
    };
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MB", None);
    out
}

/// The traced run of `workload`: every per-layer metric. The workload's
/// own layers are traced on its full-size inputs for the whole budget;
/// the other workloads' layers get a short probe so the table is
/// complete, and their authoritative values come from their own traced
/// runs.
fn run_traced(workload: &str, seed: u64, budget: Budget) -> Outcome {
    let probe = Budget::new(0.0);
    let mut out = Outcome::default();
    for w in WORKLOADS {
        let home = w == workload;
        let b = if home { budget } else { probe };
        out.absorb(match w {
            "train-h-adv" => train::trace(seed, b, home),
            "serve-h-closed" => serve::trace(seed, b, home),
            _ => grid::trace(seed, b, home),
        });
    }
    out.absorb(layers::probe(seed));
    out
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--capture-goldens") {
        let range: Vec<u64> = argv[1..].iter().filter_map(|s| s.parse().ok()).collect();
        let [from, to] = range[..] else {
            eprintln!("usage: perfbench --capture-goldens FROM TO");
            std::process::exit(2);
        };
        capture_goldens(from, to);
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = host::Host::probe(std::path::Path::new("."));
    let mut header = Map::new();
    header.insert("workload".into(), Json::Str(args.workload.clone()));
    header.insert("seed".into(), Json::Num(args.seed as f64));
    header.insert("trace".into(), Json::Bool(args.trace));
    header.insert("host".into(), host.to_json());
    println!("# run {}", Json::Obj(header));

    let budget = Budget::new(args.seconds);
    let out = if args.trace {
        run_traced(&args.workload, args.seed, budget)
    } else {
        run_untraced(&args.workload, args.seed, budget, started)
    };
    print!("{}", out.table());
    for e in &out.errors {
        println!("# FAILED: {e}");
    }
    println!("{}", out.result_line());
    if !out.correct() {
        std::process::exit(1);
    }
}

/// Prints `goldens.txt` lines for seeds `from..=to`, each computed at the
/// current thread count.
fn capture_goldens(from: u64, to: u64) {
    for seed in from..=to {
        let t = train::golden_of(seed);
        println!(
            "train-h-adv {seed} params={:#018x} mse={:#010x}",
            t.params_fnv, t.mse_bits
        );
        println!(
            "serve-h-closed {seed} responses={:#010x}",
            serve::golden_of(seed)
        );
        let g = grid::golden_of(seed);
        println!(
            "scenario-grid {seed} corpus={:#018x} report={:#018x}",
            g.corpus, g.report
        );
    }
}

/// Serializes tests that touch the process-global pool size and tracer.
#[cfg(test)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let a = parse_args(&argv(
            "--workload serve-h-closed --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve-h-closed");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload train-h-adv --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv(
            "--workload train-h-adv --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload train-h-adv --seconds 1")).is_err());
    }

    #[test]
    fn derived_seeds_are_distinct_streams() {
        let s: Vec<u64> = (0..4).map(|k| derive_seed(5, k)).collect();
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len());
        assert_ne!(derive_seed(5, 1), derive_seed(6, 1));
    }
}
