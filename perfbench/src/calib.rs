//! The host-speed reference: fixed work of the benchmark's own, timed
//! between a workload's samples so that a run knows how fast the shared
//! host ran while it measured, and reports its times at one fixed host
//! speed.
//!
//! On a shared virtual machine the same code runs at speeds up to 2×
//! apart, for stretches from under a second to many minutes, with little
//! or no hypervisor steal recorded (other tenants share the physical cores
//! and caches). Raw wall times then measure the neighbours as much as the
//! program. The reference slows down with the host, while no change to
//! the program moves it: it calls nothing in the workspace. One sample is
//! the kinds of work the workloads do, in fixed amounts:
//!
//! - chunks of arithmetic and cache traffic on every hardware thread at
//!   once, taken from a shared counter (dynamic scheduling, as the pool
//!   and `fan_out` do): [`PRODUCTS`] naive 64×64 f32 matrix products
//!   (vectorized multiply-adds in L1, like the model kernels) and one
//!   strided pass over a 4 MiB per-thread buffer (last-level cache, like
//!   the corpus and dataset work);
//! - [`ROUND_TRIPS`] one-byte round trips over loopback TCP between two
//!   threads, each leg waking a blocked thread through the kernel, as the
//!   pool's regions and every served request do. The grid's `fan_out`
//!   cells are coarse tasks that seldom wake a thread, so its samples
//!   hold the chunks alone (see [`Work`]).
//!
//! A run takes one sample per [`EVERY_SECS`] of workload time, so about a
//! tenth of its wall time goes to the reference, and multiplies every
//! end-to-end time by the nominal host's sample time
//! ([`NOMINAL_CHUNKS_SECS`], plus [`NOMINAL_TRIPS_SECS`] with round trips)
//! over the interquartile mean of the samples taken while it ran (rates
//! are divided by it; see [`HostSpeed::end_phase`]). A reported time is
//! therefore what the operation would take on a host that runs one
//! reference sample in exactly the nominal time.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::host;

/// Side of the reference matrices.
const N: usize = 64;
/// Matrix products in one chunk of reference work.
const PRODUCTS: usize = 15;
/// Floats each thread streams through, once per chunk (4 MiB: past the
/// per-core L2, into the shared last-level cache).
const STREAM: usize = 1 << 20;
/// Chunks per hardware thread in one reference sample.
const CHUNKS: usize = 20;
/// Round trips of one byte over loopback TCP in one reference sample.
const ROUND_TRIPS: usize = 200;
/// Times of the nominal host for the chunks and for the round trips of
/// one sample: round figures near what they took on the shared 2-vCPU
/// Xeon (Sapphire Rapids class) virtual machine the benchmark was built
/// on, so reported times stay close to the times as measured there.
pub const NOMINAL_CHUNKS_SECS: f64 = 0.010;
/// See [`NOMINAL_CHUNKS_SECS`].
pub const NOMINAL_TRIPS_SECS: f64 = 0.005;
/// Fewest samples an operation's local factor is taken over.
const LOCAL_MIN: usize = 8;
/// Workload time per reference sample: a run spends about a tenth of its
/// wall time on the reference.
pub const EVERY_SECS: f64 = 0.1;

fn product(a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..N {
        for k in 0..N {
            let x = a[i * N + k];
            let (row, brow) = (&mut c[i * N..(i + 1) * N], &b[k * N..(k + 1) * N]);
            for (cj, bj) in row.iter_mut().zip(brow) {
                *cj += x * bj;
            }
        }
    }
}

/// One thread's share of a reference sample: it takes chunks from `next`
/// until `total` are taken, so the sample measures what all threads get
/// done together and a thread that runs slow hands its share to the
/// others, as the pool's and `fan_out`'s dynamic scheduling do. A chunk
/// is [`PRODUCTS`] products of `N`×`N` matrices and one strided pass over
/// `stream`.
fn reference_part(t: usize, stream: &mut [f32], next: &AtomicUsize, total: usize) {
    let a: Vec<f32> = (0..N * N).map(|i| ((i + t) % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 5) as f32 * 0.5).collect();
    let mut c = vec![0.0f32; N * N];
    while next.fetch_add(1, Ordering::Relaxed) < total {
        for _ in 0..PRODUCTS {
            product(&a, &b, &mut c);
            std::hint::black_box(&mut c);
        }
        // One float per 64-byte line: the pass is bound by the cache
        // hierarchy, not by arithmetic.
        for x in stream.iter_mut().step_by(16) {
            *x += 1.0;
        }
        std::hint::black_box(&mut *stream);
    }
}

/// The kinds of work in a workload's reference sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// The chunks alone: coarse tasks that seldom block or wake a thread
    /// (the grid's `fan_out` cells).
    Compute,
    /// The chunks and the round trips: work that wakes threads many times
    /// per operation (the pool's fine-grained regions, served requests).
    ComputeAndWakeups,
}

/// Both ends of a loopback TCP connection for the round trips.
#[derive(Debug)]
struct Loopback {
    near: TcpStream,
    far: TcpStream,
}

impl Loopback {
    fn open() -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        let (far, _) = listener.accept()?;
        near.set_nodelay(true)?;
        far.set_nodelay(true)?;
        Ok(Loopback { near, far })
    }

    /// [`ROUND_TRIPS`] one-byte round trips between this thread and an
    /// echoing one: each leg wakes a blocked thread through the kernel,
    /// as every request of the serving workload does several times.
    fn round_trips(&mut self) -> std::io::Result<()> {
        let Loopback { near, far } = self;
        std::thread::scope(|scope| {
            let echo = scope.spawn(move || -> std::io::Result<()> {
                let mut b = [0u8; 1];
                for _ in 0..ROUND_TRIPS {
                    far.read_exact(&mut b)?;
                    far.write_all(&b)?;
                }
                Ok(())
            });
            let mut b = [7u8; 1];
            for _ in 0..ROUND_TRIPS {
                near.write_all(&b)?;
                near.read_exact(&mut b)?;
            }
            echo.join().expect("echo thread")
        })
    }
}

/// The reference samples of one run.
#[derive(Debug)]
pub struct HostSpeed {
    /// Seconds of every sample taken.
    samples: Vec<f64>,
    /// Workload seconds not yet paid for with a sample.
    owed: f64,
    /// One stream buffer per hardware thread.
    streams: Vec<Vec<f32>>,
    /// (chunks, round trips) seconds of every sample.
    parts: Vec<(f64, f64)>,
    /// The round trips' connection, for [`Work::ComputeAndWakeups`].
    loopback: Option<Loopback>,
}

impl HostSpeed {
    /// No samples yet; allocates and touches the stream buffers and opens
    /// the loopback connection when `work` has wake-ups.
    pub fn new(work: Work) -> Self {
        HostSpeed {
            samples: Vec::new(),
            owed: 0.0,
            streams: (0..host::nproc()).map(|_| vec![0.0f32; STREAM]).collect(),
            loopback: (work == Work::ComputeAndWakeups)
                .then(|| Loopback::open().expect("loopback connection for the reference")),
            parts: Vec::new(),
        }
    }

    /// Takes one reference sample now: the chunks on every hardware
    /// thread at once, then the round trips if the work has them.
    pub fn sample(&mut self) {
        let total = CHUNKS * self.streams.len();
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for (t, stream) in self.streams.iter_mut().enumerate() {
                let next = &next;
                scope.spawn(move || reference_part(t, stream, next, total));
            }
        });
        let chunks = t0.elapsed().as_secs_f64();
        let trips = match &mut self.loopback {
            Some(l) => {
                let t1 = Instant::now();
                l.round_trips()
                    .expect("loopback round trips for the reference");
                t1.elapsed().as_secs_f64()
            }
            None => 0.0,
        };
        self.samples.push(chunks + trips);
        self.parts.push((chunks, trips));
        self.owed = (self.owed - EVERY_SECS).max(0.0);
    }

    /// Samples taken so far in this phase: marks where an operation
    /// starts and ends, for [`HostSpeed::local_factor`].
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// What the times of an operation during which samples `from..to`
    /// were taken are multiplied by to give the nominal host's times. The
    /// samples are widened evenly on both sides to at least [`LOCAL_MIN`]
    /// of the phase's (all of them when it has fewer), so each operation
    /// is scaled by the host's speed around it and a change of speed
    /// within a run is followed.
    pub fn local_factor(&self, from: usize, to: usize) -> f64 {
        let n = self.samples.len();
        let want = LOCAL_MIN.min(n).max(1);
        let a0 = from.min(n);
        let (mut a, mut b) = (a0, to.clamp(a0, n));
        while b - a < want {
            a = a.saturating_sub(1);
            if b - a < want && b < n {
                b += 1;
            }
        }
        self.nominal_secs() / interquartile_mean(self.samples[a..b].to_vec())
    }

    /// Counts `secs` of workload time.
    pub fn count(&mut self, secs: f64) {
        self.owed += secs;
    }

    /// Whether the workload time counted calls for a sample.
    pub fn due(&self) -> bool {
        self.owed >= EVERY_SECS
    }

    /// Counts `secs` of workload time and takes the samples it calls for.
    pub fn maybe(&mut self, secs: f64) {
        self.count(secs);
        while self.due() {
            self.sample();
        }
    }

    /// The nominal host's time for one sample of this run's work.
    pub fn nominal_secs(&self) -> f64 {
        NOMINAL_CHUNKS_SECS + self.loopback.as_ref().map_or(0.0, |_| NOMINAL_TRIPS_SECS)
    }

    /// Interquartile mean of the phase's samples, seconds: the mean of
    /// the middle half, so a stray stall of one sample does not move it.
    pub fn typical_secs(&self) -> f64 {
        interquartile_mean(self.samples.clone())
    }

    /// Ends the current phase of the run (its set-ups, then its
    /// measurement): returns what a time measured in the phase is
    /// multiplied by to give the nominal host's time (rates are divided by
    /// it), with a note for the run's table. A phase too short to have
    /// called for a sample takes one now. The next phase starts with no
    /// samples, so each time is scaled by the host's speed while it ran.
    pub fn end_phase(&mut self, phase: &str) -> (f64, String) {
        if self.samples.is_empty() {
            self.sample();
        }
        let factor = self.nominal_secs() / self.typical_secs();
        let chunks = interquartile_mean(self.parts.iter().map(|p| p.0).collect());
        let trips = interquartile_mean(self.parts.iter().map(|p| p.1).collect());
        let note = format!(
            "host speed in {phase}: reference {:.3} ms (chunks {:.3} + round trips {:.3}; \
             interquartile means of {}), nominal {:.3} ms, times x {factor:.4}",
            self.typical_secs() * 1e3,
            chunks * 1e3,
            trips * 1e3,
            self.samples.len(),
            self.nominal_secs() * 1e3,
        );
        self.samples.clear();
        self.parts.clear();
        self.owed = 0.0;
        (factor, note)
    }
}

/// Mean of the middle half of `v` (all of it when it has fewer than 4
/// values; 0 when empty).
fn interquartile_mean(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = &v[v.len() / 4..v.len() - v.len() / 4];
    mid.iter().sum::<f64>() / mid.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_scale_to_the_nominal_host() {
        for work in [Work::Compute, Work::ComputeAndWakeups] {
            let mut s = HostSpeed::new(work);
            s.sample();
            s.sample();
            assert_eq!(s.samples.len(), 2);
            let typical = s.typical_secs();
            assert!(typical > 0.0);
            let (factor, note) = s.end_phase("set-up");
            assert!((factor * typical - s.nominal_secs()).abs() < 1e-12);
            assert!(note.contains("set-up"));
            assert!(s.samples.is_empty() && s.parts.is_empty());
            s.sample();
            assert_eq!(s.parts[0].1 > 0.0, work == Work::ComputeAndWakeups);
        }
    }

    #[test]
    fn local_factors_widen_to_enough_samples() {
        let mut s = HostSpeed::new(Work::Compute);
        s.samples = (1..=20).map(f64::from).collect();
        let n = s.nominal_secs();
        // 10 11 12 13 14 15 16 17: the middle half is 12..=15.
        assert_eq!(s.local_factor(9, 17), n / 13.5);
        // One sample widens to 8 around it: 7..=14, middle half 9..=12.
        assert_eq!(s.local_factor(10, 11), n / 10.5);
        // At the ends the widening runs one way: 1..=8 and 13..=20.
        assert_eq!(s.local_factor(0, 0), n / 4.5);
        assert_eq!(s.local_factor(20, 20), n / 16.5);
        s.samples = vec![2.0, 4.0];
        assert_eq!(s.local_factor(1, 1), n / 3.0);
    }

    #[test]
    fn samples_follow_workload_time() {
        let mut s = HostSpeed::new(Work::Compute);
        s.maybe(EVERY_SECS / 2.0);
        assert_eq!(s.samples.len(), 0);
        s.maybe(EVERY_SECS / 2.0);
        assert_eq!(s.samples.len(), 1);
        s.maybe(2.5 * EVERY_SECS);
        assert_eq!(s.samples.len(), 3);
        assert!(!s.due());
    }

    #[test]
    fn the_typical_time_is_the_interquartile_mean() {
        let mut s = HostSpeed::new(Work::Compute);
        s.samples = vec![9.0, 1.0, 2.0, 3.0, 100.0, 4.0, 5.0, 0.0];
        // Sorted 0 1 2 3 4 5 9 100; the middle half is 2 3 4 5.
        assert_eq!(s.typical_secs(), 3.5);
        s.samples = vec![7.0];
        assert_eq!(s.typical_secs(), 7.0);
    }
}
