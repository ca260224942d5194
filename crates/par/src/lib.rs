//! # apots-par
//!
//! An in-house scoped thread pool for the hermetic APOTS workspace —
//! the parallel substrate behind the tensor kernels, the Conv2d
//! lowering, the Adam update, and the experiment-grid fan-out.
//!
//! ## Design (see DESIGN.md §9 for the full contract)
//!
//! * **Persistent workers.** Worker threads are spawned once, on demand,
//!   and then live for the process. A parallel call publishes a *job*
//!   (an erased `Fn(usize)` plus an atomic task counter) to a shared
//!   queue; workers and the calling thread cooperatively claim task
//!   indices with `fetch_add` until the job is exhausted. The caller
//!   blocks until every claimed task has finished, which is what makes
//!   borrowing stack data from the closure sound.
//! * **Chunked index-range scheduling.** [`parallel_for`] splits
//!   `0..len` into contiguous chunks (never smaller than the caller's
//!   `grain`) and runs the chunk closure across threads. Because APOTS
//!   kernels are *output-partitioned* — each chunk owns a disjoint slice
//!   of the output and every output element keeps its serial reduction
//!   order — results are **bit-identical for any thread count**.
//! * **`APOTS_THREADS` knob.** Thread count resolves, in order: a
//!   runtime override ([`set_threads`]), the `APOTS_THREADS` environment
//!   variable (read once), and `std::thread::available_parallelism`.
//!   `1` selects the exact serial path: closures run inline on the
//!   caller, no worker is ever touched.
//! * **Panic propagation.** A panic inside a task poisons the job
//!   (remaining tasks are skipped), is captured, and is re-raised on the
//!   calling thread via `resume_unwind` once the job has drained — a
//!   crashing parallel kernel therefore behaves exactly like a crashing
//!   serial one.
//! * **Nested calls run inline.** A parallel call issued from inside a
//!   worker (or from a task executing on the caller) is executed
//!   serially on the current thread. This makes nesting deadlock-free
//!   and keeps the outermost level the only source of fan-out (e.g. an
//!   experiment grid running on the pool while its inner matmuls stay
//!   serial per run).
//!
//! The pool is in-house rather than `rayon`/`crossbeam` because of the
//! PR-1 hermetic contract: the workspace builds offline with zero
//! external crates.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// --------------------------------------------------------------------------
// Thread-count resolution.
// --------------------------------------------------------------------------

/// Runtime override set by [`set_threads`]; `0` means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `APOTS_THREADS` (or hardware parallelism), resolved once per process.
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("APOTS_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// The effective thread count for parallel regions.
///
/// Resolution order: [`set_threads`] override → `APOTS_THREADS` env var
/// (parsed once) → available hardware parallelism. Always ≥ 1; `1`
/// means every parallel helper degenerates to the exact serial path.
pub fn current_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_threads(),
        n => n,
    }
}

/// Overrides the thread count at runtime (`n ≥ 1`). Used by benchmarks
/// and the serial/parallel equality suites to pin both sides of a
/// comparison; long-running binaries expose it as `--threads`.
///
/// # Panics
/// Panics if `n == 0` (use `1` for the serial path).
pub fn set_threads(n: usize) {
    assert!(n >= 1, "set_threads: thread count must be >= 1 (got 0)");
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Clears the [`set_threads`] override, falling back to the
/// environment/hardware resolution.
pub fn reset_threads() {
    THREAD_OVERRIDE.store(0, Ordering::Relaxed);
}

// --------------------------------------------------------------------------
// The job: one parallel region, shared between caller and workers.
// --------------------------------------------------------------------------

/// Type-erased pointer to the caller's task closure.
///
/// The pointee lives on the caller's stack; the caller blocks inside
/// [`Pool::run_tasks`] until `done == n_tasks`, so the pointer never
/// dangles while a worker can still dereference it.
struct TaskRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from several threads are
// fine) and outlives the job by the blocking argument above.
unsafe impl Send for TaskRef {}
unsafe impl Sync for TaskRef {}

struct Job {
    task: TaskRef,
    n_tasks: usize,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Number of tasks that have finished (run, skipped, or panicked).
    done: AtomicUsize,
    /// Number of distinct threads that claimed at least one task —
    /// the per-region utilization figure (`par.region` telemetry).
    runners: AtomicUsize,
    /// Set on the first panic; later tasks are skipped (but counted).
    poisoned: AtomicBool,
    /// First panic payload, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion latch the caller waits on.
    complete: Mutex<bool>,
    complete_cv: Condvar,
}

impl Job {
    /// Claims and executes tasks until the index space is exhausted.
    fn execute(&self) {
        let mut claimed_any = false;
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.n_tasks {
                break;
            }
            if !claimed_any {
                claimed_any = true;
                self.runners.fetch_add(1, Ordering::Relaxed);
            }
            if !self.poisoned.load(Ordering::SeqCst) {
                // SAFETY: see `TaskRef` — the closure outlives the job.
                let task = unsafe { &*self.task.0 };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                    self.poisoned.store(true, Ordering::SeqCst);
                    let mut slot = self.panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            let finished = self.done.fetch_add(1, Ordering::SeqCst) + 1;
            if finished == self.n_tasks {
                let mut done = self.complete.lock().unwrap();
                *done = true;
                self.complete_cv.notify_all();
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::SeqCst) >= self.n_tasks
    }
}

// --------------------------------------------------------------------------
// The pool: a process-wide queue plus on-demand persistent workers.
// --------------------------------------------------------------------------

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
}

/// The process-wide thread pool. Obtain it with [`pool`]; most callers
/// use the free functions ([`parallel_for`], [`parallel_items`],
/// [`parallel_chunks_mut`]) instead.
pub struct Pool {
    shared: Arc<PoolShared>,
    /// Number of workers spawned so far (grown on demand, never shrunk).
    workers: Mutex<usize>,
}

thread_local! {
    /// `true` while this thread is executing pool tasks — used to run
    /// nested parallel regions inline (deadlock freedom).
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is already inside a parallel region (a
/// worker, or a caller executing its own tasks). Nested regions run
/// serially inline.
pub fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(Cell::get)
}

/// The process-wide [`Pool`].
pub fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
        }),
        workers: Mutex::new(0),
    })
}

impl Pool {
    /// Spawns persistent workers until at least `target` exist.
    fn ensure_workers(&self, target: usize) {
        let mut count = self.workers.lock().unwrap();
        while *count < target {
            let shared = Arc::clone(&self.shared);
            let id = *count;
            std::thread::Builder::new()
                .name(format!("apots-par-{id}"))
                .spawn(move || worker_loop(&shared))
                .expect("apots-par: failed to spawn worker thread");
            *count += 1;
        }
        apots_obs::metrics::GAUGE_PAR_WORKERS.raise(*count as u64);
    }

    /// Runs `task(i)` for every `i in 0..n_tasks`, cooperatively across
    /// the pool and the calling thread. Blocks until all tasks finished;
    /// re-raises the first task panic on the caller.
    ///
    /// Serial path: with one effective thread, zero/one task, or when
    /// called from inside another parallel region, tasks run inline in
    /// index order on the current thread.
    pub fn run_tasks(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        let threads = current_threads();
        if n_tasks <= 1 || threads <= 1 || in_parallel_region() {
            apots_obs::metrics::PAR_REGIONS_INLINE.bump();
            for i in 0..n_tasks {
                task(i);
            }
            return;
        }
        // Caller participates, so n-1 workers give n runners.
        self.ensure_workers(threads - 1);

        // SAFETY (lifetime erasure): the reference is valid for the whole
        // body of this function, and we do not return before `done ==
        // n_tasks` (the completion latch below), so no worker can observe
        // a dangling pointer.
        let task_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
        let job = Arc::new(Job {
            task: TaskRef(task_static as *const _),
            n_tasks,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            runners: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            complete: Mutex::new(false),
            complete_cv: Condvar::new(),
        });

        {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.push_back(Arc::clone(&job));
        }
        self.shared.work_cv.notify_all();

        // The caller helps; its own nested parallel calls run inline.
        IN_PARALLEL_REGION.with(|f| f.set(true));
        job.execute();
        IN_PARALLEL_REGION.with(|f| f.set(false));
        self.retire(&job);

        // Wait for tasks claimed by workers to drain.
        let mut done = job.complete.lock().unwrap();
        while !*done {
            done = job.complete_cv.wait(done).unwrap();
        }
        drop(done);

        // Per-region utilization telemetry (`det: false` — the runner
        // count depends on scheduling). One relaxed load when disabled.
        if apots_obs::enabled() {
            apots_obs::metrics::PAR_REGIONS_POOLED.bump();
            apots_obs::metrics::PAR_TASKS.add(n_tasks as u64);
            apots_obs::value2(
                "par.region",
                false,
                n_tasks as f64,
                job.runners.load(Ordering::Relaxed) as f64,
            );
        }

        let payload = job.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Removes an exhausted job from the queue (idempotent).
    fn retire(&self, job: &Arc<Job>) {
        let mut queue = self.shared.queue.lock().unwrap();
        queue.retain(|j| !Arc::ptr_eq(j, job));
    }
}

fn worker_loop(shared: &Arc<PoolShared>) {
    IN_PARALLEL_REGION.with(|f| f.set(true));
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                // Drop already-exhausted jobs, then take the front one.
                while queue.front().is_some_and(|j| j.exhausted()) {
                    queue.pop_front();
                }
                match queue.front() {
                    Some(j) => break Arc::clone(j),
                    None => queue = shared.work_cv.wait(queue).unwrap(),
                }
            }
        };
        job.execute();
        let mut queue = shared.queue.lock().unwrap();
        queue.retain(|j| !Arc::ptr_eq(j, &job));
    }
}

// --------------------------------------------------------------------------
// Safe high-level helpers.
// --------------------------------------------------------------------------

/// Runs `f` over disjoint contiguous subranges of `0..len` in parallel.
///
/// Chunks are never smaller than `grain` (except the last), and the
/// partition depends only on `len`, `grain` and the thread count — not
/// on scheduling — so side effects on disjoint outputs are reproducible.
/// With one effective thread (or nested) this is exactly `f(0..len)`.
pub fn parallel_for<F>(len: usize, grain: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if len == 0 {
        return;
    }
    let threads = current_threads();
    let grain = grain.max(1);
    if threads <= 1 || len <= grain || in_parallel_region() {
        f(0..len);
        return;
    }
    // At most ~2 chunks per runner keeps scheduling overhead low while
    // still smoothing imbalance; chunks stay >= grain.
    let max_chunks = len.div_ceil(grain);
    let n_chunks = max_chunks.min(threads * 2).max(1);
    let chunk = len.div_ceil(n_chunks);
    let n_chunks = len.div_ceil(chunk);
    pool().run_tasks(n_chunks, &|ci| {
        let start = ci * chunk;
        let end = (start + chunk).min(len);
        if start < end {
            f(start..end);
        }
    });
}

/// Consumes `items`, running `f` on each one in parallel. Each item is
/// handed to exactly one invocation, so `&mut` borrows can ride inside
/// the items (the idiom behind every output-partitioned kernel:
/// pre-split the output with `chunks_mut`, zip in whatever shared inputs
/// each chunk needs, and let the pool run the pieces).
pub fn parallel_items<I, F>(items: Vec<I>, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    if items.is_empty() {
        return;
    }
    struct Slots<'a, I>(&'a [UnsafeCell<Option<I>>]);
    // SAFETY: each slot is taken by exactly one task (task indices are
    // claimed uniquely via `fetch_add`), so access is disjoint.
    unsafe impl<I: Send> Sync for Slots<'_, I> {}
    impl<I> Slots<'_, I> {
        fn take(&self, i: usize) -> Option<I> {
            // SAFETY: index `i` is claimed exactly once (see above).
            unsafe { (*self.0[i].get()).take() }
        }
    }

    let slots: Vec<UnsafeCell<Option<I>>> = items
        .into_iter()
        .map(|i| UnsafeCell::new(Some(i)))
        .collect();
    let view = Slots(&slots);
    pool().run_tasks(slots.len(), &|i| {
        if let Some(item) = view.take(i) {
            f(item);
        }
    });
}

/// Splits `data` into consecutive chunks of `chunk_len` elements and
/// runs `f(chunk_index, chunk)` on each in parallel. Chunk boundaries
/// are deterministic; the last chunk may be short.
///
/// With one effective thread (or when nested in a parallel region) the
/// chunks run inline in ascending order with **no allocation** — the
/// items `Vec` is only built when work actually fans out to the pool.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    if n_chunks <= 1 || current_threads() <= 1 || in_parallel_region() {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let items: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_len).enumerate().collect();
    parallel_items(items, |(i, chunk)| f(i, chunk));
}

/// Picks a per-chunk row count so that roughly `threads * 2` chunks
/// cover `rows`, but no chunk does less than `min_rows` rows of work.
/// Deterministic in its inputs (used by kernels to keep partitioning
/// reproducible for a given thread count — though results never depend
/// on it).
pub fn rows_per_chunk(rows: usize, min_rows: usize) -> usize {
    let threads = current_threads().max(1);
    rows.div_ceil(threads * 2).max(min_rows.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serializes tests that toggle the global thread override.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn serial_path_runs_inline_in_order() {
        let _g = guard();
        set_threads(1);
        let seen = Mutex::new(Vec::new());
        pool().run_tasks(8, &|i| seen.lock().unwrap().push(i));
        reset_threads();
        // With one effective thread the tasks run inline, in index order.
        assert_eq!(seen.into_inner().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        let _g = guard();
        set_threads(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        parallel_for(1000, 16, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        reset_threads();
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn parallel_items_consumes_each_item_once() {
        let _g = guard();
        set_threads(3);
        let sum = AtomicU64::new(0);
        parallel_items((1..=100u64).collect(), |v| {
            sum.fetch_add(v, Ordering::SeqCst);
        });
        reset_threads();
        assert_eq!(sum.load(Ordering::SeqCst), 5050);
    }

    #[test]
    fn parallel_chunks_mut_writes_disjoint_output() {
        let _g = guard();
        set_threads(4);
        let mut data = vec![0usize; 103];
        parallel_chunks_mut(&mut data, 10, |ci, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = ci * 10 + k;
            }
        });
        reset_threads();
        let expect: Vec<usize> = (0..103).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn panic_in_worker_propagates_to_caller() {
        let _g = guard();
        set_threads(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(64, 1, |range| {
                if range.contains(&13) {
                    panic!("boom at 13");
                }
            });
        }));
        reset_threads();
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom at 13"), "unexpected payload: {msg}");
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        let _g = guard();
        set_threads(2);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(8, 1, |_| panic!("first job dies"));
        }));
        // The pool must still execute subsequent jobs to completion.
        let sum = AtomicU64::new(0);
        parallel_for(100, 1, |range| {
            for i in range {
                sum.fetch_add(i as u64, Ordering::SeqCst);
            }
        });
        reset_threads();
        assert_eq!(sum.load(Ordering::SeqCst), 4950);
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        let _g = guard();
        set_threads(4);
        let total = AtomicU64::new(0);
        parallel_for(8, 1, |outer| {
            for _ in outer {
                // Nested region: must run inline on this thread.
                parallel_for(8, 1, |inner| {
                    assert!(in_parallel_region());
                    total.fetch_add(inner.len() as u64, Ordering::SeqCst);
                });
            }
        });
        reset_threads();
        assert_eq!(total.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn set_threads_rejects_zero() {
        let r = catch_unwind(|| set_threads(0));
        assert!(r.is_err());
    }

    #[test]
    fn thread_resolution_prefers_override() {
        let _g = guard();
        set_threads(7);
        assert_eq!(current_threads(), 7);
        reset_threads();
        assert!(current_threads() >= 1);
    }

    #[test]
    fn rows_per_chunk_respects_floor() {
        let _g = guard();
        set_threads(4);
        assert!(rows_per_chunk(1000, 8) >= 8);
        assert_eq!(rows_per_chunk(4, 16), 16);
        reset_threads();
    }
}
