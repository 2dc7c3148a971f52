//! Deterministic fork-join execution for the matmul kernels.
//!
//! Parallelism here is *schedule-first*: a kernel may only run multi-core
//! under a [`crate::sched::ReductionSchedule`] that the parallel-safety
//! certifier (`analysis::par`) has proven bit-equivalent to the
//! sequential order. The executor in this module implements exactly the
//! schedule shape the certifier reasons about — contiguous ascending
//! output-row chunks, one worker per chunk, no shared mutable state —
//! so certifying the descriptor certifies the execution.
//!
//! Why row splits are bit-safe: every reduction in the three matmul
//! orientations accumulates along `k` *within one output element*, and an
//! output row is owned by exactly one worker. Splitting `m` therefore
//! reorders only independent elements, never the contributions inside one
//! sum — the same argument the cache-blocked kernels already rely on.
//! Splitting `k` would chop reduction chains across workers and is
//! rejected by the certifier (see `analysis::par`).
//!
//! Worker count comes from `DATAVIST5_THREADS` (default 1, clamped to
//! [`MAX_THREADS`]); [`set_threads`] overrides it in-process for tests
//! and benches. Thread spawn/join costs real time, so kernels only go
//! parallel above [`PAR_MIN_ELEMS`] multiply-accumulates.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

pub use obs::Phase;

/// Upper bound on worker threads; also bounds the static per-worker label
/// tables used for kernel attribution.
pub const MAX_THREADS: usize = 8;

/// Minimum `m·k·n` multiply-accumulates **per forked worker**. The
/// executor spawns OS threads per kernel call (tens of microseconds of
/// spawn/join each), so every worker must own enough arithmetic to
/// amortize its own fork. On the `avx512f` kernel arm, 256K MACs take
/// 15–62 µs across the three orientations (best of 7×200 calls at
/// 64×64×64, 16×128×128 and 256×32×32 on a 2-vCPU x86-64 VM; 26–63 µs
/// on the baseline arm). That is about one fork's cost, so at this
/// floor a fork roughly breaks even rather than clearly paying.
///
/// This floor being *per worker* (not a single total-work threshold) is
/// what fixes the decode-time parallelism collapse: a decode-step GEMM
/// is ~32K MACs, which under the old total-work threshold (4096) forked
/// 4 workers of ~8K MACs each and ran ~6.8× slower at 4 threads than
/// at 1 thread. Now such kernels stay sequential, and the worker count
/// scales smoothly with kernel size: `elems / PAR_MIN_ELEMS` workers,
/// capped by the configured thread count and the row count.
pub const PAR_MIN_ELEMS: usize = 262_144;

/// Configured worker count; 0 means "not yet read from the environment".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Phase hint for per-thread kernel attribution: `Graph::backward` flips
/// it around the backward sweep so worker samples land under `bwd`.
static PHASE: AtomicU8 = AtomicU8::new(0);

/// The configured worker-thread count (1 = fully sequential). Reads
/// `DATAVIST5_THREADS` once, then caches; [`set_threads`] overrides.
pub fn threads() -> usize {
    // par-ok: THREADS is a config cell written once at init (or by set_threads); readers only pick a worker count, results are bit-identical at any count
    let cached = THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let configured = std::env::var("DATAVIST5_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(1)
        .clamp(1, MAX_THREADS);
    // par-ok: same config cell as above; a racing first read stores the same env-derived value
    THREADS.store(configured, Ordering::Relaxed);
    configured
}

/// Overrides the worker count in-process (tests, benches, thread sweeps).
/// Values are clamped to `1..=MAX_THREADS`.
pub fn set_threads(n: usize) {
    // par-ok: config cell write; kernels are certified bit-identical at every worker count, so torn timing with in-flight kernels cannot change results
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Sets the attribution phase hint and returns a guard that restores
/// `Forward` when dropped.
pub fn phase_scope(phase: Phase) -> PhaseGuard {
    // par-ok: attribution hint only; it labels obs samples and never feeds computation
    PHASE.store(phase_code(phase), Ordering::Relaxed);
    PhaseGuard
}

/// The phase worker samples are currently attributed to.
pub fn current_phase() -> Phase {
    // par-ok: attribution hint only; it labels obs samples and never feeds computation
    match PHASE.load(Ordering::Relaxed) {
        1 => Phase::Backward,
        2 => Phase::Optimizer,
        _ => Phase::Forward,
    }
}

fn phase_code(phase: Phase) -> u8 {
    match phase {
        Phase::Forward => 0,
        Phase::Backward => 1,
        Phase::Optimizer => 2,
    }
}

/// Restores the attribution phase to `Forward` on drop.
pub struct PhaseGuard;

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        // par-ok: attribution hint only; it labels obs samples and never feeds computation
        PHASE.store(0, Ordering::Relaxed);
    }
}

/// How many workers a kernel with `rows` output rows and `elems` total
/// multiply-accumulates should fork: the configured thread count, capped
/// by the row count and by `elems / PAR_MIN_ELEMS` so every forked
/// worker owns at least [`PAR_MIN_ELEMS`] MACs. Small kernels therefore
/// run sequentially and mid-size kernels fork fewer workers than the
/// configured maximum — the thread sweep stays monotone instead of
/// collapsing on spawn overhead.
pub fn plan_workers(rows: usize, elems: usize) -> usize {
    let t = threads();
    if t <= 1 || rows < 2 {
        return 1;
    }
    t.min(rows).min((elems / PAR_MIN_ELEMS).max(1))
}

/// Splits `rows` into `workers` contiguous ascending `[lo, hi)` chunks,
/// front-loading the remainder (ceil-division). This single function is
/// both the execution plan (`run_row_chunks`) and the declared schedule
/// (`sched::declared_schedules`) — they cannot drift apart.
pub fn row_chunks(rows: usize, workers: usize) -> Vec<(usize, usize)> {
    let w = workers.clamp(1, rows.max(1));
    let base = rows / w;
    let extra = rows % w;
    let mut chunks = Vec::with_capacity(w);
    let mut lo = 0;
    for i in 0..w {
        let hi = lo + base + usize::from(i < extra);
        chunks.push((lo, hi));
        lo = hi;
    }
    chunks
}

/// Static per-worker op labels: `obs::record_kernel` takes `&'static str`
/// and worker identity must survive the thread join.
fn worker_label(kernel: &'static str, worker: usize) -> &'static str {
    const MM_NN: [&str; 8] = [
        "mm_nn.par.t0",
        "mm_nn.par.t1",
        "mm_nn.par.t2",
        "mm_nn.par.t3",
        "mm_nn.par.t4",
        "mm_nn.par.t5",
        "mm_nn.par.t6",
        "mm_nn.par.t7",
    ];
    const MM_NT: [&str; 8] = [
        "mm_nt.par.t0",
        "mm_nt.par.t1",
        "mm_nt.par.t2",
        "mm_nt.par.t3",
        "mm_nt.par.t4",
        "mm_nt.par.t5",
        "mm_nt.par.t6",
        "mm_nt.par.t7",
    ];
    const MM_TN: [&str; 8] = [
        "mm_tn.par.t0",
        "mm_tn.par.t1",
        "mm_tn.par.t2",
        "mm_tn.par.t3",
        "mm_tn.par.t4",
        "mm_tn.par.t5",
        "mm_tn.par.t6",
        "mm_tn.par.t7",
    ];
    let table = match kernel {
        "mm_nn" => &MM_NN,
        "mm_nt" => &MM_NT,
        "mm_tn" => &MM_TN,
        other => panic!("no worker labels for kernel {other}"),
    };
    table[worker.min(MAX_THREADS - 1)]
}

/// Fork-join executor for a row-split schedule: carves `c` into the
/// disjoint row chunks of `chunks` (each `row_width` floats wide), runs
/// `body(worker, (lo, hi), chunk)` on one scoped thread per chunk, and
/// joins them all before returning.
///
/// Workers share nothing mutable — each owns its `&mut` chunk exclusively
/// by construction — and communicate only through the join, which is what
/// makes the certifier's sequential-equivalence argument apply to the
/// execution and keeps this loop P006-clean (no channels, no locks).
/// When observability is on, each worker self-times with the sanctioned
/// `obs::clock` and the parent records one sample per worker after the
/// join, attributed to the current [`phase_scope`].
pub fn run_row_chunks<F>(
    kernel: &'static str,
    c: &mut [f32],
    row_width: usize,
    chunks: &[(usize, usize)],
    body: F,
) where
    F: Fn(usize, (usize, usize), &mut [f32]) + Sync,
{
    let profiling = obs::enabled();
    let phase = current_phase();
    let mut timings = vec![0u64; chunks.len()];
    std::thread::scope(|scope| {
        let mut rest = &mut *c;
        let mut handles = Vec::with_capacity(chunks.len());
        for (worker, &(lo, hi)) in chunks.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut((hi - lo) * row_width);
            rest = tail;
            let body = &body;
            handles.push(scope.spawn(move || {
                let started = if profiling { obs::clock::now_ns() } else { 0 };
                body(worker, (lo, hi), chunk);
                if profiling {
                    obs::clock::now_ns().saturating_sub(started)
                } else {
                    0
                }
            }));
        }
        for (worker, handle) in handles.into_iter().enumerate() {
            timings[worker] = handle.join().expect("parallel kernel worker panicked");
        }
    });
    if profiling {
        for (worker, &ns) in timings.iter().enumerate() {
            obs::profile::record_kernel(worker_label(kernel, worker), phase, ns, 0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_chunks_tile_exactly() {
        for rows in 1..40 {
            for workers in 1..10 {
                let chunks = row_chunks(rows, workers);
                assert_eq!(chunks.len(), workers.min(rows));
                assert_eq!(chunks[0].0, 0);
                assert_eq!(chunks.last().unwrap().1, rows);
                for pair in chunks.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0, "chunks must be contiguous");
                    assert!(pair[0].1 > pair[0].0, "chunks must be non-empty");
                }
                // Balanced: sizes differ by at most one row.
                let sizes: Vec<usize> = chunks.iter().map(|(a, b)| b - a).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1);
            }
        }
    }

    #[test]
    fn plan_workers_gives_every_fork_a_full_floor_of_work() {
        set_threads(4);
        assert_eq!(plan_workers(64, PAR_MIN_ELEMS * 4), 4, "work for all");
        assert_eq!(
            plan_workers(64, PAR_MIN_ELEMS * 2),
            2,
            "scales down so each worker still owns PAR_MIN_ELEMS"
        );
        assert_eq!(
            plan_workers(64, PAR_MIN_ELEMS * 2 - 1),
            1,
            "cannot feed two workers -> sequential"
        );
        assert_eq!(plan_workers(64, PAR_MIN_ELEMS - 1), 1, "tiny kernel");
        assert_eq!(
            plan_workers(64, 8 * 64 * 64),
            1,
            "a decode-step GEMM stays sequential (the old 4-thread collapse)"
        );
        assert_eq!(plan_workers(1, PAR_MIN_ELEMS * 10), 1, "single row");
        assert_eq!(plan_workers(3, PAR_MIN_ELEMS * 10), 3, "capped by rows");
        set_threads(1);
        assert_eq!(plan_workers(64, PAR_MIN_ELEMS * 10), 1, "threads=1");
    }

    #[test]
    fn set_threads_clamps() {
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(100);
        assert_eq!(threads(), MAX_THREADS);
        set_threads(1);
    }

    #[test]
    fn run_row_chunks_carves_disjoint_rows() {
        let rows = 7;
        let width = 3;
        let mut c = vec![0.0f32; rows * width];
        let chunks = row_chunks(rows, 3);
        run_row_chunks(
            "mm_nn",
            &mut c,
            width,
            &chunks,
            |worker, (lo, hi), chunk| {
                assert_eq!(chunk.len(), (hi - lo) * width);
                for (r, row) in chunk.chunks_mut(width).enumerate() {
                    for v in row.iter_mut() {
                        *v = (worker * 100 + lo + r) as f32;
                    }
                }
            },
        );
        // Every row was written exactly once, by the worker owning it.
        for (w, &(lo, hi)) in chunks.iter().enumerate() {
            for r in lo..hi {
                for x in &c[r * width..(r + 1) * width] {
                    assert_eq!(*x, (w * 100 + r) as f32);
                }
            }
        }
    }

    #[test]
    fn phase_scope_restores_forward() {
        assert_eq!(current_phase(), Phase::Forward);
        {
            let _guard = phase_scope(Phase::Backward);
            assert_eq!(current_phase(), Phase::Backward);
        }
        assert_eq!(current_phase(), Phase::Forward);
    }
}
