//! Hot numeric loops shared by the forward and backward passes.
//!
//! The matmul kernels come in the three orientations the backward pass
//! needs (`C = A·B`, `C = A·Bᵀ`, `C = Aᵀ·B`), each with an `accumulate`
//! flag so gradient contributions can be summed in place without a scratch
//! buffer. Two attention kernels serve the batched decoder's one-row
//! steps: [`attend_scores`] and [`attend_context`].
//!
//! # Lane ownership
//!
//! Every kernel gives each output element `C[i,j]` exactly one reduction
//! chain: it starts at +0.0 (or at the old `C[i,j]`, per kernel), walks
//! `k` in ascending order, and adds each contribution `a·b` with a
//! separate multiply and add. Rust never contracts the two into an FMA,
//! so every step rounds exactly like the scalar loop. What the kernels
//! are free to change is *which* independent elements run together:
//!
//! * `mm_nn` and `mm_tn` share one register tile: `MM_MR` rows by
//!   `MM_NC` (32) columns of `C` stay in registers, one SIMD lane per
//!   output element, for the whole `k` sweep, reading rows of `B` and
//!   `C` in place. The columns split as `mm_column_tiles` says: 32 wide,
//!   one 16-wide tile for a remainder of 16–31 columns, and a narrower
//!   tail one column at a time. The two orientations differ only in where
//!   `A(i,p)` lives (`a[i·k+p]` or `a[p·m+i]`), and both keep the
//!   unblocked loops' exact-zero skip per row: a lane adds nothing when
//!   its row's `A(i,p)` is ±0.0.
//! * `mm_nt` is a register tile: `MM_MR` rows by `MM_NR` columns of
//!   `C` accumulate in `[f32; MM_NR]` arrays, one SIMD lane per output
//!   element, against a panel of `B` packed `[k][MM_NR]` so each lane's
//!   operand is contiguous. A last group of 1–3 rows runs as one tile.
//! * The decode attention kernels work on one query row. `attend_scores`
//!   reads keys transposed (`[d, stride]`), with lanes over up to 32
//!   consecutive keys; each lane is one `mm_nt` chain over its head's
//!   `dh` products. `attend_context` holds `MM_MR` heads by up to 32
//!   columns in registers for one pass over the value rows; each lane is
//!   one `mm_nn` chain over ascending rows, with its exact-zero skip per
//!   (head, row). Both cover a ragged length with full-width windows, the
//!   last one moved back to end at the edge: a lane two windows share
//!   runs its whole chain twice and stores the same bits.
//!
//! Tiling only regroups whole chains, so the results are bit-identical to
//! the unblocked loops kept in this module's tests
//! (`blocked_kernels_match_unblocked_bitwise`, and for attention the
//! decoder's former per-head loops in
//! `attention_kernels_match_the_scalar_loops_bitwise`), which the
//! batched-decode differential suites rely on.
//!
//! # Arms
//!
//! Each serial body is one `#[inline(always)]` function compiled three
//! times, once per `Arm`: for the baseline target (4-lane SSE on x86-64),
//! and on x86-64 also inside `#[target_feature(enable = "avx2")]` (8
//! lanes) and `#[target_feature(enable = "avx512f")]` (16 lanes)
//! wrappers. This holds for the matmul bodies and the two attention
//! bodies alike. Every arm runs the same tile shapes: a row of the 4×32
//! tile (or a 32-lane attention window) is eight SSE, four AVX2 or two
//! AVX-512 registers, and a row of
//! the 4×8 `mm_nt` tile is two SSE registers, one AVX2 register or half
//! an AVX-512 one. The process runs the widest arm its CPU supports,
//! detected once ([`arm_name`] names it). Lane width cannot move a bit:
//! each lane is still one chain of separate multiplies and adds, and
//! although `avx512f` implies the `fma` target feature, Rust emits no
//! contraction, so a wide lane rounds every step exactly like a narrow
//! one. The kernel suites run under every arm the host supports.
//!
//! On top of the serial bodies sits a fork-join dispatch layer: when
//! `DATAVIST5_THREADS > 1` and the launch is big enough
//! (`par::plan_workers`), the output rows are split into the contiguous
//! ascending chunks of `par::row_chunks` and each worker runs the serial
//! body, on the same arm, on its own disjoint `&mut` row slice. Row splits
//! keep every ascending-`k` reduction chain inside one worker, so
//! multi-core results are bit-identical to single-core at any thread
//! count — the property the `analysis::par` schedule certifier proves
//! statically for the schedules `sched::declared_schedules` exposes (the
//! row splits, and the column tiles of `mm_column_tiles` and
//! `mm_nt_column_tiles`), and `parallel_dispatch_matches_serial_bitwise`
//! pins dynamically.

use std::cell::Cell;

/// Returns the index of the first non-finite (NaN/Inf) element, if any.
///
/// This is the numeric-sanitizer hook: the kernels themselves never scan
/// (a release-mode step pays nothing), and callers that opt in — the
/// `analysis` crate's sanitizer pass — scan recorded tape values on their
/// own schedule and report the offending op instead of asserting here.
pub fn first_nonfinite(x: &[f32]) -> Option<usize> {
    x.iter().position(|v| !v.is_finite())
}

pub(crate) use arm::{Arm, Isa};

/// Which instruction set the serial kernel bodies run on.
mod arm {
    use std::sync::OnceLock;

    /// The instruction sets the serial kernel bodies are compiled for,
    /// narrowest first. The wide ones exist only on x86-64.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Isa {
        /// The build target's own instructions (SSE on baseline x86-64).
        Baseline,
        #[cfg(target_arch = "x86_64")]
        Avx2,
        #[cfg(target_arch = "x86_64")]
        Avx512f,
    }

    impl Isa {
        pub(crate) const ALL: &'static [Isa] = &[
            Isa::Baseline,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f,
        ];

        pub(crate) fn name(self) -> &'static str {
            match self {
                Isa::Baseline => "baseline",
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => "avx2",
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512f => "avx512f",
            }
        }

        fn detected(self) -> bool {
            match self {
                Isa::Baseline => true,
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => std::is_x86_feature_detected!("avx2"),
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512f => std::is_x86_feature_detected!("avx512f"),
            }
        }
    }

    /// An [`Isa`] this CPU runs. The field is private to this module and
    /// only [`Arm::supported`] sets it, after `is_x86_feature_detected!`
    /// held, so holding an `Arm` proves the detection.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Arm(Isa);

    impl Arm {
        pub(crate) fn isa(self) -> Isa {
            self.0
        }

        /// The arms this CPU runs, narrowest first.
        pub(crate) fn supported() -> impl Iterator<Item = Arm> {
            Isa::ALL
                .iter()
                .filter(|isa| isa.detected())
                .map(|&isa| Arm(isa))
        }

        /// The widest arm this CPU runs, detected once per process.
        pub(crate) fn active() -> Arm {
            static ACTIVE: OnceLock<Arm> = OnceLock::new();
            *ACTIVE.get_or_init(|| Arm::supported().last().unwrap_or(Arm(Isa::Baseline)))
        }
    }
}

/// The arm the kernels run on in this process: `"avx512f"`,
/// `"avx2"` or `"baseline"`, the widest this CPU supports.
pub fn arm_name() -> &'static str {
    Arm::active().isa().name()
}

/// Defines `$serial(arm, args…)`, which runs the `#[inline(always)]` body
/// `$body(args…)` compiled for `arm`: as is for the baseline, and inside
/// a `#[target_feature]` wrapper for each wide arm.
macro_rules! per_arm {
    ($(#[$attr:meta])* fn $serial:ident = $body:ident($($arg:ident: $ty:ty),* $(,)?);) => {
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        fn $serial(arm: Arm, $($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            #[allow(clippy::too_many_arguments)]
            fn avx2($($arg: $ty),*) {
                $body($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            #[allow(clippy::too_many_arguments)]
            fn avx512f($($arg: $ty),*) {
                $body($($arg),*)
            }
            match arm.isa() {
                Isa::Baseline => $body($($arg),*),
                // SAFETY: an `Arm` of `Isa::Avx2` exists only after
                // `is_x86_feature_detected!("avx2")` held (`Arm::supported`).
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => unsafe { avx2($($arg),*) },
                // SAFETY: an `Arm` of `Isa::Avx512f` exists only after
                // `is_x86_feature_detected!("avx512f")` held (`Arm::supported`).
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512f => unsafe { avx512f($($arg),*) },
            }
        }
    };
}

/// Output rows per register tile, in every orientation.
pub(crate) const MM_MR: usize = 4;
/// Output columns per [`mm_nt`] register tile: the width of one
/// `[f32; MM_NR]` accumulator, i.e. two SSE registers of lanes, one AVX2
/// register or half an AVX-512 one, whichever arm runs.
pub(crate) const MM_NR: usize = 8;
/// Output columns per [`mm_nn`] / [`mm_tn`] register tile: a row of the
/// tile is eight SSE, four AVX2 or two AVX-512 registers of lanes.
pub(crate) const MM_NC: usize = 32;
/// The narrow [`mm_nn`] / [`mm_tn`] tile, for the last 16–31 columns.
const MM_NC_NARROW: usize = MM_NC / 2;

/// The `[lo, hi)` column ranges [`mm_nn`] and [`mm_tn`] tile `n` output
/// columns into: ascending and contiguous, [`MM_NC`] wide, then one
/// `MM_NC / 2` wide if at least that many columns remain, then the
/// narrower rest, which they run one column at a time. The kernels
/// iterate exactly these, and `sched::declared_schedules` collects them
/// into the tiles' certified schedules.
pub(crate) fn mm_column_tiles(n: usize) -> impl Iterator<Item = (usize, usize)> {
    let wide = n - n % MM_NC;
    let narrow = wide + (n - wide) / MM_NC_NARROW * MM_NC_NARROW;
    let tiles =
        |lo: usize, hi: usize, width: usize| (lo..hi).step_by(width).map(move |j| (j, j + width));
    tiles(0, wide, MM_NC)
        .chain(tiles(wide, narrow, MM_NC_NARROW))
        .chain((narrow < n).then_some((narrow, n)))
}

/// The `[lo, hi)` column ranges [`mm_nt`] tiles `n` output columns into:
/// ascending, contiguous, [`MM_NR`] wide with a narrower last tile. The
/// kernel iterates exactly these, and `sched::declared_schedules`
/// collects them into the tile's certified schedule.
pub(crate) fn mm_nt_column_tiles(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n)
        .step_by(MM_NR)
        .map(move |lo| (lo, (lo + MM_NR).min(n)))
}

/// `C = A·B` (or `C += A·B` when `accumulate`), with `A: [m,k]`, `B: [k,n]`,
/// `C: [m,n]`.
///
/// It runs as a 4×32 register tile (`MM_MR`×`MM_NC`) over the column
/// ranges of `mm_column_tiles`, reading rows of `B` and `C` in place.
/// Each lane owns one `C[i,j]`: it starts at the old value (or +0.0),
/// adds `a[i,p]·b[p,j]` for ascending `p` with a separate multiply and
/// add, and skips every `p` whose `a[i,p]` is exactly zero — the same
/// chain as the unblocked loop, so a zero meeting an infinite or NaN
/// `b[p,j]`, or a −0.0 in `C`, keeps its bits.
pub fn mm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, accumulate: bool) {
    let workers = crate::par::plan_workers(m, m * k * n);
    mm_nn_on(Arm::active(), workers, a, b, c, m, k, n, accumulate);
}

/// [`mm_nn`] on `arm`, forking `workers` row chunks (1 runs serially).
#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_nn_on(
    arm: Arm,
    workers: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    // hot-ok: shape contract at kernel entry — once per call, amortized over m*k*n work
    assert_eq!(
        a.len(),
        m * k,
        "mm_nn: A has {} elements, want m*k = {m}*{k}",
        a.len()
    );
    // hot-ok: shape contract at kernel entry — once per call, amortized over m*k*n work
    assert_eq!(
        b.len(),
        k * n,
        "mm_nn: B has {} elements, want k*n = {k}*{n}",
        b.len()
    );
    // hot-ok: shape contract at kernel entry — once per call, amortized over m*k*n work
    assert_eq!(
        c.len(),
        m * n,
        "mm_nn: C has {} elements, want m*n = {m}*{n}",
        c.len()
    );
    if workers <= 1 {
        let a = Strided { a, row: k, col: 1 };
        mm_tiled_serial(arm, a, b, c, m, k, n, accumulate);
        return;
    }
    let chunks = crate::par::row_chunks(m, workers);
    crate::par::run_row_chunks("mm_nn", c, n, &chunks, |_, (lo, hi), chunk| {
        let a = Strided {
            a: &a[lo * k..hi * k],
            row: k,
            col: 1,
        };
        mm_tiled_serial(arm, a, b, chunk, hi - lo, k, n, accumulate);
    });
}

/// The `A` operand of [`mm_nn`] or [`mm_tn`] as the shared tile reads it:
/// `A(i, p)` is `a[i·row + p·col]`, so `[m, k]` row-major for `mm_nn`
/// (`row = k`, `col = 1`) and `[k, m]` for `mm_tn` (`row = 1`, `col = m`).
#[derive(Clone, Copy)]
struct Strided<'a> {
    a: &'a [f32],
    row: usize,
    col: usize,
}

impl Strided<'_> {
    #[inline(always)]
    fn at(&self, i: usize, p: usize) -> f32 {
        self.a[i * self.row + p * self.col]
    }
}

per_arm! {
    /// Serial body of [`mm_nn`] and [`mm_tn`] on `arm`: `C = A·B` (or
    /// `C += A·B` when `acc`) over `rows` rows of `C`, `A` read through
    /// `a`. The parallel dispatch runs it per row chunk.
    fn mm_tiled_serial = mm_tiled_body(
        a: Strided<'_>,
        b: &[f32],
        c: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
        acc: bool,
    );
}

#[inline(always)]
fn mm_tiled_body(
    a: Strided<'_>,
    b: &[f32],
    c: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    for (j0, j1) in mm_column_tiles(n) {
        // `B` is empty when k = 0 and `C` when rows = 0; no tile reads
        // them then.
        let b = b.get(j0..).unwrap_or_default();
        let c = c.get_mut(j0..).unwrap_or_default();
        match j1 - j0 {
            MM_NC => column_tile::<MM_NC>(a, b, c, n, rows, k, acc),
            MM_NC_NARROW => column_tile::<MM_NC_NARROW>(a, b, c, n, rows, k, acc),
            // A tail narrower than the narrow tile runs one column at a
            // time: only small test models and LoRA ranks have one, no
            // benchmark workload.
            tail => {
                for j in 0..tail {
                    let (b, c) = (
                        b.get(j..).unwrap_or_default(),
                        c.get_mut(j..).unwrap_or_default(),
                    );
                    column_tile::<1>(a, b, c, n, rows, k, acc);
                }
            }
        }
    }
}

/// Every row of one column tile, in register tiles of [`MM_MR`] rows and
/// then of one. `b` and `c` are `B` and `C` from the tile's first column
/// on, both `n` floats per row. Lane `l` of tile row `r` owns `C[i0 + r,
/// l]`: it starts at the old value (`acc`) or +0.0, then for ascending `p`
/// adds `A(i0 + r, p) · B(p, l)` with a separate multiply and add, adding
/// nothing when `A(i0 + r, p)` is exactly zero — the unblocked loop's
/// chain.
#[inline(always)]
fn column_tile<const W: usize>(
    a: Strided<'_>,
    b: &[f32],
    c: &mut [f32],
    n: usize,
    rows: usize,
    k: usize,
    acc: bool,
) {
    let b_row = |p: usize| &b[p * n..p * n + W];
    let mut i0 = 0;
    while i0 + MM_MR <= rows {
        // Named rows rather than a loop over them: a loop over an
        // `[[f32; W]; MM_MR]` was left in memory and run as scalar code,
        // while named rows stay in vector registers across the `k` sweep.
        let at = |r: usize| (i0 + r) * n;
        let mut r0 = load_row::<W>(c, at(0), acc);
        let mut r1 = load_row::<W>(c, at(1), acc);
        let mut r2 = load_row::<W>(c, at(2), acc);
        let mut r3 = load_row::<W>(c, at(3), acc);
        for p in 0..k {
            let bp = b_row(p);
            add_products(&mut r0, a.at(i0, p), bp);
            add_products(&mut r1, a.at(i0 + 1, p), bp);
            add_products(&mut r2, a.at(i0 + 2, p), bp);
            add_products(&mut r3, a.at(i0 + 3, p), bp);
        }
        store_row(c, at(0), &r0);
        store_row(c, at(1), &r1);
        store_row(c, at(2), &r2);
        store_row(c, at(3), &r3);
        i0 += MM_MR;
    }
    for i in i0..rows {
        let mut r0 = load_row::<W>(c, i * n, acc);
        for p in 0..k {
            add_products(&mut r0, a.at(i, p), b_row(p));
        }
        store_row(c, i * n, &r0);
    }
}

/// One step of a tile row's chains: `lanes[l] += av · bp[l]`, or nothing
/// when `av` is exactly zero.
#[inline(always)]
fn add_products<const W: usize>(lanes: &mut [f32; W], av: f32, bp: &[f32]) {
    if av == 0.0 {
        return;
    }
    for (lane, &bv) in lanes.iter_mut().zip(bp) {
        *lane += av * bv;
    }
}

/// The starting lanes of a tile row: the `W` floats of `c` at `at` when
/// `acc`, else +0.0.
#[inline(always)]
fn load_row<const W: usize>(c: &[f32], at: usize, acc: bool) -> [f32; W] {
    let mut lanes = [0.0; W];
    if acc {
        lanes.copy_from_slice(&c[at..at + W]);
    }
    lanes
}

/// Writes a tile row's lanes back to the `W` floats of `c` at `at`.
#[inline(always)]
fn store_row<const W: usize>(c: &mut [f32], at: usize, lanes: &[f32; W]) {
    c[at..at + W].copy_from_slice(lanes);
}

/// `C = A·Bᵀ` (or `+=`), with `A: [m,k]`, `B: [n,k]`, `C: [m,n]`.
///
/// This is the tied-embedding logits orientation, the attention-score
/// orientation (`Q·Kᵀ`) and the `dA = dC·Bᵀ` orientation of the backward
/// pass. It runs as a 4×8 register tile (`MM_MR`×`MM_NR`) over the
/// column ranges of `mm_nt_column_tiles`. Each SIMD lane owns one `C[i,j]`:
/// it starts at +0.0, adds `a[i,p]·b[j,p]` for ascending `p` with a
/// separate multiply and add, and only then meets the old `C[i,j]` when
/// `accumulate` is set — the same chain as one scalar dot product per
/// element, so no bit moves (with `k = 0` the result is +0.0, or
/// `C[i,j] + 0.0`).
pub fn mm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, accumulate: bool) {
    let workers = crate::par::plan_workers(m, m * k * n);
    mm_nt_on(Arm::active(), workers, a, b, c, m, k, n, accumulate);
}

/// [`mm_nt`] on `arm`, forking `workers` row chunks (1 runs serially).
#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_nt_on(
    arm: Arm,
    workers: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    // hot-ok: shape contract at kernel entry — once per call, amortized over m*k*n work
    assert_eq!(
        a.len(),
        m * k,
        "mm_nt: A has {} elements, want m*k = {m}*{k}",
        a.len()
    );
    // hot-ok: shape contract at kernel entry — once per call, amortized over m*k*n work
    assert_eq!(
        b.len(),
        n * k,
        "mm_nt: B has {} elements, want n*k = {n}*{k}",
        b.len()
    );
    // hot-ok: shape contract at kernel entry — once per call, amortized over m*k*n work
    assert_eq!(
        c.len(),
        m * n,
        "mm_nt: C has {} elements, want m*n = {m}*{n}",
        c.len()
    );
    if workers <= 1 {
        mm_nt_serial(arm, a, b, c, m, k, n, accumulate);
        return;
    }
    let chunks = crate::par::row_chunks(m, workers);
    crate::par::run_row_chunks("mm_nt", c, n, &chunks, |_, (lo, hi), chunk| {
        mm_nt_serial(arm, &a[lo * k..hi * k], b, chunk, hi - lo, k, n, accumulate);
    });
}

thread_local! {
    /// Per-thread packed panel of `B` for [`mm_nt`]: `panel[p][l] =
    /// B[j0 + l, p]` for the column tile being computed. Taken and put
    /// back around each call, so it grows to the largest `k` once and a
    /// warm call allocates nothing.
    static NT_PANEL: Cell<Vec<[f32; MM_NR]>> = const { Cell::new(Vec::new()) };
}

per_arm! {
    /// Serial body of [`mm_nt`] on `arm`; the parallel dispatch runs it
    /// per row chunk.
    fn mm_nt_serial = mm_nt_body(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        accumulate: bool,
    );
}

#[inline(always)]
fn mm_nt_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, accumulate: bool) {
    // Every tile overwrites all `k` panel rows, so stale contents from
    // the previous call never reach a lane.
    let mut panel = NT_PANEL.with(Cell::take);
    panel.resize(k, [0.0; MM_NR]);
    for (j0, j1) in mm_nt_column_tiles(n) {
        // Pack B's rows j0..j1 into the panel's lanes. A narrow last tile
        // repeats row j1 - 1 in its spare lanes; their results are dropped.
        let rows: [&[f32]; MM_NR] = std::array::from_fn(|lane| {
            let j = (j0 + lane).min(j1 - 1);
            &b[j * k..(j + 1) * k]
        });
        for (p, lanes) in panel.iter_mut().enumerate() {
            *lanes = std::array::from_fn(|lane| rows[lane][p]);
        }
        let mut i0 = 0;
        while i0 + MM_MR <= m {
            nt_rows::<MM_MR>(a, &panel, c, i0, n, (j0, j1), accumulate);
            i0 += MM_MR;
        }
        // The last 1–3 rows run as one tile, so a call with fewer than
        // `MM_MR` rows (a small decode batch) still reads each panel row once.
        match m - i0 {
            1 => nt_rows::<1>(a, &panel, c, i0, n, (j0, j1), accumulate),
            2 => nt_rows::<2>(a, &panel, c, i0, n, (j0, j1), accumulate),
            3 => nt_rows::<3>(a, &panel, c, i0, n, (j0, j1), accumulate),
            _ => {}
        }
    }
    NT_PANEL.with(|cell| cell.set(panel));
}

/// Rows `i0..i0 + R` of one [`mm_nt`] column tile: `nt_tile` over those
/// rows of `a`, stored into `c`.
#[inline(always)]
fn nt_rows<const R: usize>(
    a: &[f32],
    panel: &[[f32; MM_NR]],
    c: &mut [f32],
    i0: usize,
    n: usize,
    cols: (usize, usize),
    accumulate: bool,
) {
    let k = panel.len();
    let tile = nt_tile::<R>(&a[i0 * k..(i0 + R) * k], panel);
    store_tile(&tile, c, i0, n, cols, accumulate);
}

/// One `R × MM_NR` block of `A·Bᵀ`: `a` holds `R` rows of length `k =
/// panel.len()`. Lane `[r][l]` starts at +0.0 and adds `a[r,p] · panel[p][l]`
/// for ascending `p` — multiply, then add, in the scalar kernel's order.
#[inline(always)]
fn nt_tile<const R: usize>(a: &[f32], panel: &[[f32; MM_NR]]) -> [[f32; MM_NR]; R] {
    let k = panel.len();
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; MM_NR]; R];
    for (p, bp) in panel.iter().enumerate() {
        for (acc_r, row) in acc.iter_mut().zip(&rows) {
            let av = row[p];
            for (lane, &bv) in acc_r.iter_mut().zip(bp) {
                *lane += av * bv;
            }
        }
    }
    acc
}

/// Writes the live columns `j0..j1` of a register tile into rows `i0..`
/// of `c` (`n` wide), adding to the old values when `accumulate` is set.
fn store_tile<const R: usize>(
    tile: &[[f32; MM_NR]; R],
    c: &mut [f32],
    i0: usize,
    n: usize,
    (j0, j1): (usize, usize),
    accumulate: bool,
) {
    for (r, acc_r) in tile.iter().enumerate() {
        let row = (i0 + r) * n;
        for (slot, &dot) in c[row + j0..row + j1].iter_mut().zip(acc_r) {
            *slot = if accumulate { *slot + dot } else { dot };
        }
    }
}

/// `C = Aᵀ·B` (or `+=`), with `A: [k,m]`, `B: [k,n]`, `C: [m,n]`.
///
/// This is the weight-gradient orientation (`dW = Xᵀ·dY`). It runs the
/// same register tile as [`mm_nn`], reading `A(i, p)` from `a[p·m + i]`.
pub fn mm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, accumulate: bool) {
    let workers = crate::par::plan_workers(m, m * k * n);
    mm_tn_on(Arm::active(), workers, a, b, c, m, k, n, accumulate);
}

/// [`mm_tn`] on `arm`, forking `workers` row chunks (1 runs serially).
#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_tn_on(
    arm: Arm,
    workers: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    assert_eq!(
        a.len(),
        k * m,
        "mm_tn: A has {} elements, want k*m = {k}*{m}",
        a.len()
    );
    assert_eq!(
        b.len(),
        k * n,
        "mm_tn: B has {} elements, want k*n = {k}*{n}",
        b.len()
    );
    assert_eq!(
        c.len(),
        m * n,
        "mm_tn: C has {} elements, want m*n = {m}*{n}",
        c.len()
    );
    if workers <= 1 {
        let a = Strided { a, row: 1, col: m };
        mm_tiled_serial(arm, a, b, c, m, k, n, accumulate);
        return;
    }
    // `A` is `[k, m]`, so a row range of `C` is a column range of `A`:
    // starting the view at column `lo` keeps `A(i, p)` at `a[i + p·m]`.
    let chunks = crate::par::row_chunks(m, workers);
    crate::par::run_row_chunks("mm_tn", c, n, &chunks, |_, (lo, hi), chunk| {
        let a = Strided {
            a: &a[lo..],
            row: 1,
            col: m,
        };
        mm_tiled_serial(arm, a, b, chunk, hi - lo, k, n, accumulate);
    });
}

/// Attention scores of one query row against `tk` keys, every head at
/// once: `scores[h·tk + t] = (Σ_c q[h·dh + c] · k_t[(h·dh + c)·stride + t])
/// · scale`, with `q: [d]`, the keys transposed as `k_t: [d, stride]`
/// (column `t` is key `t`; columns `tk..stride` are spare capacity, never
/// read) and `scores: [d / dh, tk]`.
///
/// Lanes run over keys: a tile of up to 32 consecutive `t` holds its
/// sums in registers while `c` sweeps the head. Each lane is the chain of
/// one [`mm_nt`] element: it starts at +0.0 and adds `q·k` for ascending
/// `c` with a separate multiply and add (no zero skip), then meets
/// `scale`, the tape's separate scaling multiply.
pub fn attend_scores(
    q: &[f32],
    k_t: &[f32],
    stride: usize,
    tk: usize,
    dh: usize,
    scale: f32,
    scores: &mut [f32],
) {
    attend_scores_on(Arm::active(), q, k_t, stride, tk, dh, scale, scores);
}

/// [`attend_scores`] on `arm`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attend_scores_on(
    arm: Arm,
    q: &[f32],
    k_t: &[f32],
    stride: usize,
    tk: usize,
    dh: usize,
    scale: f32,
    scores: &mut [f32],
) {
    let d = q.len();
    // hot-ok: shape contract at kernel entry — once per call, amortized over the d*tk score products
    assert!(
        dh > 0 && d.is_multiple_of(dh) && tk <= stride && k_t.len() == d * stride,
        "attend_scores: q has {d} elements in heads of {dh}, K^T has {} for stride {stride} \
         and {tk} keys",
        k_t.len()
    );
    // hot-ok: shape contract at kernel entry — once per call, amortized over the d*tk score products
    assert_eq!(
        scores.len(),
        d / dh * tk,
        "attend_scores: scores has {} elements, want heads*tk = {}*{tk}",
        scores.len(),
        d / dh
    );
    attend_scores_serial(arm, q, k_t, stride, tk, dh, scale, scores);
}

per_arm! {
    /// Serial body of [`attend_scores`] on `arm`.
    fn attend_scores_serial = attend_scores_body(
        q: &[f32],
        k_t: &[f32],
        stride: usize,
        tk: usize,
        dh: usize,
        scale: f32,
        scores: &mut [f32],
    );
}

#[inline(always)]
fn attend_scores_body(
    q: &[f32],
    k_t: &[f32],
    stride: usize,
    tk: usize,
    dh: usize,
    scale: f32,
    scores: &mut [f32],
) {
    if tk == 0 {
        return;
    }
    let heads = q
        .chunks_exact(dh)
        .zip(k_t.chunks_exact(dh * stride))
        .zip(scores.chunks_exact_mut(tk));
    for ((q_h, k_h), out) in heads {
        match tk {
            ..MM_NR => score_windows::<1>(q_h, k_h, stride, scale, out),
            MM_NR..MM_NC_NARROW => score_windows::<MM_NR>(q_h, k_h, stride, scale, out),
            MM_NC_NARROW..MM_NC => score_windows::<MM_NC_NARROW>(q_h, k_h, stride, scale, out),
            _ => score_windows::<MM_NC>(q_h, k_h, stride, scale, out),
        }
    }
}

/// The windows of `W` lanes that cover `0..len` (`len >= W`): `W` apart
/// from 0, the last one moved back to end at `len`. A lane the last
/// window shares with the one before it runs its whole chain again and
/// stores the same bits, so a ragged `len` still runs full-width tiles.
fn lane_windows<const W: usize>(len: usize) -> impl Iterator<Item = usize> {
    (0..len).step_by(W).map(move |lo| lo.min(len - W))
}

/// One head's scores (`out: [tk]`) from its `dh` rows of the transposed
/// keys (`k_h`, `stride` apart), `W` keys per register tile.
#[inline(always)]
fn score_windows<const W: usize>(
    q_h: &[f32],
    k_h: &[f32],
    stride: usize,
    scale: f32,
    out: &mut [f32],
) {
    for t0 in lane_windows::<W>(out.len()) {
        let mut lanes = [0.0f32; W];
        for (&qv, k_row) in q_h.iter().zip(k_h.chunks_exact(stride)) {
            for (lane, &kv) in lanes.iter_mut().zip(&k_row[t0..t0 + W]) {
                *lane += qv * kv;
            }
        }
        for (o, lane) in out[t0..t0 + W].iter_mut().zip(lanes) {
            *o = lane * scale;
        }
    }
}

/// The attention context of one query row, every head in one pass over
/// the value rows: `ctx[h·dh + c] = Σ_t probs[h·tk + t] · v[t·d + h·dh +
/// c]`, with `probs: [d / dh, tk]`, `v: [tk, d]` and `ctx: [d]`
/// (overwritten).
///
/// Each lane is the chain of one [`mm_nn`] element: it starts at +0.0,
/// walks ascending `t` with a separate multiply and add, and adds nothing
/// for a `(head, t)` whose probability is exactly zero, so a zero
/// probability meeting an infinite or NaN value keeps the sum finite, as
/// on the tape. A tile holds `MM_MR` heads by up to 32 columns in
/// registers, so the heads' add chains overlap.
pub fn attend_context(probs: &[f32], v: &[f32], tk: usize, dh: usize, ctx: &mut [f32]) {
    attend_context_on(Arm::active(), probs, v, tk, dh, ctx);
}

/// [`attend_context`] on `arm`.
pub(crate) fn attend_context_on(
    arm: Arm,
    probs: &[f32],
    v: &[f32],
    tk: usize,
    dh: usize,
    ctx: &mut [f32],
) {
    let d = ctx.len();
    // hot-ok: shape contract at kernel entry — once per call, amortized over the tk*d context products
    assert!(
        dh > 0 && d.is_multiple_of(dh) && probs.len() == d / dh * tk && v.len() == tk * d,
        "attend_context: ctx has {d} elements in heads of {dh}, probs {} and V {} for {tk} rows",
        probs.len(),
        v.len()
    );
    attend_context_serial(arm, probs, v, tk, dh, ctx);
}

per_arm! {
    /// Serial body of [`attend_context`] on `arm`.
    fn attend_context_serial = attend_context_body(
        probs: &[f32],
        v: &[f32],
        tk: usize,
        dh: usize,
        ctx: &mut [f32],
    );
}

#[inline(always)]
fn attend_context_body(probs: &[f32], v: &[f32], tk: usize, dh: usize, ctx: &mut [f32]) {
    match dh {
        ..MM_NR => context_windows::<1>(probs, v, tk, dh, ctx),
        MM_NR..MM_NC_NARROW => context_windows::<MM_NR>(probs, v, tk, dh, ctx),
        MM_NC_NARROW..MM_NC => context_windows::<MM_NC_NARROW>(probs, v, tk, dh, ctx),
        _ => context_windows::<MM_NC>(probs, v, tk, dh, ctx),
    }
}

/// Every head's context in windows of `W` columns (`lane_windows` of
/// `dh`), heads in tiles of `MM_MR` and then one at a time. Tile row `r`
/// owns columns `j0..j0 + W` of head `h + r`: it reads that head's
/// probability row and its slice of every value row.
#[inline(always)]
fn context_windows<const W: usize>(
    probs: &[f32],
    v: &[f32],
    tk: usize,
    dh: usize,
    ctx: &mut [f32],
) {
    let d = ctx.len();
    let heads = d / dh;
    let p_row = |h: usize| &probs[h * tk..(h + 1) * tk];
    for j0 in lane_windows::<W>(dh) {
        let col = |h: usize| h * dh + j0;
        let mut h = 0;
        while h + MM_MR <= heads {
            // Named rows, as in `column_tile`, so they stay in registers.
            let (p0, p1, p2, p3) = (p_row(h), p_row(h + 1), p_row(h + 2), p_row(h + 3));
            let (c0, c1, c2, c3) = (col(h), col(h + 1), col(h + 2), col(h + 3));
            let (mut r0, mut r1, mut r2, mut r3) = ([0.0f32; W], [0.0; W], [0.0; W], [0.0; W]);
            for (t, v_row) in v.chunks_exact(d).enumerate() {
                add_products(&mut r0, p0[t], &v_row[c0..c0 + W]);
                add_products(&mut r1, p1[t], &v_row[c1..c1 + W]);
                add_products(&mut r2, p2[t], &v_row[c2..c2 + W]);
                add_products(&mut r3, p3[t], &v_row[c3..c3 + W]);
            }
            store_row(ctx, c0, &r0);
            store_row(ctx, c1, &r1);
            store_row(ctx, c2, &r2);
            store_row(ctx, c3, &r3);
            h += MM_MR;
        }
        for h in h..heads {
            let (p0, c0) = (p_row(h), col(h));
            let mut r0 = [0.0f32; W];
            for (t, v_row) in v.chunks_exact(d).enumerate() {
                add_products(&mut r0, p0[t], &v_row[c0..c0 + W]);
            }
            store_row(ctx, c0, &r0);
        }
    }
}

/// Copies rows `ids` of a row-major `[rows, d]` source into `dst`
/// (`[len(ids), d]`), the packing step of batched decoding: per-request
/// activations gather into one GEMM operand.
pub fn gather_rows(src: &[f32], d: usize, ids: &[usize], dst: &mut [f32]) {
    assert_eq!(dst.len(), ids.len() * d, "gather_rows: dst size mismatch");
    for (slot, &id) in ids.iter().enumerate() {
        let row = &src[id * d..(id + 1) * d];
        dst[slot * d..(slot + 1) * d].copy_from_slice(row);
    }
}

/// Copies the rows of a packed `[len(ids), d]` source into rows `ids` of
/// `dst` (`[rows, d]`), the unpacking step of batched decoding. Rows of
/// `dst` not named by `ids` are left untouched; duplicate ids write last-
/// one-wins.
pub fn scatter_rows(src: &[f32], d: usize, ids: &[usize], dst: &mut [f32]) {
    assert_eq!(src.len(), ids.len() * d, "scatter_rows: src size mismatch");
    for (slot, &id) in ids.iter().enumerate() {
        let row = &src[slot * d..(slot + 1) * d];
        dst[id * d..(id + 1) * d].copy_from_slice(row);
    }
}

/// Numerically stable softmax applied independently to each `cols`-wide row.
pub fn softmax_rows(data: &mut [f32], cols: usize) {
    // hot-ok: shape contract at kernel entry — once per call, amortized over the row sweep
    assert!(cols > 0, "softmax over empty rows");
    debug_assert_eq!(data.len() % cols, 0);
    for row in data.chunks_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Numerically stable log-softmax per row (used by cross entropy).
pub fn log_softmax_rows(data: &mut [f32], cols: usize) {
    assert!(cols > 0, "log_softmax over empty rows");
    debug_assert_eq!(data.len() % cols, 0);
    for row in data.chunks_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::AssertUnwindSafe;

    use super::*;

    fn naive_mm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0; x.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.7).sin()).collect()
    }

    #[test]
    fn mm_nn_matches_naive() {
        let (m, k, n) = (3, 5, 4);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut c = vec![0.0; m * n];
        mm_nn(&a, &b, &mut c, m, k, n, false);
        let want = naive_mm(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(want.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn mm_nt_matches_naive_on_transposed_b() {
        let (m, k, n) = (4, 3, 5);
        let a = seq(m * k);
        let b_t = seq(n * k); // B stored as [n, k]
        let b = transpose(&b_t, n, k); // [k, n]
        let mut c = vec![0.0; m * n];
        mm_nt(&a, &b_t, &mut c, m, k, n, false);
        let want = naive_mm(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(want.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn mm_tn_matches_naive_on_transposed_a() {
        let (m, k, n) = (4, 3, 5);
        let a_t = seq(k * m); // A stored as [k, m]
        let a = transpose(&a_t, k, m); // [m, k]
        let b = seq(k * n);
        let mut c = vec![0.0; m * n];
        mm_tn(&a_t, &b, &mut c, m, k, n, false);
        let want = naive_mm(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(want.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let (m, k, n) = (2, 2, 2);
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut c = vec![10.0; m * n];
        mm_nn(&a, &b, &mut c, m, k, n, true);
        assert_eq!(c, vec![11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let mut x = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut x, 3);
        for row in x.chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let mut x = vec![1000.0, 1001.0];
        softmax_rows(&mut x, 2);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] + x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn first_nonfinite_finds_nan_and_inf() {
        assert_eq!(first_nonfinite(&[1.0, 2.0, 3.0]), None);
        assert_eq!(first_nonfinite(&[1.0, f32::NAN, f32::INFINITY]), Some(1));
        assert_eq!(first_nonfinite(&[f32::NEG_INFINITY]), Some(0));
        assert_eq!(first_nonfinite(&[]), None);
    }

    #[test]
    #[should_panic(expected = "mm_nn: A has 3 elements, want m*k = 2*2")]
    fn mm_nn_rejects_wrong_operand_size() {
        let a = vec![0.0; 3];
        let b = vec![0.0; 4];
        let mut c = vec![0.0; 4];
        mm_nn(&a, &b, &mut c, 2, 2, 2, false);
    }

    /// The pre-blocking loop bodies, kept verbatim as the bitwise
    /// reference: the blocked kernels must not change a single ULP, or the
    /// batched-vs-sequential decode equivalence breaks.
    mod unblocked {
        pub fn mm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
            if !acc {
                c.fill(0.0);
            }
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c[i * n..(i + 1) * n];
                for (p, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let b_row = &b[p * n..(p + 1) * n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                        *cv += av * bv;
                    }
                }
            }
        }

        pub fn mm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                for j in 0..n {
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut dot = 0.0f32;
                    for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                        dot += av * bv;
                    }
                    let slot = &mut c[i * n + j];
                    *slot = if acc { *slot + dot } else { dot };
                }
            }
        }

        pub fn mm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
            if !acc {
                c.fill(0.0);
            }
            for p in 0..k {
                let a_row = &a[p * m..(p + 1) * m];
                let b_row = &b[p * n..(p + 1) * n];
                for (i, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let c_row = &mut c[i * n..(i + 1) * n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                        *cv += av * bv;
                    }
                }
            }
        }

        /// The batched decoder's per-head score loop before it became
        /// `attend_scores`, over row-major keys `k: [tk, d]`: one
        /// ascending-`k` dot per key, then the scale.
        pub fn attend_scores(q: &[f32], k: &[f32], tk: usize, dh: usize, scale: f32) -> Vec<f32> {
            let d = q.len();
            let mut scores = Vec::new();
            for h in 0..d / dh {
                let q_h = &q[h * dh..(h + 1) * dh];
                for t in 0..tk {
                    let k_row = &k[t * d + h * dh..t * d + (h + 1) * dh];
                    let mut acc = 0.0f32;
                    for (&qv, &kv) in q_h.iter().zip(k_row.iter()) {
                        acc += qv * kv;
                    }
                    scores.push(acc * scale);
                }
            }
            scores
        }

        /// The batched decoder's per-head context loop before it became
        /// `attend_context`: an ascending-`t` probability-weighted sum
        /// per head with the `mm_nn` exact-zero skip.
        pub fn attend_context(
            probs: &[f32],
            v: &[f32],
            tk: usize,
            dh: usize,
            d: usize,
        ) -> Vec<f32> {
            let mut ctx = vec![0.0f32; d];
            for h in 0..d / dh {
                let ctx_h = &mut ctx[h * dh..(h + 1) * dh];
                for (t, &p) in probs[h * tk..(h + 1) * tk].iter().enumerate() {
                    if p == 0.0 {
                        continue;
                    }
                    let v_row = &v[t * d + h * dh..t * d + (h + 1) * dh];
                    for (c, &vv) in ctx_h.iter_mut().zip(v_row.iter()) {
                        *c += p * vv;
                    }
                }
            }
            ctx
        }
    }

    type Kernel = fn(Arm, usize, &[f32], &[f32], &mut [f32], usize, usize, usize, bool);
    type Reference = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, bool);

    /// Runs `check` once per arm this host supports and fails naming every
    /// arm whose run panicked, so one broken arm cannot hide or blame
    /// another. Prints the compiled arms the host cannot run.
    fn for_each_arm(test: &str, check: impl Fn(Arm)) {
        let arms: Vec<Arm> = Arm::supported().collect();
        for isa in Isa::ALL {
            if !arms.iter().any(|arm| arm.isa() == *isa) {
                println!(
                    "{test}: skipping arm {} (not supported by this CPU)",
                    isa.name()
                );
            }
        }
        // A failed run leaves nothing behind that another arm reads: the
        // checks only read their captures.
        let run = |arm: Arm| std::panic::catch_unwind(AssertUnwindSafe(|| check(arm)));
        let failed: Vec<&str> = arms
            .iter()
            .filter(|&&arm| run(arm).is_err())
            .map(|arm| arm.isa().name())
            .collect();
        assert!(failed.is_empty(), "{test}: fails on arm(s) {failed:?}");
    }

    /// Bit equality, except that a NaN only has to be a NaN: its payload
    /// depends on which operand the hardware propagates.
    fn assert_bitwise(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (idx, (x, y)) in got.iter().zip(want).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}: element {idx} is {x:?} ({:#010x}), want {y:?} ({:#010x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    /// Runs all three orientations on `arm`, plain and accumulating into
    /// `init`, against the unblocked reference. `a` (`m·k` values) serves
    /// as `[m,k]` and `[k,m]`, `b` (`k·n` values) as `[k,n]` and `[n,k]`.
    fn assert_matches_unblocked(
        arm: Arm,
        shape: (usize, usize, usize),
        a: &[f32],
        b: &[f32],
        init: &[f32],
    ) {
        let (m, k, n) = shape;
        let kernels: [(&str, Kernel, Reference); 3] = [
            ("mm_nn", mm_nn_on, unblocked::mm_nn),
            ("mm_nt", mm_nt_on, unblocked::mm_nt),
            ("mm_tn", mm_tn_on, unblocked::mm_tn),
        ];
        for acc in [false, true] {
            for (name, kernel, reference) in kernels {
                let (mut got, mut want) = (init.to_vec(), init.to_vec());
                kernel(arm, 1, a, b, &mut got, m, k, n, acc);
                reference(a, b, &mut want, m, k, n, acc);
                let what = format!("{} {name} {m}x{k}x{n} acc={acc}", arm.isa().name());
                assert_bitwise(&what, &got, &want);
            }
        }
    }

    /// `seq` with exact zeros every `zero_every` elements (the `mm_nn` /
    /// `mm_tn` skip path).
    fn seq_with_zeros(len: usize, zero_every: usize) -> Vec<f32> {
        let mut v = seq(len);
        for x in v.iter_mut().step_by(zero_every) {
            *x = 0.0;
        }
        v
    }

    /// Finite values salted with -0.0 and +0.0 throughout and one each of
    /// NaN, +Inf and -Inf at `salt`-dependent positions.
    fn special(len: usize, salt: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..len)
            .map(|i| match (i + salt) % 5 {
                0 => -0.0,
                3 => 0.0,
                _ => ((i * 3 + salt) as f32 * 0.37).sin(),
            })
            .collect();
        if len > 0 {
            v[(5 * salt) % len] = f32::NAN;
            v[(7 * salt + 2) % len] = f32::INFINITY;
            v[(3 * salt + 1) % len] = f32::NEG_INFINITY;
        }
        v
    }

    /// `A` and `B` for the two inputs where a multiply-add without the
    /// zero-skip of `mm_nn` and `mm_tn` gives other bits: 0·±Inf and 0·NaN
    /// are NaN, and −0.0 + 0·b is +0.0. `B(p, j)` is ±Inf or NaN at even
    /// `p` and even `j`, finite and non-zero elsewhere. `A(i, p)` is an
    /// exact zero (of either sign) at every even `p` and in every third
    /// row, read as `[m,k]` (`mm_nn`) and as `[k,m]` (`mm_tn`) alike. So
    /// with the skip both orientations give finite results, and
    /// accumulating over −0.0 keeps it in the all-zero rows.
    fn zeros_over_nonfinite(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let finite = |x: usize| 1.0 + (x as f32 * 0.37).sin() * 0.5;
        let zero_at = |i: usize, p: usize| i.is_multiple_of(3) || p.is_multiple_of(2);
        let a: Vec<f32> = (0..m * k)
            .map(|idx| {
                if !zero_at(idx / k, idx % k) && !zero_at(idx % m, idx / m) {
                    finite(idx)
                } else if idx.is_multiple_of(2) {
                    0.0
                } else {
                    -0.0
                }
            })
            .collect();
        let nonfinite = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let b: Vec<f32> = (0..k * n)
            .map(|idx| match (idx / n, idx % n) {
                (p, j) if p.is_multiple_of(2) && j.is_multiple_of(2) => {
                    nonfinite[(p / 2 + j / 2) % 3]
                }
                _ => finite(idx + 1),
            })
            .collect();
        for (name, reference) in [
            ("mm_nn", unblocked::mm_nn as Reference),
            ("mm_tn", unblocked::mm_tn),
        ] {
            let mut want = vec![-0.0; m * n];
            reference(&a, &b, &mut want, m, k, n, true);
            assert!(
                want.iter().all(|v| v.is_finite()),
                "{name} {m}x{k}x{n}: {want:?}"
            );
        }
        (a, b)
    }

    #[test]
    fn blocked_kernels_match_unblocked_bitwise() {
        // Sizes straddle the register tiles (MM_MR = 4 rows; MM_NR = 8
        // columns for mm_nt, MM_NC = 32 and its 16-wide half for mm_nn and
        // mm_tn); (8, 64, 1883) is the decode step's tied-embedding logits.
        // Data includes exact zeros to exercise the skip path.
        let cases = [
            (1, 1, 1),
            (3, 63, 5),
            (7, 64, 129),
            (65, 130, 257),
            (8, 64, 1883),
        ];
        for_each_arm("blocked_kernels_match_unblocked_bitwise", |arm| {
            for &(m, k, n) in &cases {
                let (a, b) = (seq_with_zeros(m * k, 7), seq_with_zeros(k * n, 11));
                assert_matches_unblocked(arm, (m, k, n), &a, &b, &seq(m * n));
            }
            // Partial register tiles: every row remainder against each
            // column edge of the tiles (mm_nt's MM_NR ± 1; for mm_nn and
            // mm_tn a tail alone, the narrow tile alone and with a
            // one-column tail, the wide tile with a tail, and the wide
            // tile with a narrow one), with an empty, a single-term and a
            // multi-term reduction.
            for m in 1..=9 {
                for n in [7, 9, 15, 16, 17, 31, 32, 33, 48] {
                    for k in [0, 1, 16] {
                        let (a, b) = (seq_with_zeros(m * k, 7), seq_with_zeros(k * n, 11));
                        assert_matches_unblocked(arm, (m, k, n), &a, &b, &seq(m * n));
                        // Signed zeros, infinities and NaN in A, B and C.
                        let (a, b) = (special(m * k, m), special(k * n, n + 1));
                        let init = special(m * n, k + 2);
                        assert_matches_unblocked(arm, (m, k, n), &a, &b, &init);
                        let (a, b) = zeros_over_nonfinite(m, k, n);
                        assert_matches_unblocked(arm, (m, k, n), &a, &b, &vec![-0.0; m * n]);
                    }
                }
            }
        });
    }

    /// `attend_scores` and `attend_context` against the decoder's old
    /// scalar loops on every arm: key counts on both sides of each lane
    /// window (8, 16, 32) and past 96, both head widths the models use,
    /// spare K capacity filled with NaN (a lane that read past `tk` would
    /// show it), and values salted with ±0.0, ±Inf and NaN under
    /// probabilities that are exactly zero in places.
    #[test]
    fn attention_kernels_match_the_scalar_loops_bitwise() {
        for_each_arm("attention_kernels_match_the_scalar_loops_bitwise", |arm| {
            let name = arm.isa().name();
            for dh in [8, 16] {
                for heads in [1, 2, 4, 5] {
                    let d = dh * heads;
                    for tk in [1, 15, 16, 17, 31, 32, 33, 96, 128] {
                        let what = format!("{name} dh={dh} heads={heads} tk={tk}");
                        let scale = 1.0 / (dh as f32).sqrt();
                        for (q, k) in [
                            (seq(d), seq_with_zeros(tk * d, 7)),
                            (special(d, tk), special(tk * d, heads)),
                        ] {
                            let want = unblocked::attend_scores(&q, &k, tk, dh, scale);
                            for stride in [tk, tk + 5] {
                                let mut k_t = vec![f32::NAN; d * stride];
                                for (t, row) in k.chunks_exact(d).enumerate() {
                                    for (c, &kv) in row.iter().enumerate() {
                                        k_t[c * stride + t] = kv;
                                    }
                                }
                                let mut got = vec![f32::NAN; heads * tk];
                                attend_scores_on(arm, &q, &k_t, stride, tk, dh, scale, &mut got);
                                assert_bitwise(
                                    &format!("{what} scores stride={stride}"),
                                    &got,
                                    &want,
                                );
                            }
                        }
                        // Softmax-like rows with exact zeros (one whole
                        // head's row among them), over finite and special
                        // values.
                        let mut probs = seq_with_zeros(heads * tk, 3);
                        probs.iter_mut().for_each(|p| *p = p.abs());
                        probs[..tk].fill(0.0);
                        for v in [seq(tk * d), special(tk * d, tk + heads)] {
                            let want = unblocked::attend_context(&probs, &v, tk, dh, d);
                            let mut got = vec![f32::NAN; d];
                            attend_context_on(arm, &probs, &v, tk, dh, &mut got);
                            assert_bitwise(&format!("{what} context"), &got, &want);
                        }
                        // A zero probability over a non-finite value adds
                        // nothing, and −0.0 values keep the chain at +0.0.
                        let zeros: Vec<f32> = (0..heads * tk)
                            .map(|i| if (i % tk) % 2 == 0 { 0.0 } else { 0.5 })
                            .collect();
                        let v: Vec<f32> = (0..tk * d)
                            .map(|i| match (i / d) % 4 {
                                0 => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][i % 3],
                                1 => -0.0,
                                _ => 0.25,
                            })
                            .collect();
                        let want = unblocked::attend_context(&zeros, &v, tk, dh, d);
                        assert!(want.iter().all(|c| c.is_finite()), "{what}: {want:?}");
                        let mut got = vec![f32::NAN; d];
                        attend_context_on(arm, &zeros, &v, tk, dh, &mut got);
                        assert_bitwise(&format!("{what} zero probabilities"), &got, &want);
                    }
                }
            }
        });
    }

    /// The decoder's logits run `mm_nn` on the tied embedding packed as
    /// `[d, vocab]`, where the tape runs `mm_nt` on the `[vocab, d]`
    /// table. `mm_nn` skips a zero activation and `mm_nt` adds its ±0.0
    /// product, which changes nothing while the table is finite: a chain
    /// that starts at +0.0 never holds −0.0. A non-finite weight under a
    /// zero activation is where the two part: `mm_nt` makes NaN of it.
    #[test]
    fn packed_logits_table_matches_mm_nt_on_finite_tables() {
        for_each_arm(
            "packed_logits_table_matches_mm_nt_on_finite_tables",
            |arm| {
                let name = arm.isa().name();
                for (m, d, vocab) in [(1, 16, 20), (3, 64, 97), (5, 16, 33), (8, 64, 1883)] {
                    let mut table = seq(vocab * d);
                    for (i, w) in table.iter_mut().enumerate() {
                        match i % 13 {
                            0 => *w = 0.0,
                            5 => *w = -0.0,
                            _ => {}
                        }
                    }
                    let x: Vec<f32> = seq(m * d)
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| match i % 4 {
                            0 => 0.0,
                            1 => -0.0,
                            _ => v,
                        })
                        .collect();
                    let packed = transpose(&table, vocab, d);
                    let (mut got, mut want) = (vec![0.0; m * vocab], vec![0.0; m * vocab]);
                    mm_nn_on(arm, 1, &x, &packed, &mut got, m, d, vocab, false);
                    mm_nt_on(arm, 1, &x, &table, &mut want, m, d, vocab, false);
                    assert_bitwise(&format!("{name} {m}x{d}x{vocab}"), &got, &want);
                    table[1] = f32::INFINITY;
                    mm_nn_on(
                        arm,
                        1,
                        &x,
                        &transpose(&table, vocab, d),
                        &mut got,
                        m,
                        d,
                        vocab,
                        false,
                    );
                    mm_nt_on(arm, 1, &x, &table, &mut want, m, d, vocab, false);
                    assert!(
                        got[0].is_finite() && want[0].is_nan(),
                        "{name}: {got:?} {want:?}"
                    );
                }
            },
        );
    }

    #[test]
    fn mm_nt_lanes_start_at_positive_zero() {
        // A chain of -0.0 products stays +0.0 because each lane starts at
        // +0.0; with k = 0 there are no products at all, and accumulating
        // adds +0.0, which turns a -0.0 in C into +0.0 too.
        for_each_arm("mm_nt_lanes_start_at_positive_zero", |arm| {
            for (m, k, n) in [(5, 3, 9), (4, 0, 8), (9, 0, 7)] {
                let a = vec![-0.0f32; m * k];
                let b = seq(n * k);
                for acc in [false, true] {
                    let mut c = vec![-0.0f32; m * n];
                    mm_nt_on(arm, 1, &a, &b, &mut c, m, k, n, acc);
                    assert!(
                        c.iter().all(|v| v.to_bits() == 0.0f32.to_bits()),
                        "{} {m}x{k}x{n} acc={acc}: {c:?}",
                        arm.isa().name()
                    );
                }
            }
        });
    }

    /// Fork-join dispatch must be invisible in the bits: on every arm,
    /// every worker count produces the same output as the serial path,
    /// for every orientation, with and without accumulation. The counts
    /// are passed explicitly, so they fork whatever `par::PAR_MIN_ELEMS`
    /// and the configured thread count are.
    #[test]
    fn parallel_dispatch_matches_serial_bitwise() {
        let (m, k, n) = (65, 130, 257);
        let mut a = seq(m * k);
        let mut b = seq(k * n);
        for v in a.iter_mut().step_by(7) {
            *v = 0.0;
        }
        for v in b.iter_mut().step_by(11) {
            *v = 0.0;
        }
        let at = seq(k * m);
        let bt = seq(n * k);
        let init = seq(m * n);
        for_each_arm("parallel_dispatch_matches_serial_bitwise", |arm| {
            let name = arm.isa().name();
            for acc in [false, true] {
                let (mut want_nn, mut want_nt, mut want_tn) =
                    (init.clone(), init.clone(), init.clone());
                mm_nn_on(arm, 1, &a, &b, &mut want_nn, m, k, n, acc);
                mm_nt_on(arm, 1, &a, &bt, &mut want_nt, m, k, n, acc);
                mm_tn_on(arm, 1, &at, &b, &mut want_tn, m, k, n, acc);
                for t in [2, 3, 4, 8] {
                    let mut c = init.clone();
                    mm_nn_on(arm, t, &a, &b, &mut c, m, k, n, acc);
                    assert!(
                        c.iter()
                            .zip(&want_nn)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{name} mm_nn diverges at {t} workers (acc={acc})"
                    );
                    let mut c = init.clone();
                    mm_nt_on(arm, t, &a, &bt, &mut c, m, k, n, acc);
                    assert!(
                        c.iter()
                            .zip(&want_nt)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{name} mm_nt diverges at {t} workers (acc={acc})"
                    );
                    let mut c = init.clone();
                    mm_tn_on(arm, t, &at, &b, &mut c, m, k, n, acc);
                    assert!(
                        c.iter()
                            .zip(&want_tn)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{name} mm_tn diverges at {t} workers (acc={acc})"
                    );
                }
            }
        });
    }

    #[test]
    fn gather_scatter_rows_roundtrip() {
        let src = seq(5 * 3);
        let ids = [4usize, 0, 2];
        let mut packed = vec![0.0; ids.len() * 3];
        gather_rows(&src, 3, &ids, &mut packed);
        assert_eq!(&packed[0..3], &src[12..15]);
        assert_eq!(&packed[3..6], &src[0..3]);
        assert_eq!(&packed[6..9], &src[6..9]);
        let mut dst = vec![f32::NAN; 5 * 3];
        scatter_rows(&packed, 3, &ids, &mut dst);
        for &id in &ids {
            assert_eq!(&dst[id * 3..(id + 1) * 3], &src[id * 3..(id + 1) * 3]);
        }
        // Untouched rows keep their prior contents (here: NaN sentinels).
        assert!(dst[3..6].iter().all(|v| v.is_nan()));
        assert!(dst[9..12].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = vec![0.3, -1.2, 2.0, 0.5];
        let mut a = x.clone();
        softmax_rows(&mut a, 4);
        let mut b = x;
        log_softmax_rows(&mut b, 4);
        for (p, lp) in a.iter().zip(b.iter()) {
            assert!((p.ln() - lp).abs() < 1e-5);
        }
    }
}
