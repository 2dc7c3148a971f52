//! Hot numeric loops shared by the forward and backward passes.
//!
//! The matmul kernels come in the three orientations the backward pass
//! needs (`C = A·B`, `C = A·Bᵀ`, `C = Aᵀ·B`), each with an `accumulate`
//! flag so gradient contributions can be summed in place without a scratch
//! buffer.
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
//! * `mm_nn` and `mm_tn` are cache-blocked (`MM_KC`, `MM_IC`): one
//!   operand tile stays hot across the outer loop, and the innermost loop
//!   streams a contiguous row of `C`, one lane per output column.
//! * `mm_nt` is a register tile: `MM_MR` rows by `MM_NR` columns of
//!   `C` accumulate in `[f32; MM_NR]` arrays, one SIMD lane per output
//!   element, against a panel of `B` packed `[k][MM_NR]` so each lane's
//!   operand is contiguous.
//!
//! Blocking and tiling only regroup whole chains, so the results are
//! bit-identical to the unblocked loops kept in this module's tests
//! (`blocked_kernels_match_unblocked_bitwise`), which the batched-decode
//! differential suite relies on.
//!
//! # Arms
//!
//! Each serial body is one `#[inline(always)]` function compiled three
//! times, once per `Arm`: for the baseline target (4-lane SSE on x86-64),
//! and on x86-64 also inside `#[target_feature(enable = "avx2")]` (8
//! lanes) and `#[target_feature(enable = "avx512f")]` (16 lanes in the
//! row streams of `mm_nn` and `mm_tn`; the `mm_nt` tile stays 8 wide)
//! wrappers. The process runs the widest arm its CPU supports, detected
//! once ([`arm_name`] names it). Lane width cannot move a bit: each lane
//! is still one chain of separate multiplies and adds, and although
//! `avx512f` implies the `fma` target feature, Rust emits no contraction,
//! so a wide lane rounds every step exactly like a narrow one. The kernel
//! suites run under every arm the host supports.
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
//! row splits and the `mm_nt` column tiles of `mm_nt_column_tiles`), and
//! `parallel_dispatch_matches_serial_bitwise` pins dynamically.

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

/// Which instruction set the matmul serial bodies run on.
mod arm {
    use std::sync::OnceLock;

    /// The instruction sets the matmul serial bodies are compiled for,
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

/// The arm the matmul kernels run on in this process: `"avx512f"`,
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

/// Cache-block tile sizes: the `k`-tile keeps a `MM_KC × n` panel of `B`
/// hot in `mm_nn`, and the `m`-tile keeps an output panel hot in `mm_tn`.
pub const MM_KC: usize = 64;
/// `m`-dimension tile for [`mm_tn`] (see [`MM_KC`]).
pub const MM_IC: usize = 64;

/// Output rows per [`mm_nt`] register tile.
pub(crate) const MM_MR: usize = 4;
/// Output columns per [`mm_nt`] register tile: the width of one
/// `[f32; MM_NR]` accumulator, i.e. two SSE registers of lanes, one AVX2
/// register or half an AVX-512 one, whichever arm runs.
pub(crate) const MM_NR: usize = 8;

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
pub fn mm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, accumulate: bool) {
    mm_nn_on(Arm::active(), a, b, c, m, k, n, accumulate);
}

/// [`mm_nn`] on `arm`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_nn_on(
    arm: Arm,
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
    let workers = crate::par::plan_workers(m, m * k * n);
    if workers <= 1 {
        mm_nn_serial(arm, a, b, c, m, k, n, accumulate);
        return;
    }
    let chunks = crate::par::row_chunks(m, workers);
    crate::par::run_row_chunks("mm_nn", c, n, &chunks, |_, (lo, hi), chunk| {
        mm_nn_serial(arm, &a[lo * k..hi * k], b, chunk, hi - lo, k, n, accumulate);
    });
}

per_arm! {
    /// Serial body of [`mm_nn`] on `arm`; the parallel dispatch runs it
    /// per row chunk.
    fn mm_nn_serial = mm_nn_body(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        acc: bool,
    );
}

#[inline(always)]
fn mm_nn_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
    if !acc {
        c.fill(0.0);
    }
    // k-blocked: the `[p0..p1, n]` panel of B is reused by every row of A
    // before moving on. Per C[i,j] the p-contributions stay in ascending
    // order (blocks ascend, p ascends within a block), so the sum is
    // bit-identical to the unblocked loop.
    let mut p0 = 0;
    while p0 < k {
        let p1 = (p0 + MM_KC).min(k);
        for i in 0..m {
            let a_row = &a[i * k + p0..i * k + p1];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (off, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let p = p0 + off;
                let b_row = &b[p * n..(p + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                    *cv += av * bv;
                }
            }
        }
        p0 = p1;
    }
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
    mm_nt_on(Arm::active(), a, b, c, m, k, n, accumulate);
}

/// [`mm_nt`] on `arm`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_nt_on(
    arm: Arm,
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
    let workers = crate::par::plan_workers(m, m * k * n);
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
            let tile = nt_tile::<MM_MR>(&a[i0 * k..(i0 + MM_MR) * k], &panel);
            store_tile(&tile, c, i0, n, (j0, j1), accumulate);
            i0 += MM_MR;
        }
        for i in i0..m {
            let tile = nt_tile::<1>(&a[i * k..(i + 1) * k], &panel);
            store_tile(&tile, c, i, n, (j0, j1), accumulate);
        }
    }
    NT_PANEL.with(|cell| cell.set(panel));
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
/// This is the weight-gradient orientation (`dW = Xᵀ·dY`).
pub fn mm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, accumulate: bool) {
    mm_tn_on(Arm::active(), a, b, c, m, k, n, accumulate);
}

/// [`mm_tn`] on `arm`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_tn_on(
    arm: Arm,
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
    let workers = crate::par::plan_workers(m, m * k * n);
    if workers <= 1 {
        mm_tn_serial_range(arm, a, b, c, 0, m, m, k, n, accumulate);
        return;
    }
    let chunks = crate::par::row_chunks(m, workers);
    crate::par::run_row_chunks("mm_tn", c, n, &chunks, |_, (lo, hi), chunk| {
        mm_tn_serial_range(arm, a, b, chunk, lo, hi, m, k, n, accumulate);
    });
}

per_arm! {
    /// Serial body of [`mm_tn`] on `arm` over output rows `[lo, hi)` of
    /// the full `[m, n]` product, with `c` holding exactly those rows. `A`
    /// is `[k, m]`, so a row range of `C` is a *column* range of `A` — the
    /// parallel dispatch cannot sub-slice `A` the way the other
    /// orientations do, hence the explicit range parameters.
    fn mm_tn_serial_range = mm_tn_body(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        lo: usize,
        hi: usize,
        m: usize,
        k: usize,
        n: usize,
        acc: bool,
    );
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mm_tn_body(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    lo: usize,
    hi: usize,
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    if !acc {
        c.fill(0.0);
    }
    // m-blocked: the `[i0..i1, n]` panel of C stays hot across the full
    // k-sweep. Per C[i,j] the p-contributions remain in ascending order,
    // so the sum is bit-identical to the unblocked loop. (Block starts
    // shift with `lo`, but i-blocking only reorders independent rows.)
    let mut i0 = lo;
    while i0 < hi {
        let i1 = (i0 + MM_IC).min(hi);
        for p in 0..k {
            let a_row = &a[p * m + i0..p * m + i1];
            let b_row = &b[p * n..(p + 1) * n];
            for (off, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let i = i0 + off - lo;
                let c_row = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                    *cv += av * bv;
                }
            }
        }
        i0 = i1;
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
    }

    type Kernel = fn(Arm, &[f32], &[f32], &mut [f32], usize, usize, usize, bool);
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
                kernel(arm, a, b, &mut got, m, k, n, acc);
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

    #[test]
    fn blocked_kernels_match_unblocked_bitwise() {
        // Sizes straddle the cache blocks (MM_KC = 64, MM_IC = 64) and the
        // mm_nt register tile (MM_MR = 4, MM_NR = 8); (8, 64, 1883) is the
        // decode step's tied-embedding logits. Data includes exact zeros to
        // exercise the skip path.
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
            // Partial register tiles: every row remainder against a tile one
            // column short of and one column past MM_NR, with an empty, a
            // single-term and a multi-term reduction.
            for m in 1..=9 {
                for n in [MM_NR - 1, MM_NR + 1] {
                    for k in [0, 1, 16] {
                        let (a, b) = (seq_with_zeros(m * k, 7), seq_with_zeros(k * n, 11));
                        assert_matches_unblocked(arm, (m, k, n), &a, &b, &seq(m * n));
                        // Signed zeros, infinities and NaN in A, B and C.
                        let (a, b) = (special(m * k, m), special(k * n, n + 1));
                        let init = special(m * n, k + 2);
                        assert_matches_unblocked(arm, (m, k, n), &a, &b, &init);
                    }
                }
            }
        });
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
                    mm_nt_on(arm, &a, &b, &mut c, m, k, n, acc);
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
    /// every thread count produces the same output as the serial path, for
    /// every orientation, with and without accumulation. (Thread config is
    /// process-global; this test flips it, which is safe precisely because
    /// of the property it pins.)
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
                crate::par::set_threads(1);
                let (mut want_nn, mut want_nt, mut want_tn) =
                    (init.clone(), init.clone(), init.clone());
                mm_nn_on(arm, &a, &b, &mut want_nn, m, k, n, acc);
                mm_nt_on(arm, &a, &bt, &mut want_nt, m, k, n, acc);
                mm_tn_on(arm, &at, &b, &mut want_tn, m, k, n, acc);
                for t in [2, 3, 4, 8] {
                    crate::par::set_threads(t);
                    let mut c = init.clone();
                    mm_nn_on(arm, &a, &b, &mut c, m, k, n, acc);
                    assert!(
                        c.iter()
                            .zip(&want_nn)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{name} mm_nn diverges at {t} threads (acc={acc})"
                    );
                    let mut c = init.clone();
                    mm_nt_on(arm, &a, &bt, &mut c, m, k, n, acc);
                    assert!(
                        c.iter()
                            .zip(&want_nt)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{name} mm_nt diverges at {t} threads (acc={acc})"
                    );
                    let mut c = init.clone();
                    mm_tn_on(arm, &at, &b, &mut c, m, k, n, acc);
                    assert!(
                        c.iter()
                            .zip(&want_tn)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{name} mm_tn diverges at {t} threads (acc={acc})"
                    );
                }
            }
        });
        crate::par::set_threads(1);
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
