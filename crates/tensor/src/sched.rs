//! Declared reduction schedules for the parallel matmul kernels.
//!
//! A [`ReductionSchedule`] is the *contract* between a parallel kernel
//! and the static certifier in `analysis::par`: which axis the output is
//! split along, the exact chunk ranges each worker owns, and the fixed
//! binary join tree that combines worker results. The executor
//! (`crate::par::run_row_chunks`) implements precisely this shape, and
//! [`declared_schedules`] builds the descriptors from the *same*
//! `row_chunks` planner the executor uses — so what gets certified is
//! what runs. The register tiles are declared the same way: their column
//! chunks come from the iterators the kernels themselves walk
//! (`kernels::mm_nt_column_tiles` for `mm_nt`, `kernels::mm_column_tiles`
//! for `mm_nn` and `mm_tn`), with one SIMD lane group per chunk.
//!
//! For a fork-join row split the "join" is trivial (workers write
//! disjoint rows; joining is just thread join, in worker order), but the
//! tree is still declared explicitly: the certifier's job is to prove
//! that *whatever* the tree is, combining in that order is bit-equal to
//! the sequential reduction — and to reject trees (e.g. any `k`-axis
//! split that isn't a left-comb over ascending chunks) where it is not.

use crate::graph::MmOrient;
use crate::{kernels, par};

/// Which output/reduction axis a schedule splits across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitAxis {
    /// Output rows — each worker owns whole reduction chains. Safe.
    M,
    /// Output columns — also owns whole chains. The register tiles split
    /// this way: each column chunk is one group of SIMD lanes.
    N,
    /// The contraction axis — chops reduction chains into partial sums
    /// that must be re-combined; only a left-comb join over ascending
    /// chunks can be bit-equal to sequential order.
    K,
}

impl SplitAxis {
    pub fn as_str(&self) -> &'static str {
        match self {
            SplitAxis::M => "m",
            SplitAxis::N => "n",
            SplitAxis::K => "k",
        }
    }
}

/// A binary tree over chunk indices describing the order worker results
/// combine. `Leaf(i)` is chunk `i`'s partial result; `Node(l, r)`
/// combines `l` then `r` (left operand is the accumulator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinTree {
    Leaf(usize),
    Node(Box<JoinTree>, Box<JoinTree>),
}

impl JoinTree {
    /// The left-comb (sequential-fold) tree over chunks `0..n`:
    /// `((…(0⊕1)⊕2)…)⊕(n-1)` — the only join order that reproduces a
    /// sequential left-to-right reduction exactly.
    pub fn left_spine(n: usize) -> JoinTree {
        assert!(n > 0, "join tree over zero chunks");
        let mut tree = JoinTree::Leaf(0);
        for i in 1..n {
            tree = JoinTree::Node(Box::new(tree), Box::new(JoinTree::Leaf(i)));
        }
        tree
    }

    /// Leaf chunk indices in combine order (left-to-right).
    pub fn leaves(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<usize>) {
        match self {
            JoinTree::Leaf(i) => out.push(*i),
            JoinTree::Node(l, r) => {
                l.collect_leaves(out);
                r.collect_leaves(out);
            }
        }
    }
}

/// The full schedule one parallel kernel declares for one launch shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionSchedule {
    /// Kernel name (`mm_nn` / `mm_nt` / `mm_tn`).
    pub kernel: &'static str,
    pub orient: MmOrient,
    /// `(m, k, n)` of the launch.
    pub shape: (usize, usize, usize),
    pub split: SplitAxis,
    /// Per-worker `[lo, hi)` ranges along the split axis.
    pub chunks: Vec<(usize, usize)>,
    /// How worker results combine.
    pub join: JoinTree,
}

impl ReductionSchedule {
    /// Length of the split axis this schedule must tile.
    pub fn axis_len(&self) -> usize {
        let (m, k, n) = self.shape;
        match self.split {
            SplitAxis::M => m,
            SplitAxis::N => n,
            SplitAxis::K => k,
        }
    }
}

/// The schedules the kernels (`crate::kernels`) actually run for an
/// `(m, k, n)` launch at `workers` threads: every orientation splits
/// output rows (`M`) into the planner's contiguous ascending chunks and
/// joins along the left spine in worker order, and inside each worker
/// every orientation splits output columns (`N`) into its register
/// tile's lane groups.
pub fn declared_schedules(m: usize, k: usize, n: usize, workers: usize) -> Vec<ReductionSchedule> {
    const KERNELS: [(&str, MmOrient); 3] = [
        ("mm_nn", MmOrient::Nn),
        ("mm_nt", MmOrient::Nt),
        ("mm_tn", MmOrient::Tn),
    ];
    let schedule =
        |(kernel, orient): (&'static str, MmOrient), split, chunks: Vec<_>| ReductionSchedule {
            kernel,
            orient,
            shape: (m, k, n),
            split,
            join: JoinTree::left_spine(chunks.len()),
            chunks,
        };
    let rows = par::row_chunks(m, workers);
    let columns = |orient| match orient {
        MmOrient::Nt => kernels::mm_nt_column_tiles(n).collect(),
        MmOrient::Nn | MmOrient::Tn => kernels::mm_column_tiles(n).collect(),
    };
    let row_splits = KERNELS.map(|kernel| schedule(kernel, SplitAxis::M, rows.clone()));
    let column_tiles = KERNELS.map(|kernel| schedule(kernel, SplitAxis::N, columns(kernel.1)));
    row_splits.into_iter().chain(column_tiles).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn left_spine_combines_in_ascending_order() {
        let t = JoinTree::left_spine(4);
        assert_eq!(t.leaves(), vec![0, 1, 2, 3]);
        // Shape check: ((0⊕1)⊕2)⊕3 — right child of the root is leaf 3.
        let JoinTree::Node(_, r) = &t else {
            panic!("spine with >1 leaf must be a node");
        };
        assert_eq!(**r, JoinTree::Leaf(3));
    }

    #[test]
    fn declared_schedules_cover_all_orientations_and_tile_m() {
        let scheds = declared_schedules(65, 130, 257, 4);
        assert_eq!(scheds.len(), 6);
        let (rows, tiles) = scheds.split_at(3);
        for s in rows {
            assert_eq!(s.split, SplitAxis::M);
            assert_eq!(s.axis_len(), 65);
            assert_eq!(s.chunks.first().unwrap().0, 0);
            assert_eq!(s.chunks.last().unwrap().1, 65);
            assert_eq!(s.join.leaves().len(), s.chunks.len());
        }
        for s in tiles {
            assert_eq!(s.split, SplitAxis::N);
            assert_eq!(s.axis_len(), 257);
            assert_eq!(s.join.leaves().len(), s.chunks.len());
        }
        let kernels: Vec<&str> = tiles.iter().map(|s| s.kernel).collect();
        assert_eq!(kernels, ["mm_nn", "mm_nt", "mm_tn"]);
        // The mm_nt register tile: MM_NR-wide column chunks over n = 257,
        // the last one a single column.
        let nt = &tiles[1];
        assert_eq!(nt.chunks.len(), 257usize.div_ceil(kernels::MM_NR));
        assert!(nt.chunks[..32]
            .iter()
            .all(|&(lo, hi)| hi - lo == kernels::MM_NR));
        assert_eq!(nt.chunks.last(), Some(&(256, 257)));
        // The mm_nn / mm_tn tile: eight MM_NC-wide chunks, then a single
        // column; 16–31 remaining columns take one narrow chunk first.
        for s in [&tiles[0], &tiles[2]] {
            assert_eq!(s.chunks.len(), 9);
            assert!(s.chunks[..8]
                .iter()
                .all(|&(lo, hi)| hi - lo == kernels::MM_NC));
            assert_eq!(s.chunks.last(), Some(&(256, 257)));
        }
        let narrow = declared_schedules(3, 8, 49, 1);
        assert_eq!(narrow[3].chunks, [(0, 32), (32, 48), (48, 49)]);
        let exact = declared_schedules(3, 8, 16, 1);
        assert_eq!(exact[5].chunks, [(0, 16)]);
    }

    #[test]
    fn schedules_mirror_the_executors_planner() {
        let scheds = declared_schedules(7, 64, 129, 3);
        assert_eq!(scheds[0].chunks, par::row_chunks(7, 3));
    }
}
