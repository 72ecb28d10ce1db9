//! Linear algebra for the MNA system: a dense LU and a static-pattern
//! sparse LU.
//!
//! Latch-scale circuits produce systems of a few dozen unknowns, where a
//! dense LU factorization with partial pivoting is the simplest correct
//! option (no fill-in bookkeeping, cache-friendly row access). MNA
//! matrices are nonetheless *structurally* sparse — a handful of entries
//! per row — so the dense elimination skips updates whose operands are
//! exactly zero: those are value-level no-ops, and dropping them leaves
//! every computed result unchanged while cutting most of the O(n³) work.
//! The dense path is the correctness oracle.
//!
//! The sparse path ([`SparsePattern`] + [`SymbolicLu`]) is the default
//! engine. The structural nonzero pattern of the assembled matrix is
//! fixed by the analysis layer's stamp plan, so its work splits by how
//! often it has to happen:
//!
//! * **Once per plan:** a structural Markowitz column order, computed
//!   from the pattern alone when it is built
//!   ([`SparsePattern::column_order`]). It is fill-reducing and depends
//!   on no values.
//! * **Once per analysis:** threshold partial pivoting along that column
//!   order freezes the row order, then the `L+U` fill closure and the
//!   refactor's direct addressing are laid out.
//! * **Every Newton iteration:** a refactorization in the frozen pattern
//!   that scatters `A` straight into its `L+U` slots and runs a
//!   precomputed list of multiply-adds — no pivot search, no fill
//!   discovery, no dense scratch row.
//!
//! A guard compares each refactored pivot against its magnitude at
//! freeze time and transparently re-pivots from scratch when values have
//! drifted enough to make the frozen order unsafe.

/// A dense, row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

/// Reusable working storage for [`DenseMatrix::solve_in_place`].
///
/// Holds the pivot row's nonzero-column index list, so repeated solves
/// (one per Newton iteration, thousands per transient) perform no heap
/// allocation after the first call.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuScratch {
    nonzero_cols: Vec<u32>,
}

impl LuScratch {
    /// Creates a scratch buffer pre-sized for an `n × n` system.
    #[must_use]
    pub(crate) fn for_dim(n: usize) -> Self {
        Self {
            nonzero_cols: Vec::with_capacity(n),
        }
    }
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    #[must_use]
    pub(crate) fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// Returns the entry at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col]
    }

    /// Sets the entry at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[cfg(test)]
    pub(crate) fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` to the entry at (`row`, `col`) — the *stamp*
    /// operation every MNA device contribution uses.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub(crate) fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] += value;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Borrows the raw row-major entries.
    ///
    /// Crate-internal: lets the reference engine copy the matrix at the
    /// same cost the seed solver paid (`data.clone()`), keeping it an
    /// honest baseline.
    #[must_use]
    pub(crate) fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the raw row-major entries — the value array the
    /// dense oracle's stamp table addresses as `row·n + col`.
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Solves `A·x = b` on a copy of `self`, leaving `self` intact —
    /// the dense reference the sparse tests compare against.
    ///
    /// Returns `None` if the matrix is numerically singular.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    #[cfg(test)]
    pub(crate) fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        let mut x = Vec::new();
        self.clone()
            .solve_in_place(b, &mut LuScratch::default(), &mut x)
            .then_some(x)
    }

    /// Solves `A·x = b` into `x`, factoring `self` **in place** — on
    /// return the matrix holds the (partially pivoted) elimination
    /// residue and must be re-stamped before the next use.
    ///
    /// This is the hot-loop entry point: the matrix is re-assembled from
    /// scratch every Newton iteration anyway, so no working copy is made.
    ///
    /// Returns `false` if the matrix is numerically singular (in which
    /// case the contents of `x` are unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub(crate) fn solve_in_place(
        &mut self,
        b: &[f64],
        scratch: &mut LuScratch,
        x: &mut Vec<f64>,
    ) -> bool {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        x.clear();
        x.extend_from_slice(b);
        lu_solve_core(&mut self.data, self.n, &mut scratch.nonzero_cols, x)
    }

    /// Computes `A·x` (used by tests and residual checks).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the matrix dimension.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "vector length mismatch");
        (0..self.n)
            .map(|r| (0..self.n).map(|c| self.data[r * self.n + c] * x[c]).sum())
            .collect()
    }
}

/// LU-with-partial-pivoting factorization and solve, operating directly
/// on a row-major `n × n` buffer with the RHS pre-loaded into `x`.
///
/// MNA matrices carry only a handful of nonzeros per row, so before
/// eliminating below each pivot the core records the pivot row's
/// nonzero columns (right of the diagonal) in `nz` and restricts the
/// update loop to them. A skipped update would have computed
/// `a[r][j] -= factor * 0.0`, a value-level no-op, so every surviving
/// operation — and therefore every result — matches the textbook dense
/// loop. The subdiagonal residue `a[r][k]` is likewise never read again
/// (pivot searches only look at columns > k) and is left unwritten.
///
/// Back substitution stays dense: it is O(n²) and keeps non-finite
/// values flowing into the final singularity check exactly as before.
///
/// Returns `false` if the matrix is numerically singular.
fn lu_solve_core(lu: &mut [f64], n: usize, nz: &mut Vec<u32>, x: &mut [f64]) -> bool {
    debug_assert_eq!(lu.len(), n * n);
    debug_assert_eq!(x.len(), n);
    for k in 0..n {
        // Pivot selection.
        let mut pivot_row = k;
        let mut pivot_val = lu[k * n + k].abs();
        for (off, row) in lu[(k + 1) * n..].chunks_exact(n).enumerate() {
            let v = row[k].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = k + 1 + off;
            }
        }
        if pivot_val < PIVOT_EPS {
            return false;
        }
        if pivot_row != k {
            for j in 0..n {
                lu.swap(k * n + j, pivot_row * n + j);
            }
            x.swap(k, pivot_row);
        }
        // Elimination of rows below k, RHS folded in, restricted to the
        // pivot row's nonzero columns.
        let (upper, lower) = lu.split_at_mut((k + 1) * n);
        let row_k = &upper[k * n..(k + 1) * n];
        let pivot = row_k[k];
        nz.clear();
        for (j, &v) in row_k.iter().enumerate().skip(k + 1) {
            if v != 0.0 {
                nz.push(j as u32);
            }
        }
        let (x_upper, x_lower) = x.split_at_mut(k + 1);
        let x_k = x_upper[k];
        for (row_r, x_r) in lower.chunks_exact_mut(n).zip(x_lower.iter_mut()) {
            let factor = row_r[k] / pivot;
            if factor == 0.0 {
                continue;
            }
            for &j in nz.iter() {
                let j = j as usize;
                row_r[j] -= factor * row_k[j];
            }
            *x_r -= factor * x_k;
        }
    }
    // Back substitution.
    for k in (0..n).rev() {
        let row_k = &lu[k * n..(k + 1) * n];
        let mut acc = x[k];
        for (&aj, &xj) in row_k[k + 1..].iter().zip(x[k + 1..].iter()) {
            acc -= aj * xj;
        }
        x[k] = acc / row_k[k];
    }
    x.iter().all(|v| v.is_finite())
}

/// Numeric singularity threshold shared by the dense and sparse paths.
const PIVOT_EPS: f64 = 1e-30;

/// Relative decay of a frozen pivot (against its magnitude when the
/// pivot order was frozen) that triggers an automatic re-pivot. The
/// threshold pivoting bounds element growth only for the order it chose;
/// once a pivot shrinks by many orders of magnitude relative to freeze
/// time, that order may no longer be a stable one, so the factorization
/// is redone from scratch with a fresh pivot search.
const PIVOT_DECAY: f64 = 1e-6;

/// Threshold of the per-analysis pivot search: a row is an eligible
/// pivot for its column if its entry is at least this fraction of the
/// column's largest magnitude. Among eligible rows the sparsest wins, so
/// the order trades a bounded growth factor (at most `1 + 1/0.1` per
/// step) for fill.
const PIVOT_THRESHOLD: f64 = 0.1;

/// Frozen structural nonzero pattern of an assembled MNA matrix, in CSR
/// form, with the fill-reducing column order the sparse LU eliminates
/// in.
///
/// Built once per stamp plan from the positions its stamps add into,
/// each of which the plan resolves to a CSR slot up front
/// ([`SparsePattern::slot`]); the value array it indexes lives in the
/// solver workspace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparsePattern {
    n: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    /// Structural Markowitz column order (see
    /// [`SparsePattern::column_order`]). Shorter than `n` when the
    /// pattern is structurally singular: it holds the columns eliminated
    /// before the active submatrix ran out of entries.
    col_order: Vec<u32>,
}

impl SparsePattern {
    /// Builds the pattern from structural `(row, col)` entries and
    /// computes its column order. Duplicates are allowed and merged.
    ///
    /// # Panics
    ///
    /// Panics if an entry is out of bounds for an `n × n` system.
    #[must_use]
    pub(crate) fn from_entries(n: usize, mut entries: Vec<(u32, u32)>) -> Self {
        entries.sort_unstable();
        entries.dedup();
        let mut row_ptr = vec![0u32; n + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        for &(r, c) in &entries {
            let (r, c) = (r as usize, c as usize);
            assert!(r < n && c < n, "pattern entry out of bounds");
            col_idx.push(c as u32);
            row_ptr[r + 1] += 1;
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut pattern = Self {
            n,
            row_ptr,
            col_idx,
            col_order: Vec::new(),
        };
        pattern.col_order = pattern.markowitz_order();
        pattern
    }

    /// Matrix dimension.
    #[must_use]
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The fill-reducing column pre-order the sparse LU eliminates in
    /// (`order[k]` is the column pivoted at step `k`), or `None` if the
    /// pattern is structurally singular — some elimination step found no
    /// structural entry left to pivot on, so no assignment of values can
    /// make the matrix nonsingular.
    #[must_use]
    pub fn column_order(&self) -> Option<&[u32]> {
        (self.col_order.len() == self.n).then_some(&self.col_order[..])
    }

    /// The CSR slot backing `(row, col)`, or `None` for a structural
    /// zero (or a position outside the matrix).
    #[must_use]
    pub(crate) fn slot(&self, row: usize, col: usize) -> Option<usize> {
        if row >= self.n {
            return None;
        }
        let (cols, lo) = self.row(row);
        cols.binary_search(&(col as u32)).ok().map(|k| lo + k)
    }

    /// Adds `value` to the CSR slot backing `(row, col)` — the sparse
    /// counterpart of [`DenseMatrix::add`], for tests that build values
    /// by hand.
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is a structural zero of the pattern.
    #[cfg(test)]
    pub(crate) fn add_into(&self, values: &mut [f64], row: usize, col: usize, value: f64) {
        let slot = self
            .slot(row, col)
            .unwrap_or_else(|| panic!("stamp at ({row}, {col}) outside the frozen pattern"));
        values[slot] += value;
    }

    /// The column indices of `row`, ascending, and the CSR slot of the
    /// row's first entry.
    #[inline]
    fn row(&self, row: usize) -> (&[u32], usize) {
        let lo = self.row_ptr[row] as usize;
        let hi = self.row_ptr[row + 1] as usize;
        (&self.col_idx[lo..hi], lo)
    }

    /// Structural Markowitz ordering: simulates elimination on the
    /// pattern alone, each step pivoting on the active entry with the
    /// smallest `(row count − 1)·(column count − 1)` (ties: fewer column
    /// entries, then lower column, then lower row) and merging the pivot
    /// row into every row of its column. Returns the pivot columns in
    /// elimination order; it stops early, shorter than `n`, when the
    /// active submatrix has no entry left (structural singularity).
    ///
    /// The active submatrix lives in row and column bitsets, so fill
    /// costs a word-wise OR. Values play no part, which is what lets the
    /// plan compute the order once and every analysis reuse it.
    fn markowitz_order(&self) -> Vec<u32> {
        let n = self.n;
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        let mut cols = vec![0u64; n * words];
        let set = |bits: &mut [u64], i: usize, j: usize| bits[i * words + j / 64] |= 1 << (j % 64);
        let clear = |bits: &mut [u64], i: usize, j: usize| {
            bits[i * words + j / 64] &= !(1 << (j % 64));
        };
        for r in 0..n {
            for &c in self.row(r).0 {
                set(&mut rows, r, c as usize);
                set(&mut cols, c as usize, r);
            }
        }
        let count = |bits: &[u64], i: usize| -> u64 {
            bits[i * words..(i + 1) * words]
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum()
        };
        let mut row_cnt: Vec<u64> = (0..n).map(|r| count(&rows, r)).collect();
        let mut col_cnt: Vec<u64> = (0..n).map(|c| count(&cols, c)).collect();
        let mut order = Vec::with_capacity(n);
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            // (cost, column count, column, row) of the best pivot so far.
            let mut best: Option<(u64, u64, usize, usize)> = None;
            for r in 0..n {
                if row_cnt[r] == 0 {
                    continue;
                }
                for_each_bit(&rows[r * words..(r + 1) * words], |c| {
                    let key = ((row_cnt[r] - 1) * (col_cnt[c] - 1), col_cnt[c], c, r);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                });
            }
            let Some((_, _, pc, pr)) = best else {
                break;
            };
            order.push(pc as u32);
            // Fill: every other row of the pivot column takes the pivot
            // row's columns.
            members.clear();
            for_each_bit(&cols[pc * words..(pc + 1) * words], |r| members.push(r));
            for &r in &members {
                if r == pr {
                    continue;
                }
                for w in 0..words {
                    let mut new = rows[pr * words + w] & !rows[r * words + w];
                    rows[r * words + w] |= new;
                    while new != 0 {
                        let c = w * 64 + new.trailing_zeros() as usize;
                        new &= new - 1;
                        set(&mut cols, c, r);
                        col_cnt[c] += 1;
                        row_cnt[r] += 1;
                    }
                }
            }
            // Retire the pivot row, then the pivot column.
            for_each_bit(&rows[pr * words..(pr + 1) * words], |c| {
                clear(&mut cols, c, pr);
                col_cnt[c] -= 1;
            });
            rows[pr * words..(pr + 1) * words].fill(0);
            row_cnt[pr] = 0;
            for &r in &members {
                if r != pr {
                    clear(&mut rows, r, pc);
                    row_cnt[r] -= 1;
                }
            }
            cols[pc * words..(pc + 1) * words].fill(0);
            col_cnt[pc] = 0;
        }
        order
    }
}

/// Calls `f` with the index of every set bit of a bitset, ascending.
fn for_each_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            f(w * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// Outcome of a successful [`SymbolicLu::factor_and_solve`] call,
/// reported so the solver can account for symbolic work separately from
/// the steady-state pattern-reusing path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SparseSolveOutcome {
    /// The frozen pivot order and fill pattern were reused as-is — the
    /// steady-state fast path.
    ReusedPattern,
    /// First solve against this pattern: pivot order frozen and the
    /// symbolic factorization built.
    Built,
    /// A frozen pivot decayed below threshold mid-refactor; the pivot
    /// order and symbolic factorization were rebuilt from the current
    /// values, then the solve completed.
    Repivoted,
}

/// Static symbolic LU: `P·A·Q = L·U` with the column order `Q` taken
/// from the pattern's structural Markowitz pre-order and the row order
/// `P` frozen by a threshold-pivoted elimination of the first system,
/// then reused by a direct-addressed refactorization for every
/// subsequent solve.
///
/// The numeric contract: the factorization is a stable LU of the same
/// matrix the dense oracle factors, in a different pivot order, so the
/// two agree to roundoff rather than bit for bit. Stability comes from
/// the threshold rule at freeze time (every pivot is at least
/// [`PIVOT_THRESHOLD`] of its column's largest entry) and is kept by the
/// decay guard, which re-pivots once when a refactored pivot falls below
/// [`PIVOT_DECAY`] of its freeze-time magnitude.
///
/// All buffers are retained across calls; after the first build a
/// refactor-and-solve performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymbolicLu {
    n: usize,
    built: bool,
    /// Permuted row `i` of the factorization is original row `row_perm[i]`.
    row_perm: Vec<u32>,
    /// Permuted column `j` of the factorization is original column
    /// `col_perm[j]` (a copy of the pattern's column order).
    col_perm: Vec<u32>,
    /// CSR layout of `L + U` in permuted coordinates (unit-diagonal L
    /// implicit; factors stored in the L slots, U on and right of the
    /// diagonal), columns ascending.
    lu_row_ptr: Vec<u32>,
    lu_col: Vec<u32>,
    lu_val: Vec<f64>,
    /// Slot of the diagonal entry of each permuted row.
    lu_diag: Vec<u32>,
    /// `L+U` slot each CSR slot of `A` lands in.
    a_to_lu: Vec<u32>,
    /// Target slots of the refactor's multiply-adds, in execution order:
    /// for each row `i`, each L slot `(i, k)` ascending, each U slot
    /// `(k, j)` right of row `k`'s diagonal — the slot of `(i, j)`.
    update_target: Vec<u32>,
    /// |pivot| recorded when the order was frozen — the reference for
    /// the decay guard.
    ref_pivot: Vec<f64>,
    /// Permuted-space work vector of the triangular solves.
    w: Vec<f64>,
    /// Dense n × n scratch for the pivot-freezing factorization.
    dense: Vec<f64>,
    /// Rows already pivoted during the freeze; reused as column-presence
    /// marks by the symbolic row merge.
    mark: Vec<bool>,
    /// Columns already eliminated during the freeze.
    col_done: Vec<bool>,
    /// Pivot-row nonzero columns during the freeze.
    nz: Vec<u32>,
    /// Inverse column order: original column `c` is permuted column
    /// `col_pos[c]` (symbolic build).
    col_pos: Vec<u32>,
    /// Permuted column → `L+U` slot of the row being built (symbolic
    /// build).
    slot_pos: Vec<u32>,
}

impl SymbolicLu {
    /// Creates an empty symbolic object; it builds itself on the first
    /// [`SymbolicLu::factor_and_solve`] call.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Whether a pivot order is currently frozen.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn is_built(&self) -> bool {
        self.built
    }

    /// Structural nonzeros of `L + U` including fill-in (0 before the
    /// first build).
    #[must_use]
    pub(crate) fn lu_nnz(&self) -> usize {
        self.lu_col.len()
    }

    /// Drops the frozen pivot order, forcing a rebuild on the next
    /// solve. Called at the start of every analysis and when the
    /// pattern itself changes (plan rebuild).
    pub(crate) fn invalidate(&mut self) {
        self.built = false;
    }

    /// Factors `values` (laid out per `pattern`) and solves for `b`,
    /// writing the solution into `x`. Freezes the pivot order on first
    /// use, reuses it afterwards, and re-pivots automatically when a
    /// frozen pivot decays below threshold.
    ///
    /// Returns `None` if the matrix is numerically or structurally
    /// singular or the solution is non-finite (matching the dense
    /// solver's contract).
    ///
    /// # Panics
    ///
    /// Panics if `values`, `b` or the pattern dimensions disagree.
    pub(crate) fn factor_and_solve(
        &mut self,
        pattern: &SparsePattern,
        values: &[f64],
        b: &[f64],
        x: &mut Vec<f64>,
    ) -> Option<SparseSolveOutcome> {
        assert_eq!(values.len(), pattern.nnz(), "value/pattern mismatch");
        assert_eq!(b.len(), pattern.dim(), "rhs length mismatch");
        let mut outcome = SparseSolveOutcome::ReusedPattern;
        if !self.built || self.n != pattern.dim() {
            if !self.rebuild(pattern, values) {
                return None;
            }
            outcome = SparseSolveOutcome::Built;
        }
        if !self.refactor(values) {
            // A frozen pivot decayed (or vanished): re-pivot from the
            // current values. A fresh build's pivots pass its own
            // threshold search, so a second failure means the matrix is
            // genuinely singular.
            if !self.rebuild(pattern, values) || !self.refactor(values) {
                return None;
            }
            outcome = SparseSolveOutcome::Repivoted;
        }
        self.solve_rhs(b, x).then_some(outcome)
    }

    /// Freezes the row order by a threshold-pivoted dense elimination of
    /// the current values along the pattern's column order: at each step
    /// the rows whose entry in the pivot column is at least
    /// [`PIVOT_THRESHOLD`] of the column's largest are eligible, and the
    /// one with the fewest nonzeros left wins (ties: larger magnitude,
    /// then lower row). Then builds the symbolic `L+U` pattern with fill
    /// for that order. Returns `false` on structural or numeric
    /// singularity.
    fn rebuild(&mut self, pattern: &SparsePattern, values: &[f64]) -> bool {
        let n = pattern.dim();
        self.n = n;
        self.built = false;
        let Some(order) = pattern.column_order() else {
            return false;
        };
        self.col_perm.clear();
        self.col_perm.extend_from_slice(order);
        self.row_perm.clear();
        self.ref_pivot.clear();
        // Scatter the CSR values into the dense scratch.
        self.dense.clear();
        self.dense.resize(n * n, 0.0);
        for r in 0..n {
            let (cols, first) = pattern.row(r);
            for (k, &c) in cols.iter().enumerate() {
                self.dense[r * n + c as usize] = values[first + k];
            }
        }
        let lu = &mut self.dense;
        let row_done = &mut self.mark;
        row_done.clear();
        row_done.resize(n, false);
        let col_done = &mut self.col_done;
        col_done.clear();
        col_done.resize(n, false);
        for &c in order {
            let c = c as usize;
            let col_max = (0..n)
                .filter(|&r| !row_done[r])
                .fold(0.0_f64, |m, r| m.max(lu[r * n + c].abs()));
            if col_max < PIVOT_EPS {
                return false;
            }
            // (nonzeros left, |entry|, row) of the best eligible row.
            let mut best: Option<(usize, f64, usize)> = None;
            for r in (0..n).filter(|&r| !row_done[r]) {
                let v = lu[r * n + c].abs();
                if v < PIVOT_THRESHOLD * col_max {
                    continue;
                }
                let row = &lu[r * n..(r + 1) * n];
                let left = (0..n).filter(|&j| !col_done[j] && row[j] != 0.0).count();
                if best.is_none_or(|(bl, bv, _)| left < bl || (left == bl && v > bv)) {
                    best = Some((left, v, r));
                }
            }
            let Some((_, _, p)) = best else {
                return false;
            };
            row_done[p] = true;
            col_done[c] = true;
            self.row_perm.push(p as u32);
            let pivot = lu[p * n + c];
            self.ref_pivot.push(pivot.abs());
            self.nz.clear();
            for j in 0..n {
                if !col_done[j] && lu[p * n + j] != 0.0 {
                    self.nz.push(j as u32);
                }
            }
            for r in 0..n {
                if row_done[r] {
                    continue;
                }
                let factor = lu[r * n + c] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for &j in &self.nz {
                    let j = j as usize;
                    lu[r * n + j] -= factor * lu[p * n + j];
                }
            }
        }
        self.symbolic(pattern);
        self.built = true;
        true
    }

    /// Symbolic factorization for the frozen row and column orders, in
    /// permuted coordinates: row `i`'s pattern is the union of A-row
    /// `row_perm[i]` (columns renumbered by position in `col_perm`) with
    /// the U-patterns of every L-column it touches (in ascending column
    /// order), plus the forced diagonal — Gilbert–Peierls reachability
    /// for a static order. Also lays out the refactor's direct addressing:
    /// the A-slot → `L+U`-slot map and the multiply-add target list.
    fn symbolic(&mut self, pattern: &SparsePattern) {
        let n = self.n;
        let col_pos = &mut self.col_pos;
        col_pos.clear();
        col_pos.resize(n, 0);
        for (j, &c) in self.col_perm.iter().enumerate() {
            col_pos[c as usize] = j as u32;
        }
        let slot_pos = &mut self.slot_pos;
        slot_pos.clear();
        slot_pos.resize(n, 0);
        self.lu_row_ptr.clear();
        self.lu_row_ptr.push(0);
        self.lu_col.clear();
        self.lu_diag.clear();
        self.a_to_lu.clear();
        self.a_to_lu.resize(pattern.nnz(), 0);
        self.update_target.clear();
        self.mark.clear();
        self.mark.resize(n, false);
        for i in 0..n {
            let (cols, first) = pattern.row(self.row_perm[i] as usize);
            for &c in cols {
                self.mark[col_pos[c as usize] as usize] = true;
            }
            self.mark[i] = true;
            // Closure: an entry in L-column k pulls in U-row k's columns
            // (all > k), which the ascending scan then revisits, so every
            // transitive fill column is reached in one pass.
            for k in 0..i {
                if self.mark[k] {
                    let k_hi = self.lu_row_ptr[k + 1] as usize;
                    for s in (self.lu_diag[k] as usize + 1)..k_hi {
                        self.mark[self.lu_col[s] as usize] = true;
                    }
                }
            }
            // Gather in ascending column order (required by the numeric
            // refactor's update sequence), clearing marks as we go.
            let row_start = self.lu_col.len();
            for (j, (marked, pos)) in self.mark.iter_mut().zip(slot_pos.iter_mut()).enumerate() {
                if std::mem::take(marked) {
                    if j == i {
                        self.lu_diag.push(self.lu_col.len() as u32);
                    }
                    *pos = self.lu_col.len() as u32;
                    self.lu_col.push(j as u32);
                }
            }
            for (k, &c) in cols.iter().enumerate() {
                self.a_to_lu[first + k] = slot_pos[col_pos[c as usize] as usize];
            }
            let diag = self.lu_diag[i] as usize;
            for s in row_start..diag {
                let k = self.lu_col[s] as usize;
                let k_hi = self.lu_row_ptr[k + 1] as usize;
                for t in (self.lu_diag[k] as usize + 1)..k_hi {
                    self.update_target.push(slot_pos[self.lu_col[t] as usize]);
                }
            }
            self.lu_row_ptr.push(self.lu_col.len() as u32);
        }
        self.lu_val.clear();
        self.lu_val.resize(self.lu_col.len(), 0.0);
        self.w.clear();
        self.w.resize(n, 0.0);
    }

    /// Numeric refactorization in the frozen pattern: scatter `A`
    /// straight into its `L+U` slots, then for each row apply the U-rows
    /// of its L-columns in ascending order, each multiply-add landing on
    /// a precomputed slot. No pivot search and no dense scratch row; the
    /// decay guard compares each pivot against its freeze-time magnitude.
    /// Returns `false` on a decayed or vanishing pivot.
    fn refactor(&mut self, values: &[f64]) -> bool {
        let lu = &mut self.lu_val;
        lu.fill(0.0);
        for (&slot, &v) in self.a_to_lu.iter().zip(values) {
            lu[slot as usize] = v;
        }
        let mut next = 0;
        for i in 0..self.n {
            let lo = self.lu_row_ptr[i] as usize;
            let diag = self.lu_diag[i] as usize;
            for s in lo..diag {
                let k = self.lu_col[s] as usize;
                let k_diag = self.lu_diag[k] as usize;
                let k_hi = self.lu_row_ptr[k + 1] as usize;
                let factor = lu[s] / lu[k_diag];
                lu[s] = factor;
                let row_targets = &self.update_target[next..next + (k_hi - k_diag - 1)];
                next += row_targets.len();
                if factor == 0.0 {
                    continue;
                }
                for (t, &dst) in ((k_diag + 1)..k_hi).zip(row_targets) {
                    lu[dst as usize] -= factor * lu[t];
                }
            }
            let pivot = lu[diag].abs();
            if pivot < PIVOT_EPS || pivot < PIVOT_DECAY * self.ref_pivot[i] {
                return false;
            }
        }
        true
    }

    /// Forward substitution over unit-diagonal L (with the row
    /// permutation applied to `b`), back substitution over U, then the
    /// column permutation undone into `x`. Returns `false` if the
    /// solution is non-finite.
    fn solve_rhs(&mut self, b: &[f64], x: &mut Vec<f64>) -> bool {
        let n = self.n;
        let w = &mut self.w;
        for i in 0..n {
            let mut acc = b[self.row_perm[i] as usize];
            let lo = self.lu_row_ptr[i] as usize;
            let diag = self.lu_diag[i] as usize;
            for s in lo..diag {
                acc -= self.lu_val[s] * w[self.lu_col[s] as usize];
            }
            w[i] = acc;
        }
        for i in (0..n).rev() {
            let diag = self.lu_diag[i] as usize;
            let hi = self.lu_row_ptr[i + 1] as usize;
            let mut acc = w[i];
            for s in (diag + 1)..hi {
                acc -= self.lu_val[s] * w[self.lu_col[s] as usize];
            }
            w[i] = acc / self.lu_val[diag];
        }
        x.clear();
        x.resize(n, 0.0);
        for (&c, &v) in self.col_perm.iter().zip(w.iter()) {
            x[c as usize] = v;
        }
        x.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[&[f64]]) -> DenseMatrix {
        let n = rows.len();
        let mut m = DenseMatrix::zeros(n);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n);
            for (c, &v) in row.iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }

    #[test]
    fn identity_solve() {
        let m = from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = m.solve(&[3.0, 4.0]).expect("nonsingular");
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn solves_a_known_system() {
        let m = from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = m.solve(&[8.0, -11.0, -3.0]).expect("nonsingular");
        let expected = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(expected.iter()) {
            assert!((xi - ei).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let m = from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = m.solve(&[5.0, 7.0]).expect("nonsingular with pivoting");
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_returns_none() {
        let m = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(m.solve(&[1.0, 2.0]).is_none());
        let z = DenseMatrix::zeros(3);
        assert!(z.solve(&[0.0; 3]).is_none());
    }

    #[test]
    fn solve_does_not_mutate_matrix() {
        let m = from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let copy = m.clone();
        let _ = m.solve(&[10.0, 12.0]);
        assert_eq!(m, copy);
    }

    #[test]
    fn residual_is_tiny_for_ill_conditioned_scaling() {
        // Conductances in a real MNA system span ~1e-12 .. 1e-2 S.
        let m = from_rows(&[
            &[1e-2, -1e-2, 0.0],
            &[-1e-2, 1e-2 + 1e-12, -1e-12],
            &[0.0, -1e-12, 2e-12],
        ]);
        let b = [1e-3, 0.0, 1e-15];
        let x = m.solve(&b).expect("solvable");
        let r = m.mul_vec(&x);
        // The system's condition number is ~1e10; accept residuals small
        // relative to the RHS scale rather than entry-exact.
        let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (ri, bi) in r.iter().zip(b.iter()) {
            assert!((ri - bi).abs() < 1e-5 * scale, "{r:?}");
        }
    }

    #[test]
    fn stamp_add_accumulates() {
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 0, 1.0);
        m.add(0, 0, 2.5);
        assert_eq!(m.get(0, 0), 3.5);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.dim(), 2);
    }

    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn wrong_rhs_length_panics() {
        let m = DenseMatrix::zeros(2);
        let _ = m.solve(&[1.0]);
    }

    #[test]
    fn solve_in_place_matches_solve_and_consumes_matrix() {
        let rows: &[&[f64]] = &[
            &[0.0, 2.0, 1.0, 0.0],
            &[1e-6, -1.0, 0.5, 0.0],
            &[3.0, 0.25, -2.0, 1e-9],
            &[0.0, 0.0, 1e3, 4.0],
        ];
        let b = [1.0, -2.5, 3e-3, 0.7];
        let pristine = from_rows(rows);
        let via_alloc = pristine.solve(&b).expect("nonsingular");
        let mut m = from_rows(rows);
        let mut scratch = LuScratch::for_dim(4);
        let mut x = Vec::new();
        assert!(m.solve_in_place(&b, &mut scratch, &mut x));
        assert_eq!(via_alloc, x, "solve and solve_in_place must agree exactly");
        // The matrix now holds elimination residue, not A.
        assert_ne!(m, pristine);
        // Singular systems are still detected.
        let mut s = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(!s.solve_in_place(&[1.0, 2.0], &mut scratch, &mut x));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_bounds_panics() {
        let m = DenseMatrix::zeros(2);
        let _ = m.get(2, 0);
    }

    /// Builds a pattern + CSR values from a dense row specification,
    /// treating exact zeros as structural zeros.
    fn sparse_from_rows(rows: &[&[f64]]) -> (SparsePattern, Vec<f64>) {
        let n = rows.len();
        let mut entries = Vec::new();
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    entries.push((r as u32, c as u32));
                }
            }
        }
        let pattern = SparsePattern::from_entries(n, entries);
        let mut values = vec![0.0; pattern.nnz()];
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    pattern.add_into(&mut values, r, c, v);
                }
            }
        }
        (pattern, values)
    }

    #[test]
    fn sparse_pattern_layout_and_stamping() {
        let pattern = SparsePattern::from_entries(3, vec![(2, 0), (0, 0), (0, 2), (1, 1), (0, 0)]);
        assert_eq!(pattern.dim(), 3);
        assert_eq!(pattern.nnz(), 4, "duplicates merge");
        let mut values = vec![0.0; pattern.nnz()];
        pattern.add_into(&mut values, 0, 0, 1.5);
        pattern.add_into(&mut values, 0, 0, 0.5);
        pattern.add_into(&mut values, 2, 0, -1.0);
        assert_eq!(values, vec![2.0, 0.0, 0.0, -1.0]);
        assert_eq!(pattern.slot(2, 0), Some(3));
        assert_eq!(pattern.slot(0, 1), None, "structural zero");
        assert_eq!(pattern.slot(3, 0), None, "outside the matrix");
    }

    #[test]
    #[should_panic(expected = "outside the frozen pattern")]
    fn sparse_stamp_outside_pattern_panics() {
        let pattern = SparsePattern::from_entries(2, vec![(0, 0), (1, 1)]);
        let mut values = vec![0.0; 2];
        pattern.add_into(&mut values, 0, 1, 1.0);
    }

    /// Relative agreement between the sparse engine and the dense
    /// oracle: both are stable LUs of the same matrix in different pivot
    /// orders, so they agree to roundoff, not bit for bit.
    fn assert_close(sparse: &[f64], dense: &[f64]) {
        assert_eq!(sparse.len(), dense.len());
        for (s, d) in sparse.iter().zip(dense) {
            assert!(
                (s - d).abs() <= 1e-12 * d.abs().max(1.0),
                "sparse {sparse:?} vs dense {dense:?}"
            );
        }
    }

    #[test]
    fn sparse_first_solve_matches_dense_to_roundoff() {
        // The same awkward system the dense tests use: forces pivoting,
        // fill-in, and zero-skip branches.
        let rows: &[&[f64]] = &[
            &[0.0, 2.0, 1.0, 0.0],
            &[1e-6, -1.0, 0.5, 0.0],
            &[3.0, 0.25, -2.0, 1e-9],
            &[0.0, 0.0, 1e3, 4.0],
        ];
        let b = [1.0, -2.5, 3e-3, 0.7];
        let dense = from_rows(rows).solve(&b).expect("nonsingular");
        let (pattern, values) = sparse_from_rows(rows);
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        let outcome = sym
            .factor_and_solve(&pattern, &values, &b, &mut x)
            .expect("nonsingular");
        assert_eq!(outcome, SparseSolveOutcome::Built);
        assert!(sym.lu_nnz() >= pattern.nnz());
        assert_close(&x, &dense);
    }

    #[test]
    fn sparse_refactor_in_pattern_matches_dense() {
        let rows: &[&[f64]] = &[
            &[4.0, -1.0, 0.0, -1.0],
            &[-1.0, 4.0, -1.0, 0.0],
            &[0.0, -1.0, 4.0, -1.0],
            &[-1.0, 0.0, -1.0, 4.0],
        ];
        let (pattern, mut values) = sparse_from_rows(rows);
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        let b = [1.0, 0.0, -2.0, 0.5];
        assert_eq!(
            sym.factor_and_solve(&pattern, &values, &b, &mut x),
            Some(SparseSolveOutcome::Built)
        );
        // Perturb values (same structure, same diagonal dominance) and
        // solve again: the pattern is reused and the result matches a
        // from-scratch dense solve.
        for (k, v) in values.iter_mut().enumerate() {
            *v *= 1.0 + 0.01 * (k as f64 + 1.0);
        }
        let mut dense = DenseMatrix::zeros(4);
        for r in 0..4 {
            let (cols, first) = pattern.row(r);
            for (k, &c) in cols.iter().enumerate() {
                dense.set(r, c as usize, values[first + k]);
            }
        }
        let want = dense.solve(&b).expect("nonsingular");
        assert_eq!(
            sym.factor_and_solve(&pattern, &values, &b, &mut x),
            Some(SparseSolveOutcome::ReusedPattern)
        );
        assert_close(&x, &want);
    }

    #[test]
    fn sparse_repivots_when_frozen_pivot_decays() {
        // Freeze the order on a matrix where row 0 dominates column 0,
        // then collapse that entry by 12 orders of magnitude so the
        // frozen pivot fails the decay guard and a re-pivot kicks in.
        let rows: &[&[f64]] = &[&[1.0, 1.0], &[2e-2, 1.0]];
        let (pattern, mut values) = sparse_from_rows(rows);
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        let b = [1.0, 3.0];
        assert_eq!(
            sym.factor_and_solve(&pattern, &values, &b, &mut x),
            Some(SparseSolveOutcome::Built)
        );
        pattern.add_into(&mut values, 0, 0, 1e-12 - 1.0);
        let outcome = sym
            .factor_and_solve(&pattern, &values, &b, &mut x)
            .expect("still nonsingular");
        assert_eq!(outcome, SparseSolveOutcome::Repivoted);
        // Verify against a dense solve of the perturbed system.
        let mut dense = DenseMatrix::zeros(2);
        dense.set(0, 0, 1e-12);
        dense.set(0, 1, 1.0);
        dense.set(1, 0, 2e-2);
        dense.set(1, 1, 1.0);
        let want = dense.solve(&b).expect("nonsingular");
        for (s, d) in x.iter().zip(want.iter()) {
            assert!(
                (s - d).abs() <= 1e-9 * d.abs().max(1.0),
                "{x:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn sparse_detects_singularity() {
        let rows: &[&[f64]] = &[&[1.0, 2.0], &[2.0, 4.0]];
        let (pattern, values) = sparse_from_rows(rows);
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        assert!(sym
            .factor_and_solve(&pattern, &values, &[1.0, 2.0], &mut x)
            .is_none());
        // A singular matrix handed to an already-built symbolic object
        // (structure reused, values degenerate) is also caught: the
        // refactor fails the decay guard, the re-pivot build fails too.
        let rows_ok: &[&[f64]] = &[&[1.0, 2.0], &[2.0, 1.0]];
        let (p2, mut v2) = sparse_from_rows(rows_ok);
        assert!(sym
            .factor_and_solve(&p2, &v2, &[1.0, 2.0], &mut x)
            .is_some());
        p2.add_into(&mut v2, 1, 1, 3.0); // rows become [1,2],[2,4]
        assert!(sym
            .factor_and_solve(&p2, &v2, &[1.0, 2.0], &mut x)
            .is_none());
    }

    #[test]
    fn sparse_handles_empty_system() {
        let pattern = SparsePattern::from_entries(0, Vec::new());
        let mut sym = SymbolicLu::new();
        let mut x = vec![1.0];
        assert!(sym.factor_and_solve(&pattern, &[], &[], &mut x).is_some());
        assert!(x.is_empty());
    }

    #[test]
    fn sparse_invalidate_forces_rebuild() {
        let rows: &[&[f64]] = &[&[2.0, 1.0], &[1.0, 3.0]];
        let (pattern, values) = sparse_from_rows(rows);
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        let b = [1.0, 1.0];
        assert_eq!(
            sym.factor_and_solve(&pattern, &values, &b, &mut x),
            Some(SparseSolveOutcome::Built)
        );
        assert!(sym.is_built());
        sym.invalidate();
        assert_eq!(
            sym.factor_and_solve(&pattern, &values, &b, &mut x),
            Some(SparseSolveOutcome::Built)
        );
    }

    #[test]
    fn markowitz_order_avoids_arrowhead_fill() {
        // Dense first row and column: eliminating column 0 first fills
        // the whole matrix, eliminating it last fills nothing.
        let n = 6;
        let mut rows = vec![vec![0.0; n]; n];
        for (i, row) in rows.iter_mut().enumerate() {
            row[i] = 4.0;
            row[0] = 1.0;
        }
        rows[0] = vec![1.0; n];
        rows[0][0] = 10.0;
        let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let (pattern, values) = sparse_from_rows(&rows);
        let order = pattern.column_order().expect("structurally nonsingular");
        // The hub waits until the last 2 × 2 block, where every choice
        // costs the same.
        assert!(
            !order[..n - 2].contains(&0),
            "hub eliminated early: {order:?}"
        );
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        sym.factor_and_solve(&pattern, &values, &b, &mut x)
            .expect("nonsingular");
        assert_eq!(sym.lu_nnz(), pattern.nnz(), "no fill-in");
        assert_close(&x, &from_rows(&rows).solve(&b).expect("nonsingular"));
    }

    #[test]
    fn threshold_pivoting_prefers_the_sparser_eligible_row() {
        // Column 0 has its largest entry in the dense row 0 and a 0.5×
        // entry in the singleton row 2: the singleton is eligible and
        // sparser, so it pivots and nothing fills. Row 1's 0.01× entry is
        // below the threshold.
        let rows: &[&[f64]] = &[&[1.0, 1.0, 1.0], &[0.01, 1.0, 0.0], &[0.5, 0.0, 2.0]];
        let (pattern, values) = sparse_from_rows(rows);
        let b = [1.0, 2.0, 3.0];
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        sym.factor_and_solve(&pattern, &values, &b, &mut x)
            .expect("nonsingular");
        assert_close(&x, &from_rows(rows).solve(&b).expect("nonsingular"));
        // A column whose only candidates sit below the threshold of a
        // dominant entry pivots on the dominant one, whatever the fill.
        let rows: &[&[f64]] = &[&[1.0, 1.0, 1.0], &[1e-3, 1.0, 0.0], &[1e-3, 0.0, 1.0]];
        let (pattern, values) = sparse_from_rows(rows);
        sym.invalidate();
        sym.factor_and_solve(&pattern, &values, &b, &mut x)
            .expect("nonsingular");
        assert_close(&x, &from_rows(rows).solve(&b).expect("nonsingular"));
    }

    #[test]
    fn structurally_singular_pattern_reports_no_pivot() {
        // Rows 1 and 2 both live only in column 0: no assignment of
        // values makes this nonsingular, and the ordering must say so
        // instead of handing the LU an arbitrary column.
        let pattern = SparsePattern::from_entries(3, vec![(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]);
        assert!(pattern.column_order().is_none());
        let values = vec![1.0; pattern.nnz()];
        let mut sym = SymbolicLu::new();
        let mut x = Vec::new();
        assert!(sym
            .factor_and_solve(&pattern, &values, &[1.0, 1.0, 1.0], &mut x)
            .is_none());
        assert!(!sym.is_built());
        // An empty row is the degenerate case of the same thing.
        let pattern = SparsePattern::from_entries(2, vec![(0, 0), (0, 1)]);
        assert!(pattern.column_order().is_none());
    }

    #[test]
    fn sparse_matches_dense_on_scrambled_mna_like_systems() {
        // Deterministic pseudo-random sparse systems with a weak
        // diagonal and strong off-diagonal couplings, so the threshold
        // search must move off the diagonal; each is also refactored
        // after a value change to exercise the frozen-pattern path.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for n in [3, 7, 12, 20] {
            let mut rows = vec![vec![0.0; n]; n];
            for (i, row) in rows.iter_mut().enumerate() {
                row[i] = 1e-3 * (1.0 + next());
                for _ in 0..2 {
                    let j = (next() * n as f64) as usize % n;
                    row[j] += 2.0 * next() - 1.0;
                }
            }
            let b: Vec<f64> = (0..n).map(|_| next() - 0.5).collect();
            let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            let (pattern, mut values) = sparse_from_rows(&refs);
            let mut sym = SymbolicLu::new();
            let mut x = Vec::new();
            for round in 0..2 {
                let mut dense = DenseMatrix::zeros(n);
                for r in 0..n {
                    let (cols, first) = pattern.row(r);
                    for (k, &c) in cols.iter().enumerate() {
                        dense.set(r, c as usize, values[first + k]);
                    }
                }
                let Some(want) = dense.solve(&b) else {
                    continue;
                };
                sym.factor_and_solve(&pattern, &values, &b, &mut x)
                    .expect("dense found it nonsingular");
                let residual = dense.mul_vec(&x);
                for (r, bi) in residual.iter().zip(&b) {
                    assert!((r - bi).abs() < 1e-9, "n={n} round={round}");
                }
                let scale = want.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
                for (s, d) in x.iter().zip(&want) {
                    assert!((s - d).abs() <= 1e-8 * scale, "n={n} round={round}");
                }
                for v in &mut values {
                    *v *= 1.0 + 0.05 * (next() - 0.5);
                }
            }
        }
    }
}
