//! Linear algebra for the MNA system: a dense LU and a static-pattern
//! sparse LU.
//!
//! Latch-scale circuits produce systems of a few dozen unknowns, where a
//! dense LU factorization with partial pivoting is both the simplest and
//! a fast option (no fill-in bookkeeping, cache-friendly row access).
//! MNA matrices are nonetheless *structurally* sparse — a handful of
//! entries per row — so the dense elimination skips updates whose
//! operands are exactly zero: those are value-level no-ops, and dropping
//! them leaves every computed result unchanged while cutting most of the
//! O(n³) work.
//!
//! The sparse path ([`SparsePattern`] + [`SymbolicLu`]) goes one step
//! further: the structural nonzero pattern of the assembled matrix is
//! fixed by the analysis layer's stamp plan, so the symbolic work —
//! pivot order, fill-in prediction, CSR layout of `L+U` — is done once
//! and every subsequent Newton iteration runs a left-looking
//! refactorization *in the frozen pattern* with no pivot search at all.
//! A guard compares each refactored pivot against its magnitude at
//! freeze time and transparently re-pivots from scratch when values have
//! drifted enough to make the frozen order unsafe.

/// A dense, row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

/// Reusable working storage for [`DenseMatrix::solve_into`] and
/// [`DenseMatrix::solve_in_place`].
///
/// Holds the factorization's working copy of the matrix and the pivot
/// row's nonzero-column index list, so repeated solves (one per Newton
/// iteration, thousands per transient) perform no heap allocation after
/// the first call.
#[derive(Debug, Clone, Default)]
pub struct LuScratch {
    lu: Vec<f64>,
    nonzero_cols: Vec<u32>,
}

impl LuScratch {
    /// Creates an empty scratch buffer; it grows on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch buffer pre-sized for an `n × n` system.
    #[must_use]
    pub fn for_dim(n: usize) -> Self {
        Self {
            lu: Vec::with_capacity(n * n),
            nonzero_cols: Vec::with_capacity(n),
        }
    }
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Returns the entry at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col]
    }

    /// Sets the entry at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` to the entry at (`row`, `col`) — the *stamp*
    /// operation every MNA device contribution uses.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] += value;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
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

    /// Solves `A·x = b` via LU with partial pivoting without destroying
    /// `self`.
    ///
    /// Returns `None` if the matrix is numerically singular.
    ///
    /// This is the allocating convenience wrapper over
    /// [`DenseMatrix::solve_into`]; solver loops should hold a
    /// [`LuScratch`] and call `solve_into` (or [`DenseMatrix::solve_in_place`])
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        let mut scratch = LuScratch::new();
        let mut x = Vec::new();
        self.solve_into(b, &mut scratch, &mut x).then_some(x)
    }

    /// Solves `A·x = b` into `x`, reusing `scratch` for the factorization
    /// working copy — no allocation once the scratch buffers have grown
    /// to the system size.
    ///
    /// Returns `false` if the matrix is numerically singular (in which
    /// case the contents of `x` are unspecified). Every arithmetic
    /// operation that is actually performed — pivot selection,
    /// elimination, back substitution — matches the original allocating
    /// solver; the only difference is that updates whose pivot-row
    /// operand is exactly zero are skipped, which leaves all values
    /// unchanged (up to the sign of zero), so results are reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve_into(&self, b: &[f64], scratch: &mut LuScratch, x: &mut Vec<f64>) -> bool {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        scratch.lu.clear();
        scratch.lu.extend_from_slice(&self.data);
        x.clear();
        x.extend_from_slice(b);
        lu_solve_core(&mut scratch.lu, self.n, &mut scratch.nonzero_cols, x)
    }

    /// Solves `A·x = b` into `x`, factoring `self` **in place** — on
    /// return the matrix holds the (partially pivoted) elimination
    /// residue and must be re-stamped before the next use.
    ///
    /// This is the hot-loop entry point: it skips the `n²` working-copy
    /// memcpy that [`DenseMatrix::solve_into`] pays per call, which
    /// matters when the matrix is re-assembled from scratch every Newton
    /// iteration anyway. Arithmetic is identical to `solve_into`.
    ///
    /// Returns `false` if the matrix is numerically singular (in which
    /// case the contents of `x` are unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve_in_place(&mut self, b: &[f64], scratch: &mut LuScratch, x: &mut Vec<f64>) -> bool {
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
    #[must_use]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
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
/// pivot order was frozen) that triggers an automatic re-pivot. Partial
/// pivoting bounds element growth only for the ordering it chose; once a
/// pivot shrinks by many orders of magnitude relative to freeze time,
/// the frozen order may no longer be that ordering, so the factorization
/// is redone from scratch with a fresh pivot search.
const PIVOT_DECAY: f64 = 1e-6;

/// Frozen structural nonzero pattern of an assembled MNA matrix, in CSR
/// form, with a dense `(row, col) → slot` map for O(1) stamping.
///
/// Built once per stamp plan from a structure-probing assembly pass; the
/// value array it indexes lives in the solver workspace and is re-filled
/// every Newton iteration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparsePattern {
    n: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    /// Dense `n × n` map from `(row, col)` to the CSR slot index, with
    /// `u32::MAX` marking structural zeros. ~4n² bytes — trivial at MNA
    /// scale and the reason a stamp costs one load and one add.
    slot_of: Vec<u32>,
}

impl SparsePattern {
    const NO_SLOT: u32 = u32::MAX;

    /// Builds the pattern from the structural entries captured by a
    /// probe assembly pass. Duplicates are allowed and merged.
    ///
    /// # Panics
    ///
    /// Panics if an entry is out of bounds for an `n × n` system.
    #[must_use]
    pub fn from_entries(n: usize, mut entries: Vec<(u32, u32)>) -> Self {
        entries.sort_unstable();
        entries.dedup();
        let mut row_ptr = vec![0u32; n + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut slot_of = vec![Self::NO_SLOT; n * n];
        for &(r, c) in &entries {
            let (r, c) = (r as usize, c as usize);
            assert!(r < n && c < n, "pattern entry out of bounds");
            slot_of[r * n + c] = col_idx.len() as u32;
            col_idx.push(c as u32);
            row_ptr[r + 1] += 1;
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        Self {
            n,
            row_ptr,
            col_idx,
            slot_of,
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Adds `value` to the CSR slot backing `(row, col)` — the sparse
    /// counterpart of [`DenseMatrix::add`].
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is a structural zero of the pattern, which
    /// means the values were assembled against a stale pattern.
    #[inline]
    pub fn add_into(&self, values: &mut [f64], row: usize, col: usize, value: f64) {
        let slot = self.slot_of[row * self.n + col];
        assert!(
            slot != Self::NO_SLOT,
            "stamp at ({row}, {col}) outside the frozen pattern"
        );
        values[slot as usize] += value;
    }

    /// The column indices of `row`, ascending, and the CSR slot of the
    /// row's first entry.
    #[inline]
    fn row(&self, row: usize) -> (&[u32], usize) {
        let lo = self.row_ptr[row] as usize;
        let hi = self.row_ptr[row + 1] as usize;
        (&self.col_idx[lo..hi], lo)
    }
}

/// Outcome of a successful [`SymbolicLu::factor_and_solve`] call,
/// reported so the solver can account for symbolic work separately from
/// the steady-state pattern-reusing path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseSolveOutcome {
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

/// Static symbolic LU: pivot order and `L+U` fill pattern frozen from
/// the first partial-pivoted factorization, then reused by a
/// left-looking refactorization for every subsequent solve.
///
/// The numeric contract is deliberate: for an unchanged pivot order the
/// refactorization performs the *same multiply/subtract/divide sequence*
/// as the dense partial-pivoted elimination (structurally absent
/// operands are exact zeros, whose updates are value-level no-ops), so
/// the sparse path reproduces the dense solver's results to the last bit
/// whenever both would choose the same pivots — which is exactly the
/// regime the freeze guard keeps it in.
///
/// All buffers are retained across calls; after the first build a
/// refactor-and-solve performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct SymbolicLu {
    n: usize,
    built: bool,
    /// Permuted row `i` of the factorization is original row `perm[i]`.
    perm: Vec<u32>,
    /// CSR layout of `L + U` (unit-diagonal L implicit; factors stored
    /// in the L slots, U on and right of the diagonal), rows in pivot
    /// order, columns ascending.
    lu_row_ptr: Vec<u32>,
    lu_col: Vec<u32>,
    lu_val: Vec<f64>,
    /// Slot of the diagonal entry of each permuted row.
    lu_diag: Vec<u32>,
    /// |pivot| recorded when the order was frozen — the reference for
    /// the decay guard.
    ref_pivot: Vec<f64>,
    /// Dense scratch row for the left-looking scatter/gather.
    w: Vec<f64>,
    /// Dense n × n scratch for the pivot-freezing factorization.
    dense: Vec<f64>,
    /// Column-presence marks for the symbolic row merge.
    mark: Vec<bool>,
    nz: Vec<u32>,
}

impl SymbolicLu {
    /// Creates an empty symbolic object; it builds itself on the first
    /// [`SymbolicLu::factor_and_solve`] call.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a pivot order is currently frozen.
    #[must_use]
    pub fn is_built(&self) -> bool {
        self.built
    }

    /// Structural nonzeros of `L + U` including fill-in (0 before the
    /// first build).
    #[must_use]
    pub fn lu_nnz(&self) -> usize {
        self.lu_col.len()
    }

    /// Drops the frozen pivot order, forcing a rebuild on the next
    /// solve. Called when the pattern itself changes (plan rebuild).
    pub fn invalidate(&mut self) {
        self.built = false;
    }

    /// Factors `values` (laid out per `pattern`) and solves for `b`,
    /// writing the solution into `x`. Freezes the pivot order on first
    /// use, reuses it afterwards, and re-pivots automatically when a
    /// frozen pivot decays below threshold.
    ///
    /// Returns `None` if the matrix is numerically singular or the
    /// solution is non-finite (matching the dense solver's contract).
    ///
    /// # Panics
    ///
    /// Panics if `values`, `b` or the pattern dimensions disagree.
    pub fn factor_and_solve(
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
        if !self.refactor(pattern, values) {
            // A frozen pivot decayed (or vanished): re-pivot from the
            // current values. A fresh build's refactor reproduces the
            // build's own elimination, so a second failure means the
            // matrix is genuinely singular.
            if !self.rebuild(pattern, values) || !self.refactor(pattern, values) {
                return None;
            }
            outcome = SparseSolveOutcome::Repivoted;
        }
        self.solve_rhs(b, x).then_some(outcome)
    }

    /// Freezes the pivot order by running a dense partial-pivoted
    /// elimination over the current values (mirroring `lu_solve_core`'s
    /// pivot choices exactly), then builds the symbolic `L+U` pattern
    /// with fill-in for that order. Returns `false` on singularity.
    fn rebuild(&mut self, pattern: &SparsePattern, values: &[f64]) -> bool {
        let n = pattern.dim();
        self.n = n;
        self.built = false;
        self.perm.clear();
        self.perm.extend(0..n as u32);
        self.ref_pivot.clear();
        self.ref_pivot.resize(n, 0.0);
        // Scatter the CSR values into the dense scratch.
        self.dense.clear();
        self.dense.resize(n * n, 0.0);
        for r in 0..n {
            let (cols, first) = pattern.row(r);
            for (k, &c) in cols.iter().enumerate() {
                self.dense[r * n + c as usize] = values[first + k];
            }
        }
        // Partial-pivoted elimination, identical pivot choices to
        // `lu_solve_core`, recording the row order it settles on.
        let lu = &mut self.dense;
        for k in 0..n {
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
                self.perm.swap(k, pivot_row);
            }
            self.ref_pivot[k] = pivot_val;
            let (upper, lower) = lu.split_at_mut((k + 1) * n);
            let row_k = &upper[k * n..(k + 1) * n];
            let pivot = row_k[k];
            self.nz.clear();
            for (j, &v) in row_k.iter().enumerate().skip(k + 1) {
                if v != 0.0 {
                    self.nz.push(j as u32);
                }
            }
            for row_r in lower.chunks_exact_mut(n) {
                let factor = row_r[k] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for &j in &self.nz {
                    let j = j as usize;
                    row_r[j] -= factor * row_k[j];
                }
            }
        }
        self.symbolic(pattern);
        self.built = true;
        true
    }

    /// Left-looking symbolic factorization for the frozen row order:
    /// permuted row `i`'s pattern is the union of A-row `perm[i]` with
    /// the U-patterns of every L-column it touches (in ascending column
    /// order), plus the forced diagonal. Classic Gilbert–Peierls
    /// reachability, specialised to a static order.
    fn symbolic(&mut self, pattern: &SparsePattern) {
        let n = self.n;
        self.lu_row_ptr.clear();
        self.lu_row_ptr.push(0);
        self.lu_col.clear();
        self.lu_diag.clear();
        self.mark.clear();
        self.mark.resize(n, false);
        for i in 0..n {
            let row_start = self.lu_col.len();
            let (cols, _) = pattern.row(self.perm[i] as usize);
            for &c in cols {
                self.mark[c as usize] = true;
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
            let mut diag = 0u32;
            for c in 0..n {
                if self.mark[c] {
                    self.mark[c] = false;
                    if c == i {
                        diag = self.lu_col.len() as u32;
                    }
                    self.lu_col.push(c as u32);
                }
            }
            debug_assert!(diag as usize >= row_start);
            self.lu_diag.push(diag);
            self.lu_row_ptr.push(self.lu_col.len() as u32);
        }
        self.lu_val.clear();
        self.lu_val.resize(self.lu_col.len(), 0.0);
        self.w.clear();
        self.w.resize(n, 0.0);
    }

    /// Numeric refactorization in the frozen pattern: for each permuted
    /// row, scatter the A-row into the dense scratch, apply the U-rows
    /// of its L-columns in ascending order (the same update sequence,
    /// element for element, as the dense right-looking elimination),
    /// then gather back. No pivot search; the decay guard compares each
    /// pivot against its freeze-time magnitude. Returns `false` on a
    /// decayed or vanishing pivot.
    fn refactor(&mut self, pattern: &SparsePattern, values: &[f64]) -> bool {
        let n = self.n;
        for i in 0..n {
            let (lo, hi) = (self.lu_row_ptr[i] as usize, self.lu_row_ptr[i + 1] as usize);
            for &c in &self.lu_col[lo..hi] {
                self.w[c as usize] = 0.0;
            }
            let (cols, first) = pattern.row(self.perm[i] as usize);
            for (k, &c) in cols.iter().enumerate() {
                self.w[c as usize] = values[first + k];
            }
            for s in lo..hi {
                let k = self.lu_col[s] as usize;
                if k >= i {
                    break;
                }
                let factor = self.w[k] / self.lu_val[self.lu_diag[k] as usize];
                self.w[k] = factor;
                if factor == 0.0 {
                    continue;
                }
                let k_hi = self.lu_row_ptr[k + 1] as usize;
                for t in (self.lu_diag[k] as usize + 1)..k_hi {
                    self.w[self.lu_col[t] as usize] -= factor * self.lu_val[t];
                }
            }
            let pivot = self.w[i].abs();
            if pivot < PIVOT_EPS || pivot < PIVOT_DECAY * self.ref_pivot[i] {
                return false;
            }
            for s in lo..hi {
                self.lu_val[s] = self.w[self.lu_col[s] as usize];
            }
        }
        true
    }

    /// Forward substitution over unit-diagonal L (with the frozen row
    /// permutation applied to `b`), then back substitution over U.
    /// Returns `false` if the solution is non-finite.
    fn solve_rhs(&self, b: &[f64], x: &mut Vec<f64>) -> bool {
        let n = self.n;
        x.clear();
        x.resize(n, 0.0);
        for i in 0..n {
            let mut acc = b[self.perm[i] as usize];
            let lo = self.lu_row_ptr[i] as usize;
            let diag = self.lu_diag[i] as usize;
            for s in lo..diag {
                acc -= self.lu_val[s] * x[self.lu_col[s] as usize];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let diag = self.lu_diag[i] as usize;
            let hi = self.lu_row_ptr[i + 1] as usize;
            let mut acc = x[i];
            for s in (diag + 1)..hi {
                acc -= self.lu_val[s] * x[self.lu_col[s] as usize];
            }
            x[i] = acc / self.lu_val[diag];
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
    fn solve_into_matches_solve_bit_for_bit() {
        // An awkwardly scaled system that forces pivoting and a zero
        // fill-in skip, exercising every branch of the elimination.
        let m = from_rows(&[
            &[0.0, 2.0, 1.0, 0.0],
            &[1e-6, -1.0, 0.5, 0.0],
            &[3.0, 0.25, -2.0, 1e-9],
            &[0.0, 0.0, 1e3, 4.0],
        ]);
        let b = [1.0, -2.5, 3e-3, 0.7];
        let via_alloc = m.solve(&b).expect("nonsingular");
        let mut scratch = LuScratch::for_dim(4);
        let mut x = Vec::new();
        assert!(m.solve_into(&b, &mut scratch, &mut x));
        assert_eq!(via_alloc, x, "solve and solve_into must agree exactly");
        // Reuse the same scratch for a second system of the same size.
        let b2 = [0.0, 1.0, 0.0, -1.0];
        let mut x2 = Vec::new();
        assert!(m.solve_into(&b2, &mut scratch, &mut x2));
        assert_eq!(m.solve(&b2).expect("nonsingular"), x2);
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
    fn solve_into_reports_singularity() {
        let m = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut scratch = LuScratch::new();
        let mut x = Vec::new();
        assert!(!m.solve_into(&[1.0, 2.0], &mut scratch, &mut x));
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
    }

    #[test]
    #[should_panic(expected = "outside the frozen pattern")]
    fn sparse_stamp_outside_pattern_panics() {
        let pattern = SparsePattern::from_entries(2, vec![(0, 0), (1, 1)]);
        let mut values = vec![0.0; 2];
        pattern.add_into(&mut values, 0, 1, 1.0);
    }

    #[test]
    fn sparse_first_solve_matches_dense_bit_for_bit() {
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
        for (s, d) in x.iter().zip(dense.iter()) {
            assert_eq!(s.to_bits(), d.to_bits(), "sparse {x:?} vs dense {dense:?}");
        }
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
        // from-scratch dense solve bit for bit.
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
        for (s, d) in x.iter().zip(want.iter()) {
            assert_eq!(s.to_bits(), d.to_bits());
        }
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
}
