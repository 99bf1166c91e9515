//! Flat contiguous storage for objective vectors and pairwise distances.
//!
//! The selection kernels ([`crate::kernels`]) operate on an
//! [`ObjectiveMatrix`] — one `Vec<f64>` plus a stride — instead of a
//! `Vec<Vec<f64>>`. One allocation per generation (reused across
//! generations through the kernel scratch, see
//! [`crate::kernels::with_scratch`]) replaces N row allocations, rows sit
//! contiguously for cache-friendly dominance scans, and a row view is a
//! plain `&[f64]` so all the existing slice-based comparisons keep their
//! exact semantics.

/// A dense row-major matrix of objective vectors: `rows × cols` values in
/// one flat buffer.
///
/// `cols` is fixed at construction (the objective count); rows are pushed
/// one vector at a time. [`ObjectiveMatrix::clear`] keeps the allocation,
/// which is what makes per-generation reuse free.
///
/// # Examples
///
/// ```
/// use clre_moea::matrix::ObjectiveMatrix;
///
/// let mut m = ObjectiveMatrix::new(2);
/// m.push_row(&[1.0, 4.0]);
/// m.push_row(&[2.0, 3.0]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.row(1), &[2.0, 3.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectiveMatrix {
    data: Vec<f64>,
    cols: usize,
    rows: usize,
}

impl ObjectiveMatrix {
    /// An empty matrix with `cols` objectives per row.
    pub fn new(cols: usize) -> Self {
        ObjectiveMatrix {
            data: Vec::new(),
            cols,
            rows: 0,
        }
    }

    /// An empty matrix with capacity preallocated for `rows` rows.
    pub fn with_capacity(cols: usize, rows: usize) -> Self {
        ObjectiveMatrix {
            data: Vec::with_capacity(cols * rows),
            cols,
            rows: 0,
        }
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        let mut m = ObjectiveMatrix::with_capacity(cols, rows.len());
        for r in rows {
            m.push_row(r);
        }
        m
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length must equal cols");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Appends one row from its values, without a row buffer.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not yield exactly `cols` values.
    pub fn push_row_from(&mut self, row: impl IntoIterator<Item = f64>) {
        let start = self.data.len();
        self.data.extend(row);
        assert_eq!(
            self.data.len() - start,
            self.cols,
            "row length must equal cols"
        );
        self.rows += 1;
    }

    /// Empties the matrix, optionally re-striding it, keeping the
    /// allocation for reuse.
    pub fn reset(&mut self, cols: usize) {
        self.data.clear();
        self.cols = cols;
        self.rows = 0;
    }

    /// Empties the matrix keeping stride and allocation.
    pub fn clear(&mut self) {
        self.data.clear();
        self.rows = 0;
    }

    /// Clears the matrix and refills it from borrowed rows — the
    /// per-generation reuse entry point.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn refill<'a, I>(&mut self, cols: usize, rows: I)
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        self.reset(cols);
        for r in rows {
            self.push_row(r);
        }
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (objectives per row).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Copies the matrix back out into row vectors (the legacy shape —
    /// used only at API boundaries that still speak `Vec<Vec<f64>>`).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter_rows().map(<[f64]>::to_vec).collect()
    }

    /// `true` if any stored value is NaN (the kernels' degraded-input
    /// detector — see [`crate::kernels::ens_non_dominated_sort`]).
    pub fn any_nan(&self) -> bool {
        self.data.iter().any(|x| x.is_nan())
    }
}

/// A symmetric matrix of pairwise squared Euclidean distances over `n`
/// points, stored flat (`n × n`, the diagonal is zero).
///
/// Computed once per selection from an [`ObjectiveMatrix`] and then
/// indexed by the SPEA2 density estimate and the archive truncation — the
/// cached replacement for recomputing `sq_dist` per pair per truncation
/// round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistanceMatrix {
    data: Vec<f64>,
    n: usize,
}

impl DistanceMatrix {
    /// Builds the full pairwise squared-distance matrix of `points`.
    ///
    /// `d(i, j)` is evaluated once (for `i < j`) and mirrored:
    /// `(x−y)²` sums are bitwise symmetric, so the mirror is exact.
    pub fn from_points(points: &ObjectiveMatrix) -> Self {
        let n = points.rows();
        let mut m = DistanceMatrix {
            data: vec![0.0; n * n],
            n,
        };
        for i in 0..n {
            for j in (i + 1)..n {
                let d = sq_dist(points.row(i), points.row(j));
                m.data[i * n + j] = d;
                m.data[j * n + i] = d;
            }
        }
        m
    }

    /// Rebuilds the matrix in place from `points`, reusing the buffer.
    pub fn refill(&mut self, points: &ObjectiveMatrix) {
        let n = points.rows();
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, 0.0);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = sq_dist(points.row(i), points.row(j));
                self.data[i * n + j] = d;
                self.data[j * n + i] = d;
            }
        }
    }

    /// Recomputes only the rows/columns named in `changed`, leaving every
    /// other pairwise distance untouched.
    ///
    /// The incremental generation-to-generation path: when only offspring
    /// rows differ from the cached matrix, refreshing their rows (and the
    /// mirrored columns) costs O(|changed|·N·M) instead of the full
    /// O(N²·M) rebuild. Pairs where *both* endpoints are unchanged keep
    /// their cached value; pairs with at least one changed endpoint are
    /// recomputed with the same [`sq_dist`] as [`DistanceMatrix::refill`],
    /// so the result is bit-identical to a full rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `points` does not have exactly `len()` rows or if an
    /// index in `changed` is out of range.
    pub fn update_rows(&mut self, points: &ObjectiveMatrix, changed: &[usize]) {
        let n = self.n;
        assert_eq!(points.rows(), n, "point count must match the matrix");
        let mut is_changed = vec![false; n];
        for &i in changed {
            assert!(i < n, "changed index out of range");
            is_changed[i] = true;
        }
        for &i in changed {
            for (j, &j_changed) in is_changed.iter().enumerate() {
                // Skip the diagonal and pairs already refreshed by an
                // earlier changed row (j < i and j itself changed).
                if j == i || (j_changed && j < i) {
                    continue;
                }
                let d = sq_dist(points.row(i), points.row(j));
                self.data[i * n + j] = d;
                self.data[j * n + i] = d;
            }
        }
    }

    /// Shrinks the matrix to the survivor subset `keep`, moving cached
    /// rows instead of recomputing them.
    ///
    /// After compaction, `get(a, b)` equals the old
    /// `get(keep[a], keep[b])` bit-for-bit. Moving front-to-back is safe
    /// in place because `keep` ascending implies every source index
    /// `keep[a]·n + keep[b]` is ≥ its destination `a·k + b`, so no source
    /// cell is overwritten before it is read.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is not strictly ascending or indexes out of range.
    pub fn compact(&mut self, keep: &[usize]) {
        let n = self.n;
        let k = keep.len();
        for w in keep.windows(2) {
            assert!(w[0] < w[1], "keep mask must be strictly ascending");
        }
        if let Some(&last) = keep.last() {
            assert!(last < n, "keep index out of range");
        }
        for a in 0..k {
            for b in 0..k {
                self.data[a * k + b] = self.data[keep[a] * n + keep[b]];
            }
        }
        self.data.truncate(k * k);
        self.n = k;
    }

    /// Rebuilds the matrix from `points`, reusing `tail` as the cached
    /// distance block for the trailing `tail.len()` points.
    ///
    /// `points` is laid out as `p` fresh head rows followed by
    /// `tail.len()` rows whose pairwise distances are already in `tail`
    /// (the compacted survivor matrix from the previous generation). Only
    /// head–head and head–tail pairs are recomputed; the tail–tail block
    /// is copied row-wise. Bit-identical to a full
    /// [`DistanceMatrix::refill`] because the cached block was produced by
    /// the same [`sq_dist`] over the same point bits.
    ///
    /// # Panics
    ///
    /// Panics if `tail.len() > points.rows()`.
    pub fn refill_with_tail(&mut self, points: &ObjectiveMatrix, tail: &DistanceMatrix) {
        let n = points.rows();
        let t = tail.len();
        assert!(t <= n, "cached tail larger than the point set");
        let p = n - t;
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, 0.0);
        for a in 0..t {
            self.data[(p + a) * n + p..(p + a) * n + n].copy_from_slice(tail.row(a));
        }
        for i in 0..p {
            for j in (i + 1)..n {
                let d = sq_dist(points.row(i), points.row(j));
                self.data[i * n + j] = d;
                self.data[j * n + i] = d;
            }
        }
    }

    /// Bitwise equality: same size and every cell has identical bits
    /// (stricter than `==`, which would treat `-0.0 == 0.0`).
    pub fn bits_eq(&self, other: &DistanceMatrix) -> bool {
        self.n == other.n
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The squared distance between points `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n, "index out of range");
        self.data[i * self.n + j]
    }

    /// Row `i`: squared distances from point `i` to every point
    /// (including itself at position `i`).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the matrix covers no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Squared Euclidean distance between two objective vectors.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Generation-to-generation distance reuse for SPEA2 selection.
///
/// Holds the previous generation's archive objective rows and their
/// pairwise distance matrix. The next generation's selection union is
/// laid out as offspring (fresh head rows) followed by the archive
/// (unchanged tail rows), so when the union's trailing rows bitwise match
/// the cached rows ([`DistanceCache::matches_tail`]) the archive–archive
/// distance block can be reused via
/// [`DistanceMatrix::refill_with_tail`] instead of recomputed.
///
/// The cache is **self-validating**: reuse happens only after the bitwise
/// row comparison succeeds, so any external mutation of the archive
/// (island migration, snapshot restore, direct field writes) safely
/// degrades to a full rebuild rather than producing stale distances. It
/// is deliberately excluded from state equality (`PartialEq` is always
/// `true`): a cold cache and a warm cache produce bit-identical
/// selections, so the cache is an amortization detail, not state.
#[derive(Clone, Default)]
pub struct DistanceCache {
    /// The archive objective rows the cached matrix was computed from.
    pub points: ObjectiveMatrix,
    /// Pairwise squared distances over `points`.
    pub matrix: DistanceMatrix,
}

impl DistanceCache {
    /// `true` when the trailing `self.points.rows()` rows of `points`
    /// bitwise match the cached rows, i.e. the cached matrix is a valid
    /// tail block for [`DistanceMatrix::refill_with_tail`].
    pub fn matches_tail(&self, points: &ObjectiveMatrix) -> bool {
        let t = self.points.rows();
        if t == 0
            || t != self.matrix.len()
            || t > points.rows()
            || points.cols() != self.points.cols()
        {
            return false;
        }
        let p = points.rows() - t;
        (0..t).all(|a| {
            points
                .row(p + a)
                .iter()
                .zip(self.points.row(a))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
    }

    /// Replaces the cache with `points` and `matrix` (the new archive and
    /// its distance matrix), swapping the matrix buffer in to avoid a
    /// copy. `matrix` is left holding the old cached buffer.
    pub fn store(&mut self, points: &ObjectiveMatrix, matrix: &mut DistanceMatrix) {
        self.points.refill(points.cols(), points.iter_rows());
        std::mem::swap(&mut self.matrix, matrix);
    }

    /// Drops the cached state, forcing the next selection to rebuild.
    pub fn clear(&mut self) {
        self.points.clear();
        self.matrix = DistanceMatrix::default();
    }
}

impl std::fmt::Debug for DistanceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceCache")
            .field("points", &self.points.rows())
            .field("matrix", &self.matrix.len())
            .finish()
    }
}

/// A warm cache and a cold cache select identically (reuse is
/// bit-identical to a rebuild), so caches never distinguish states.
impl PartialEq for DistanceCache {
    fn eq(&self, _other: &DistanceCache) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_view_rows() {
        let mut m = ObjectiveMatrix::new(3);
        assert!(m.is_empty());
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.iter_rows().count(), 2);
    }

    #[test]
    fn from_rows_roundtrips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = ObjectiveMatrix::from_rows(&rows);
        assert_eq!(m.to_rows(), rows);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn inconsistent_row_rejected() {
        let mut m = ObjectiveMatrix::new(2);
        m.push_row(&[1.0]);
    }

    #[test]
    fn refill_reuses_and_restrides() {
        let mut m = ObjectiveMatrix::from_rows(&[vec![1.0, 2.0]]);
        let rows = [vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        m.refill(3, rows.iter().map(Vec::as_slice));
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn nan_detector() {
        let mut m = ObjectiveMatrix::new(2);
        m.push_row(&[1.0, 2.0]);
        assert!(!m.any_nan());
        m.push_row(&[f64::NAN, 0.0]);
        assert!(m.any_nan());
    }

    #[test]
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let points = ObjectiveMatrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![1.0, 1.0]]);
        let d = DistanceMatrix::from_points(&points);
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(0, 1), 25.0);
        for i in 0..3 {
            assert_eq!(d.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(d.get(i, j).to_bits(), d.get(j, i).to_bits());
            }
        }
        assert_eq!(d.row(0), &[0.0, 25.0, 2.0]);
    }

    #[test]
    fn distance_matrix_refill_matches_fresh() {
        let a = ObjectiveMatrix::from_rows(&[vec![1.0], vec![4.0]]);
        let b = ObjectiveMatrix::from_rows(&[vec![0.0], vec![2.0], vec![5.0]]);
        let mut d = DistanceMatrix::from_points(&a);
        d.refill(&b);
        assert_eq!(d, DistanceMatrix::from_points(&b));
    }

    fn cloud(n: usize, m: usize, mut seed: u64) -> ObjectiveMatrix {
        let mut pts = ObjectiveMatrix::with_capacity(m, n);
        let mut row = vec![0.0; m];
        for _ in 0..n {
            for x in row.iter_mut() {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                *x = (seed >> 11) as f64 / (1u64 << 53) as f64;
            }
            pts.push_row(&row);
        }
        pts
    }

    #[test]
    fn update_rows_matches_full_refill() {
        let before = cloud(9, 3, 1);
        let mut after = before.clone();
        // Replace rows 0, 3 and 7 with fresh values.
        let fresh = cloud(3, 3, 99);
        let changed = [0usize, 3, 7];
        let mut rows = after.to_rows();
        for (k, &i) in changed.iter().enumerate() {
            rows[i] = fresh.row(k).to_vec();
        }
        after.refill(3, rows.iter().map(Vec::as_slice));

        let mut d = DistanceMatrix::from_points(&before);
        d.update_rows(&after, &changed);
        assert!(d.bits_eq(&DistanceMatrix::from_points(&after)));
    }

    #[test]
    fn update_rows_with_no_changes_is_identity() {
        let pts = cloud(5, 2, 7);
        let full = DistanceMatrix::from_points(&pts);
        let mut d = full.clone();
        d.update_rows(&pts, &[]);
        assert!(d.bits_eq(&full));
    }

    #[test]
    fn compact_moves_cached_cells() {
        let pts = cloud(8, 2, 5);
        let mut d = DistanceMatrix::from_points(&pts);
        let keep = [1usize, 2, 5, 7];
        d.compact(&keep);
        let kept_rows: Vec<Vec<f64>> = keep.iter().map(|&i| pts.row(i).to_vec()).collect();
        let expect = DistanceMatrix::from_points(&ObjectiveMatrix::from_rows(&kept_rows));
        assert!(d.bits_eq(&expect));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn compact_rejects_unsorted_mask() {
        let pts = cloud(4, 2, 3);
        let mut d = DistanceMatrix::from_points(&pts);
        d.compact(&[2, 1]);
    }

    #[test]
    fn refill_with_tail_matches_full_refill() {
        let old = cloud(10, 3, 11);
        let mut tail = DistanceMatrix::from_points(&old);
        let keep = [0usize, 2, 3, 6, 9];
        tail.compact(&keep);

        // Next union: 4 fresh head rows followed by the 5 survivors.
        let head = cloud(4, 3, 77);
        let mut next = ObjectiveMatrix::with_capacity(3, 9);
        for r in head.iter_rows() {
            next.push_row(r);
        }
        for &i in &keep {
            next.push_row(old.row(i));
        }

        let mut inc = DistanceMatrix::default();
        inc.refill_with_tail(&next, &tail);
        assert!(inc.bits_eq(&DistanceMatrix::from_points(&next)));
    }

    #[test]
    fn refill_with_empty_tail_matches_refill() {
        let pts = cloud(6, 2, 13);
        let mut inc = DistanceMatrix::default();
        inc.refill_with_tail(&pts, &DistanceMatrix::default());
        assert!(inc.bits_eq(&DistanceMatrix::from_points(&pts)));
    }

    #[test]
    fn cache_tail_matching_is_bitwise() {
        let archive = cloud(4, 2, 21);
        let mut matrix = DistanceMatrix::from_points(&archive);
        let mut cache = DistanceCache::default();
        assert!(!cache.matches_tail(&archive), "empty cache never matches");
        cache.store(&archive, &mut matrix);

        // Union = 2 fresh rows ++ archive rows: tail matches.
        let mut union = cloud(2, 2, 55);
        for r in archive.iter_rows() {
            union.push_row(r);
        }
        assert!(cache.matches_tail(&union));
        assert!(cache.matches_tail(&archive), "exact match is a valid tail");

        // Perturb one trailing bit: reuse must be refused.
        let mut rows = union.to_rows();
        rows[5][1] = -rows[5][1];
        let perturbed = ObjectiveMatrix::from_rows(&rows);
        assert!(!cache.matches_tail(&perturbed));

        // Shorter union than the cached tail: refused.
        let short = cloud(2, 2, 5);
        assert!(!cache.matches_tail(&short));
        // Different stride: refused.
        assert!(!cache.matches_tail(&cloud(6, 3, 21)));

        cache.clear();
        assert!(!cache.matches_tail(&union));
    }

    #[test]
    fn cache_is_invisible_to_state_equality() {
        let pts = cloud(3, 2, 31);
        let mut warm = DistanceCache::default();
        warm.store(&pts, &mut DistanceMatrix::from_points(&pts));
        assert_eq!(warm, DistanceCache::default());
    }
}
