//! Column-major matrix views with explicit leading dimension.
//!
//! The vbatched interface of the paper describes every matrix by a
//! `(pointer, n, lda)` triple; these views are the Rust shape of that
//! triple. [`MatRef`] is a shared view, [`MatMut`] an exclusive one.
//!
//! Both are *raw* views: they hold a pointer, dimensions and a leading
//! dimension, plus a lifetime tying them to the underlying storage when
//! constructed safely from slices. The `unsafe` constructors
//! ([`MatMut::from_raw_parts`]) exist for the simulated GPU kernels,
//! where many thread blocks concurrently update disjoint tiles of the
//! same device allocation — exactly the CUDA contract. Constructing
//! overlapping *mutable* views and writing to the same element from two
//! blocks is a data race, as it would be on real hardware.

use std::marker::PhantomData;

/// Which triangle of a symmetric/triangular matrix is referenced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Uplo {
    /// Lower triangle (the paper's Cholesky case study works on `L`).
    Lower,
    /// Upper triangle.
    Upper,
}

impl Uplo {
    /// The opposite triangle.
    #[must_use]
    pub fn flip(self) -> Self {
        match self {
            Uplo::Lower => Uplo::Upper,
            Uplo::Upper => Uplo::Lower,
        }
    }
}

/// Transposition selector for BLAS kernels (real precisions only, so
/// conjugate-transpose folds into [`Trans::Trans`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Trans {
    /// Operate on `A`.
    NoTrans,
    /// Operate on `Aᵀ`.
    Trans,
}

/// Side selector for `trsm`/`trmm`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// Triangular matrix is applied from the left: solve `op(A)·X = B`.
    Left,
    /// Triangular matrix is applied from the right: solve `X·op(A) = B`.
    Right,
}

/// Unit-diagonal selector for triangular kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Diag {
    /// Diagonal entries are general.
    NonUnit,
    /// Diagonal entries are implicitly one and never referenced.
    Unit,
}

/// Shared column-major view of an `m × n` matrix with leading dimension
/// `ld ≥ m`.
pub struct MatRef<'a, T> {
    ptr: *const T,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a T>,
}

impl<T> Clone for MatRef<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for MatRef<'_, T> {}

// SAFETY: a MatRef only permits reads, and the lifetime ties it to storage
// that outlives it; moving a reader to another thread is sound for T: Sync.
unsafe impl<T: Sync> Send for MatRef<'_, T> {}
// SAFETY: a shared MatRef hands out only reads of `T`, which T: Sync
// makes safe from many threads at once.
unsafe impl<T: Sync> Sync for MatRef<'_, T> {}

impl<'a, T> MatRef<'a, T> {
    /// Creates a view over `data` interpreted column-major with leading
    /// dimension `ld`.
    ///
    /// # Panics
    /// If `ld < rows` (for `rows > 0`) or `data` is too short to hold the
    /// last element `(rows-1, cols-1)`.
    pub fn from_slice(data: &'a [T], rows: usize, cols: usize, ld: usize) -> Self {
        check_extent(data.len(), rows, cols, ld);
        Self {
            ptr: data.as_ptr(),
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
    }

    /// Creates a view from a raw pointer.
    ///
    /// # Safety
    /// `ptr` must be valid for reads of the column-major extent
    /// `ld·(cols−1) + rows` for the duration of `'a`, and no exclusive
    /// access to those elements may be exercised concurrently.
    pub unsafe fn from_raw_parts(ptr: *const T, rows: usize, cols: usize, ld: usize) -> Self {
        debug_assert!(rows == 0 || ld >= rows);
        Self {
            ptr,
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }
    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }
    /// Leading dimension (column stride).
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }
    /// Raw pointer to the `(0,0)` element.
    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.ptr
    }

    /// Reads element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        // SAFETY: in-bounds per the construction contract and the assert.
        unsafe { *self.ptr.add(i + j * self.ld) }
    }

    /// Sub-view of size `m × n` starting at `(i, j)`.
    #[must_use]
    pub fn sub(&self, i: usize, j: usize, m: usize, n: usize) -> MatRef<'a, T> {
        debug_assert!(i + m <= self.rows && j + n <= self.cols);
        MatRef {
            // SAFETY: stays within the original extent.
            ptr: unsafe { self.ptr.add(i + j * self.ld) },
            rows: m,
            cols: n,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Contiguous slice over column `j` (`rows` elements).
    ///
    /// Columns are the contiguous axis of a column-major view, so this
    /// is the bridge from element-wise `get` loops to auto-vectorizable
    /// slice kernels. Forming the slice asserts the usual shared-view
    /// contract: none of these elements may be written concurrently.
    #[inline]
    pub fn col_as_slice(&self, j: usize) -> &'a [T] {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        // SAFETY: the construction contract guarantees `rows` readable
        // elements at column offset `j·ld`, and the shared view forbids
        // concurrent writes to elements it covers.
        unsafe { std::slice::from_raw_parts(self.ptr.add(j * self.ld), self.rows) }
    }

    /// Splits into the first `i` rows and the rest.
    #[must_use]
    pub fn split_at_row(self, i: usize) -> (MatRef<'a, T>, MatRef<'a, T>) {
        assert!(
            i <= self.rows,
            "row split {i} out of bounds ({})",
            self.rows
        );
        (
            self.sub(0, 0, i, self.cols),
            self.sub(i, 0, self.rows - i, self.cols),
        )
    }

    /// Splits into the first `j` columns and the rest.
    #[must_use]
    pub fn split_at_col(self, j: usize) -> (MatRef<'a, T>, MatRef<'a, T>) {
        assert!(
            j <= self.cols,
            "column split {j} out of bounds ({})",
            self.cols
        );
        (
            self.sub(0, 0, self.rows, j),
            self.sub(0, j, self.rows, self.cols - j),
        )
    }

    /// Copies this view into a dense `rows × cols` vector (ld = rows).
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Copy,
    {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for j in 0..self.cols {
            for i in 0..self.rows {
                out.push(self.get(i, j));
            }
        }
        out
    }
}

/// Exclusive column-major view of an `m × n` matrix with leading
/// dimension `ld ≥ m`.
pub struct MatMut<'a, T> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a mut T>,
}

// SAFETY: `MatMut` is an exclusive view handing out mutation only
// through &mut self; transferring them across threads is the whole
// point of block-parallel kernels, under the documented disjointness
// contract.
unsafe impl<T: Send> Send for MatMut<'_, T> {}
// SAFETY: a shared `&MatMut` hands out only reads of `T` (mutation
// needs &mut self), which T: Sync makes safe from many threads.
unsafe impl<T: Sync> Sync for MatMut<'_, T> {}

impl<'a, T> MatMut<'a, T> {
    /// Creates an exclusive view over `data` (column-major, leading
    /// dimension `ld`).
    ///
    /// # Panics
    /// If `ld < rows` (for `rows > 0`) or `data` is too short.
    pub fn from_slice(data: &'a mut [T], rows: usize, cols: usize, ld: usize) -> Self {
        check_extent(data.len(), rows, cols, ld);
        Self {
            ptr: data.as_mut_ptr(),
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
    }

    /// Creates an exclusive view from a raw pointer.
    ///
    /// # Safety
    /// `ptr` must be valid for reads and writes of the column-major
    /// extent `ld·(cols−1) + rows` for `'a`, and no other view may access
    /// any element this view writes, concurrently. Tiles of a common
    /// allocation may interleave in memory (`ld` gaps) as long as the
    /// *element sets* touched by concurrent owners are disjoint.
    pub unsafe fn from_raw_parts(ptr: *mut T, rows: usize, cols: usize, ld: usize) -> Self {
        debug_assert!(rows == 0 || ld >= rows);
        Self {
            ptr,
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }
    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }
    /// Leading dimension (column stride).
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }
    /// Raw pointer to the `(0,0)` element.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr
    }

    /// Reads element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        // SAFETY: in-bounds per the construction contract and the assert.
        unsafe { *self.ptr.add(i + j * self.ld) }
    }

    /// Writes element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        // SAFETY: in-bounds per the construction contract and the assert.
        unsafe { *self.ptr.add(i + j * self.ld) = v }
    }

    /// Shared view of the same data.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Shared view carrying the *full* storage lifetime, usable while
    /// this view keeps mutating — the BLAS aliasing idiom (e.g. `trsm`
    /// reading `L11` while updating `A21` of the same allocation).
    ///
    /// All element access goes through raw pointers (no `&`/`&mut`
    /// references to the data are ever formed), so interleaved reads and
    /// writes within one thread are well-defined; across threads the
    /// [`MatMut::from_raw_parts`] disjointness contract applies.
    #[inline]
    pub fn alias_ref(&self) -> MatRef<'a, T> {
        MatRef {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Reborrows, yielding an exclusive view with a shorter lifetime so
    /// the original can be used again afterwards.
    #[inline]
    pub fn rb(&mut self) -> MatMut<'_, T> {
        MatMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Exclusive sub-view of size `m × n` starting at `(i, j)`,
    /// consuming this view (reborrow first to keep it).
    #[must_use]
    pub fn sub(self, i: usize, j: usize, m: usize, n: usize) -> MatMut<'a, T> {
        debug_assert!(i + m <= self.rows && j + n <= self.cols);
        MatMut {
            // SAFETY: stays within the original extent.
            ptr: unsafe { self.ptr.add(i + j * self.ld) },
            rows: m,
            cols: n,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Contiguous shared slice over column `j` (`rows` elements).
    #[inline]
    pub fn col_as_slice(&self, j: usize) -> &[T] {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        // SAFETY: in-bounds per the construction contract; `&self`
        // prevents mutation through this view for the borrow's duration.
        unsafe { std::slice::from_raw_parts(self.ptr.add(j * self.ld), self.rows) }
    }

    /// Contiguous exclusive slice over column `j` (`rows` elements).
    ///
    /// This is the write half of the slice-kernel bridge: an axpy into a
    /// column becomes a plain `&mut [T]` loop the compiler vectorizes.
    #[inline]
    pub fn col_as_mut_slice(&mut self, j: usize) -> &mut [T] {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        // SAFETY: in-bounds per the construction contract; `&mut self`
        // makes this the only live access path to the column.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(j * self.ld), self.rows) }
    }

    /// Borrows column `dst` mutably and column `src` immutably at once
    /// (`dst != src`), for in-place column sweeps like the right-side
    /// `trsm`/`trmm` updates `B(:,dst) ← B(:,dst) ± B(:,src)·a`.
    ///
    /// # Panics
    /// If `dst == src` or either column is out of bounds.
    #[inline]
    pub fn col_pair_mut(&mut self, dst: usize, src: usize) -> (&mut [T], &[T]) {
        assert!(dst != src, "col_pair_mut requires distinct columns");
        assert!(dst < self.cols && src < self.cols, "column out of bounds");
        // SAFETY: ld ≥ rows is enforced at construction, so distinct
        // columns occupy disjoint index ranges; both are in-bounds.
        unsafe {
            (
                std::slice::from_raw_parts_mut(self.ptr.add(dst * self.ld), self.rows),
                std::slice::from_raw_parts(self.ptr.add(src * self.ld), self.rows),
            )
        }
    }

    /// Splits into the first `i` rows and the rest, two exclusive views.
    #[must_use]
    pub fn split_at_row(self, i: usize) -> (MatMut<'a, T>, MatMut<'a, T>) {
        assert!(
            i <= self.rows,
            "row split {i} out of bounds ({})",
            self.rows
        );
        let rows = self.rows;
        let cols = self.cols;
        let ld = self.ld;
        let top = MatMut {
            ptr: self.ptr,
            rows: i,
            cols,
            ld,
            _marker: PhantomData,
        };
        let bottom = MatMut {
            // SAFETY: stays within the original extent; the two views
            // cover disjoint element sets (same columns, disjoint rows).
            ptr: unsafe { self.ptr.add(i) },
            rows: rows - i,
            cols,
            ld,
            _marker: PhantomData,
        };
        (top, bottom)
    }

    /// Splits into the first `j` columns and the rest, two exclusive views.
    #[must_use]
    pub fn split_at_col(self, j: usize) -> (MatMut<'a, T>, MatMut<'a, T>) {
        assert!(
            j <= self.cols,
            "column split {j} out of bounds ({})",
            self.cols
        );
        let rows = self.rows;
        let cols = self.cols;
        let ld = self.ld;
        let left = MatMut {
            ptr: self.ptr,
            rows,
            cols: j,
            ld,
            _marker: PhantomData,
        };
        let right = MatMut {
            // SAFETY: stays within the original extent; disjoint columns.
            ptr: unsafe { self.ptr.add(j * ld) },
            rows,
            cols: cols - j,
            ld,
            _marker: PhantomData,
        };
        (left, right)
    }

    /// Fills the view with `v`.
    pub fn fill(&mut self, v: T)
    where
        T: Copy,
    {
        for j in 0..self.cols {
            for i in 0..self.rows {
                self.set(i, j, v);
            }
        }
    }

    /// Copies `src` (same dimensions) into this view.
    ///
    /// # Panics
    /// If dimensions differ.
    pub(crate) fn copy_from(&mut self, src: MatRef<'_, T>)
    where
        T: Copy,
    {
        assert_eq!(
            (self.rows, self.cols),
            (src.nrows(), src.ncols()),
            "shape mismatch"
        );
        for j in 0..self.cols {
            for i in 0..self.rows {
                self.set(i, j, src.get(i, j));
            }
        }
    }
}

fn check_extent(len: usize, rows: usize, cols: usize, ld: usize) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(ld >= rows, "leading dimension {ld} < row count {rows}");
    let need = ld * (cols - 1) + rows;
    assert!(
        len >= need,
        "slice of length {len} too short for {rows}x{cols} (ld {ld}): need {need}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_get_set() {
        let mut data = vec![0.0f64; 12];
        let mut m = MatMut::from_slice(&mut data, 3, 4, 3);
        for j in 0..4 {
            for i in 0..3 {
                m.set(i, j, (i * 10 + j) as f64);
            }
        }
        let r = m.as_ref();
        assert_eq!(r.get(2, 3), 23.0);
        assert_eq!(r.get(0, 0), 0.0);
        // Column-major layout check.
        assert_eq!(data[3], 1.0); // (0,1)
    }

    #[test]
    fn leading_dimension_respected() {
        // 2x2 view inside a 4-row buffer.
        let mut data = vec![0.0f64; 4 * 2];
        {
            let mut m = MatMut::from_slice(&mut data, 2, 2, 4);
            m.set(1, 1, 7.0);
        }
        assert_eq!(data[4 + 1], 7.0);
        assert_eq!(data[2], 0.0); // padding rows untouched
    }

    #[test]
    fn subview_offsets() {
        let mut data: Vec<f64> = (0..16).map(|x| x as f64).collect();
        let m = MatMut::from_slice(&mut data, 4, 4, 4);
        let s = m.as_ref().sub(1, 2, 2, 2);
        assert_eq!(s.get(0, 0), 9.0); // element (1,2) = 1 + 2*4
        assert_eq!(s.get(1, 1), 14.0); // element (2,3) = 2 + 3*4
    }

    #[test]
    fn sub_mut_and_reborrow() {
        let mut data = vec![0.0f64; 16];
        let mut m = MatMut::from_slice(&mut data, 4, 4, 4);
        {
            let mut tile = m.rb().sub(2, 2, 2, 2);
            tile.fill(5.0);
        }
        assert_eq!(m.get(2, 2), 5.0);
        assert_eq!(m.get(3, 3), 5.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn copy_from_and_to_vec() {
        let src_data: Vec<f64> = (0..6).map(|x| x as f64).collect();
        let src = MatRef::from_slice(&src_data, 3, 2, 3);
        let mut dst_data = vec![0.0f64; 10];
        let mut dst = MatMut::from_slice(&mut dst_data, 3, 2, 5);
        dst.copy_from(src);
        assert_eq!(dst.as_ref().to_vec(), src_data);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn extent_check_fires() {
        let data = vec![0.0f64; 5];
        let _ = MatRef::from_slice(&data, 3, 2, 3);
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn ld_check_fires() {
        let data = vec![0.0f64; 16];
        let _ = MatRef::from_slice(&data, 4, 4, 2);
    }

    #[test]
    fn zero_sized_views_ok() {
        let data: Vec<f64> = vec![];
        let m = MatRef::from_slice(&data, 0, 0, 0);
        assert_eq!(m.nrows(), 0);
        let m2 = MatRef::from_slice(&data, 0, 5, 0);
        assert_eq!(m2.ncols(), 5);
    }

    #[test]
    fn uplo_flip() {
        assert_eq!(Uplo::Lower.flip(), Uplo::Upper);
        assert_eq!(Uplo::Upper.flip(), Uplo::Lower);
    }

    #[test]
    fn col_slices_respect_ld() {
        // 3x2 view in a 5-row buffer: columns are rows 0..3 of each stripe.
        let mut data: Vec<f64> = (0..10).map(|x| x as f64).collect();
        let mut m = MatMut::from_slice(&mut data, 3, 2, 5);
        assert_eq!(m.as_ref().col_as_slice(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.col_as_slice(1), &[5.0, 6.0, 7.0]);
        m.col_as_mut_slice(1).iter_mut().for_each(|v| *v += 100.0);
        assert_eq!(data[5..8], [105.0, 106.0, 107.0]);
        assert_eq!(data[8], 8.0); // ld padding untouched
    }

    #[test]
    fn col_pair_mut_disjoint() {
        let mut data = vec![1.0f64; 8];
        let mut m = MatMut::from_slice(&mut data, 4, 2, 4);
        let (dst, src) = m.col_pair_mut(1, 0);
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d += 2.0 * s;
        }
        assert_eq!(&data[4..], &[3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn col_pair_mut_same_column_panics() {
        let mut data = vec![0.0f64; 4];
        let mut m = MatMut::from_slice(&mut data, 2, 2, 2);
        let _ = m.col_pair_mut(1, 1);
    }

    #[test]
    fn splits_partition_the_view() {
        let mut data: Vec<f64> = (0..16).map(|x| x as f64).collect();
        {
            let m = MatMut::from_slice(&mut data, 4, 4, 4);
            let (mut top, mut bottom) = m.split_at_row(1);
            assert_eq!((top.nrows(), bottom.nrows()), (1, 3));
            top.fill(-1.0);
            bottom.fill(-2.0);
        }
        assert_eq!(data[0], -1.0);
        assert_eq!(data[4], -1.0);
        assert_eq!(data[1], -2.0);
        let m2 = MatRef::from_slice(&data, 4, 4, 4);
        let (l, r) = m2.split_at_col(3);
        assert_eq!((l.ncols(), r.ncols()), (3, 1));
        assert_eq!(r.get(0, 0), m2.get(0, 3));
        // Degenerate splits at the boundary.
        let (e, f) = m2.split_at_col(0);
        assert_eq!((e.ncols(), f.ncols()), (0, 4));
    }
}
