//! Minimal dense-matrix kernel for the training substrate.
//!
//! Row-major `f32` matrices with exactly the operations the models need.
//! `matmul` parallelizes over row blocks with rayon once the output is
//! large enough to amortize the fork/join; the cutoff is the explicit
//! `PAR_CUTOFF`.

use opml_simkernel::Rng;
use serde::{Deserialize, Serialize};

/// Output elements below which `matmul` stays sequential.
const PAR_CUTOFF: usize = 64 * 64;

/// A row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing buffer (must be `rows*cols` long).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Matrix { rows, cols, data }
    }

    /// Kaiming-uniform initialization (the standard for ReLU nets).
    pub fn kaiming(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let bound = (6.0 / rows as f64).sqrt() as f32;
        Matrix::from_fn(rows, cols, |_, _| {
            rng.range_f64(-bound as f64, bound as f64) as f32
        })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat data view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self · other`, parallelized over row blocks above a cutoff.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let work = self.rows * other.cols;
        if work >= PAR_CUTOFF && self.rows > 1 {
            use rayon::prelude::*;
            let n = other.cols;
            out.data
                .par_chunks_mut(n)
                .enumerate()
                .for_each(|(r, out_row)| {
                    matmul_row(self.row(r), other, out_row);
                });
        } else {
            for r in 0..self.rows {
                let (a_row, o) = (
                    &self.data[r * self.cols..(r + 1) * self.cols],
                    &mut out.data[r * other.cols..(r + 1) * other.cols],
                );
                matmul_row(a_row, other, o);
            }
        }
        out
    }

    /// `selfᵀ`.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scale all elements.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Set all elements to zero (gradient reset).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// `out_row = a_row · b` (ikj ordering: stream over b's rows).
#[inline]
fn matmul_row(a_row: &[f32], b: &Matrix, out_row: &mut [f32]) {
    out_row.fill(0.0);
    for (k, &a) in a_row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let b_row = b.row(k);
        for (o, &bv) in out_row.iter_mut().zip(b_row) {
            *o += a * bv;
        }
    }
}

/// `dst += src` for flat parameter/gradient buffers.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_parallel_matches_sequential() {
        // Above the cutoff, the rayon path must agree with the naive path.
        let mut rng = Rng::new(3);
        let a = Matrix::from_fn(96, 80, |_, _| rng.range_f64(-1.0, 1.0) as f32);
        let b = Matrix::from_fn(80, 96, |_, _| rng.range_f64(-1.0, 1.0) as f32);
        let par = a.matmul(&b); // 96*96 > cutoff → parallel
                                // Naive reference.
        let mut naive = Matrix::zeros(96, 96);
        for r in 0..96 {
            for c in 0..96 {
                let mut s = 0.0;
                for k in 0..80 {
                    s += a.get(r, k) * b.get(k, c);
                }
                naive.set(r, c, s);
            }
        }
        for (x, y) in par.as_slice().iter().zip(naive.as_slice()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![10.0, 10.0, 10.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 7.0, 8.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[12.0, 14.0, 16.0]);
        a.fill_zero();
        assert_eq!(a.as_slice(), &[0.0; 3]);
    }

    #[test]
    fn kaiming_within_bound() {
        let mut rng = Rng::new(5);
        let m = Matrix::kaiming(100, 50, &mut rng);
        let bound = (6.0f32 / 100.0).sqrt();
        assert!(m.as_slice().iter().all(|&x| x.abs() <= bound));
        // Not all zero.
        assert!(m.frobenius() > 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut d = vec![1.0, 1.0];
        add_assign(&mut d, &[2.0, 3.0]);
        assert_eq!(d, vec![3.0, 4.0]);
    }
}
