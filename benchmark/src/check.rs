//! Inputs and independent output checks for the functional workloads.
//!
//! The reference is the benchmark's own triple loop, not the library's
//! `reference` module, so a fault shared by the library's kernels and
//! its reference cannot hide. A result is accepted when every element
//! lies within the forward-error bound of two GEMMs computed in any
//! summation order:
//!
//! `|got - want| <= 2 * gamma(k + 2) * (|alpha| * (|A| |B|) + |beta| * |C0|)`
//!
//! with `gamma(n) = n u / (1 - n u)` and `u = 2^-53`: each side commits
//! at most `gamma(k + 2)` relative error against the exact result (`k`
//! products summed, then the alpha scale and the beta update).

use std::sync::Arc;
use sw_dgemm::Matrix;

/// GEMM scalars of every functional and serving operation.
pub const ALPHA: f64 = 1.5;
pub const BETA: f64 = 0.5;

/// splitmix64: the benchmark's own generator, so inputs do not change
/// when the library's generator does.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn matrix(rows: usize, cols: usize, rng: &mut SplitMix) -> Matrix {
    Matrix::from_col_major(rows, cols, (0..rows * cols).map(|_| rng.unit()).collect())
}

/// One GEMM problem with its reference result. Operands are shared,
/// as a service request holds them.
pub struct Case {
    pub a: Arc<Matrix>,
    pub b: Arc<Matrix>,
    pub c0: Arc<Matrix>,
    want: Vec<f64>,
    bound: Vec<f64>,
}

impl Case {
    /// The `index`-th problem of shape `m x n x k` for `seed`.
    pub fn new(seed: u64, index: u64, (m, n, k): (usize, usize, usize)) -> Self {
        let mut rng = SplitMix(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
        let a = matrix(m, k, &mut rng);
        let b = matrix(k, n, &mut rng);
        let c0 = matrix(m, n, &mut rng);
        let u = f64::EPSILON / 2.0;
        let nu = (k + 2) as f64 * u;
        let gamma = nu / (1.0 - nu);
        let mut want = vec![0.0; m * n];
        let mut bound = vec![0.0; m * n];
        for j in 0..n {
            for i in 0..m {
                let (mut s, mut s_abs) = (0.0f64, 0.0f64);
                for l in 0..k {
                    let p = a.get(i, l) * b.get(l, j);
                    s += p;
                    s_abs += p.abs();
                }
                let c = c0.get(i, j);
                want[j * m + i] = ALPHA * s + BETA * c;
                bound[j * m + i] = 2.0 * gamma * (ALPHA.abs() * s_abs + BETA.abs() * c.abs());
            }
        }
        Case {
            a: Arc::new(a),
            b: Arc::new(b),
            c0: Arc::new(c0),
            want,
            bound,
        }
    }

    /// Whether `got` is the GEMM result within the forward-error bound
    /// (a NaN anywhere fails).
    pub fn accepts(&self, got: &Matrix) -> bool {
        let m = self.c0.rows();
        got.rows() == m
            && got.cols() == self.c0.cols()
            && self
                .want
                .iter()
                .zip(&self.bound)
                .enumerate()
                .all(|(idx, (w, b))| {
                    let d = (got.get(idx % m, idx / m) - w).abs();
                    d <= *b
                })
    }
}
