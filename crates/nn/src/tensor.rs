//! A minimal dense `f32` tensor.
//!
//! The paper trains with TensorFlow on a GPU; in this reproduction the whole
//! deep-learning stack is rebuilt on the CPU. [`Tensor`] is a contiguous
//! row-major buffer with just the operations the DAC'19 network needs:
//! matrix multiplication (three transpose variants, used by dense layers and
//! im2col convolution), element-wise maps, reductions and concatenation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major `f32` tensor.
#[derive(Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        } else {
            write!(f, " [{:.4}, {:.4}, …]", self.data[0], self.data[1])?;
        }
        Ok(())
    }
}

impl Tensor {
    /// A zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Tensor {
        let n = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Builds a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape/data mismatch"
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// A 1-element tensor.
    pub fn scalar(v: f32) -> Tensor {
        Tensor::from_vec(&[1], vec![v])
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Raw data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.numel(),
            shape.iter().product::<usize>(),
            "reshape mismatch"
        );
        self.shape = shape.to_vec();
        self
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two equal-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies all elements by `s`.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Sets all elements to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Matrix product `self (m×k) × other (k×n) → (m×n)`.
    ///
    /// Every output element is one sum that starts at `+0.0` and adds
    /// `a[i][p] * b[p][j]` for `p` ascending, a separate multiply and add
    /// per step (no FMA, no reassociation). Zero terms may be skipped. For
    /// finite operands the result is bit-identical to that scalar loop.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible inner dimensions.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.dims2();
        let (k2, n) = other.dims2();
        assert_eq!(k, k2, "matmul inner dimension mismatch");
        let mut out = vec![0.0f32; m * n];
        gemm_acc(m, n, k, &self.data, (k, 1), &other.data, &mut out);
        Tensor::from_vec(&[m, n], out)
    }

    /// `selfᵀ (k×m) × other (k×n) → (m×n)` without materialising the
    /// transpose; the reduction order is [`Tensor::matmul`]'s.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with matching first dimensions.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        let (k, m) = self.dims2();
        let (_, n) = other.dims2();
        let mut out = Tensor::zeros(&[m, n]);
        out.add_t_matmul(self, other, &[k]);
        out
    }

    /// `self (m×n) += Σₛ aₛᵀ bₛ`, where `a (k×m)` and `b (k×n)` are cut into
    /// consecutive row segments of the given lengths.
    ///
    /// Each segment's product is its own sum from `+0.0` (reduced as in
    /// [`Tensor::matmul`]) and is added into `self` in segment order. That is
    /// exactly how `self.add_assign(&aₛ.t_matmul(bₛ))` per segment rounds, so
    /// a weight gradient accumulated over a stacked batch is bit-identical to
    /// one accumulated query by query.
    ///
    /// # Panics
    ///
    /// Panics unless the shapes agree and the segments sum to `k`.
    pub fn add_t_matmul(&mut self, a: &Tensor, b: &Tensor, segments: &[usize]) {
        let (k, m) = a.dims2();
        let (k2, n) = b.dims2();
        assert_eq!(k, k2, "t_matmul dimension mismatch");
        assert_eq!(self.dims2(), (m, n), "t_matmul output shape mismatch");
        assert_eq!(
            segments.iter().sum::<usize>(),
            k,
            "segments must cover all rows"
        );
        let mut row = 0;
        for &len in segments {
            gemm_acc(
                m,
                n,
                len,
                &a.data[row * m..],
                (1, m),
                &b.data[row * n..],
                &mut self.data,
            );
            row += len;
        }
    }

    /// `self (m×k) × otherᵀ (n×k) → (m×n)`. The transpose of `other` is built
    /// once per call; the reduction order is [`Tensor::matmul`]'s.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with matching second dimensions.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.dims2();
        let (n, k2) = other.dims2();
        assert_eq!(k, k2, "matmul_t dimension mismatch");
        let mut bt = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = other.data[j * k + p];
            }
        }
        let mut out = vec![0.0f32; m * n];
        gemm_acc(m, n, k, &self.data, (k, 1), &bt, &mut out);
        Tensor::from_vec(&[m, n], out)
    }

    /// Concatenates 2-D tensors along the second (feature) axis.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ or the list is empty.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat of nothing");
        let rows = parts[0].dims2().0;
        let total: usize = parts.iter().map(|p| p.dims2().1).sum();
        let mut out = vec![0.0f32; rows * total];
        for r in 0..rows {
            let mut at = 0;
            for p in parts {
                let (pr, pc) = p.dims2();
                assert_eq!(pr, rows, "concat row mismatch");
                out[r * total + at..r * total + at + pc]
                    .copy_from_slice(&p.data[r * pc..(r + 1) * pc]);
                at += pc;
            }
        }
        Tensor::from_vec(&[rows, total], out)
    }

    /// Splits the gradient of a [`Tensor::concat_cols`] back into parts with
    /// the given column widths.
    ///
    /// # Panics
    ///
    /// Panics if the widths do not sum to the tensor's column count.
    pub fn split_cols(&self, widths: &[usize]) -> Vec<Tensor> {
        let (rows, cols) = self.dims2();
        assert_eq!(widths.iter().sum::<usize>(), cols, "split widths mismatch");
        let mut outs: Vec<Tensor> = widths.iter().map(|&w| Tensor::zeros(&[rows, w])).collect();
        for r in 0..rows {
            let mut at = 0;
            for (k, &w) in widths.iter().enumerate() {
                outs[k].data[r * w..(r + 1) * w]
                    .copy_from_slice(&self.data[r * cols + at..r * cols + at + w]);
                at += w;
            }
        }
        outs
    }

    /// Extracts row `r` of a 2-D tensor as a `[1, cols]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn row(&self, r: usize) -> Tensor {
        let (rows, cols) = self.dims2();
        assert!(r < rows, "row out of range");
        Tensor::from_vec(&[1, cols], self.data[r * cols..(r + 1) * cols].to_vec())
    }

    /// Stacks `[1, cols]` tensors into `[n, cols]`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ or the list is empty.
    pub fn stack_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack of nothing");
        let cols = parts[0].dims2().1;
        let mut data = Vec::with_capacity(parts.len() * cols);
        for p in parts {
            assert_eq!(p.dims2().1, cols, "stack width mismatch");
            assert_eq!(p.dims2().0, 1, "stack expects single rows");
            data.extend_from_slice(&p.data);
        }
        Tensor::from_vec(&[parts.len(), cols], data)
    }

    /// Interprets the tensor as 2-D.
    ///
    /// # Panics
    ///
    /// Panics unless the rank is exactly 2.
    pub fn dims2(&self) -> (usize, usize) {
        assert_eq!(
            self.shape.len(),
            2,
            "expected 2-D tensor, got {:?}",
            self.shape
        );
        (self.shape[0], self.shape[1])
    }

    /// Interprets the tensor as 4-D `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics unless the rank is exactly 4.
    pub fn dims4(&self) -> (usize, usize, usize, usize) {
        assert_eq!(
            self.shape.len(),
            4,
            "expected 4-D tensor, got {:?}",
            self.shape
        );
        (self.shape[0], self.shape[1], self.shape[2], self.shape[3])
    }
}

/// Rows of one full register block of [`gemm_acc`].
const MR: usize = 4;
/// Columns of one register block of [`gemm_acc`].
const NR: usize = 8;

/// The one product kernel: `c (m×n) += a (m×k) · b (k×n)`, with
/// `a(i, p) = a[i * rs + p * cs]` for `(rs, cs) = a_strides` and `b`
/// row-major.
///
/// Each `c[i][j]` receives one partial sum that starts at `+0.0` and adds
/// `a(i, p) * b[p][j]` for `p` ascending: a separate multiply and add per
/// step (Rust never contracts them into an FMA) and no reassociation. The
/// sums are register-blocked, at most `MR × NR`, which vectorises across
/// the `NR` independent columns without changing any one column's order.
///
/// A `p` step is skipped when `a(i, p)` is zero for every row of the block
/// (sparse binary layer images keep that cheap). Skipping, or not skipping,
/// a zero term is exact for finite operands: the partial sum starts at
/// `+0.0` and so is never `-0.0`, and adding `±0.0` to it changes nothing.
/// With infinite or NaN operands `0 · ∞` terms may differ from a loop that
/// skips per element.
fn gemm_acc(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    c: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    // Zero-pad b's rows to whole NR-column panels; padded columns are
    // computed and dropped.
    let ldb = n.div_ceil(NR) * NR;
    let padded;
    let b = if ldb == n {
        &b[..k * n]
    } else {
        let mut p = vec![0.0f32; k * ldb];
        for (dst, src) in p.chunks_exact_mut(ldb).zip(b.chunks_exact(n)) {
            dst[..n].copy_from_slice(src);
        }
        padded = p;
        &padded[..]
    };
    let ops = Operands {
        n,
        k,
        a,
        a_strides,
        b,
        ldb,
    };
    let mut block = Block {
        i0: 0,
        a_pack: vec![0.0f32; k * MR],
        skip: vec![false; k],
    };
    // Split the rows into as few blocks as MR allows, as evenly as possible:
    // a short remainder block would run at a fraction of a full block's
    // throughput (9 rows run as 3 + 3 + 3, not 4 + 4 + 1).
    let blocks = m.div_ceil(MR);
    for bi in 0..blocks {
        block.i0 += match (m - block.i0).div_ceil(blocks - bi) {
            1 => ops.rows::<1>(&mut block, c),
            2 => ops.rows::<2>(&mut block, c),
            3 => ops.rows::<3>(&mut block, c),
            _ => ops.rows::<MR>(&mut block, c),
        };
    }
}

/// The operands of one [`gemm_acc`] call; `b` has `ldb` columns, the last
/// `ldb - n` of them zero.
struct Operands<'a> {
    n: usize,
    k: usize,
    a: &'a [f32],
    a_strides: (usize, usize),
    b: &'a [f32],
    ldb: usize,
}

/// The rows `i0..` of `a` being multiplied, packed once for every column
/// panel: `a_pack[p * R + r] = a(i0 + r, p)`, and `skip[p]` when all of
/// step `p` is zero.
struct Block {
    i0: usize,
    a_pack: Vec<f32>,
    skip: Vec<bool>,
}

impl Operands<'_> {
    /// Adds rows `i0..i0 + R` of the product into `c`; returns `R`.
    fn rows<const R: usize>(&self, block: &mut Block, c: &mut [f32]) -> usize {
        let (n, (rs, cs), i0) = (self.n, self.a_strides, block.i0);
        let a_pack = &mut block.a_pack[..self.k * R];
        for (p, (slot, skip)) in a_pack.chunks_exact_mut(R).zip(&mut block.skip).enumerate() {
            for (r, v) in slot.iter_mut().enumerate() {
                *v = self.a[(i0 + r) * rs + p * cs];
            }
            *skip = slot.iter().all(|&x| x == 0.0);
        }
        for j0 in (0..n).step_by(NR) {
            let acc = panel::<R>(a_pack, &block.skip, self.b, self.ldb, j0);
            let nr = NR.min(n - j0);
            for (r, acc_row) in acc.iter().enumerate() {
                let at = (i0 + r) * n + j0;
                for (o, &v) in c[at..at + nr].iter_mut().zip(acc_row) {
                    *o += v;
                }
            }
        }
        R
    }
}

/// One `R × NR` register block: packed rows times columns `j0..j0 + NR` of
/// `b` (row stride `ldb`), over the non-skipped steps in ascending `p`.
#[inline(always)]
fn panel<const R: usize>(
    a_pack: &[f32],
    skip: &[bool],
    b: &[f32],
    ldb: usize,
    j0: usize,
) -> [[f32; NR]; R] {
    let mut acc = [[0.0f32; NR]; R];
    let steps = a_pack.chunks_exact(R).zip(b.chunks_exact(ldb));
    for ((a, b_row), &skip) in steps.zip(skip) {
        if skip {
            continue;
        }
        let b_row = &b_row[j0..j0 + NR];
        for (acc_row, &ar) in acc.iter_mut().zip(a) {
            for (s, &bv) in acc_row.iter_mut().zip(b_row) {
                *s += ar * bv;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference `a (m×k) × b (k×n)`: the scalar loop the blocked kernel
    /// replaced, kept to pin its reduction order.
    fn ref_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.dims2();
        let (_, n) = b.dims2();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let o_row = &mut out[i * n..(i + 1) * n];
            for (p, &av) in a.data[i * k..(i + 1) * k].iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in o_row.iter_mut().zip(&b.data[p * n..(p + 1) * n]) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(&[m, n], out)
    }

    /// Reference `aᵀ (k×m)ᵀ × b (k×n)`.
    fn ref_t_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m) = a.dims2();
        let (_, n) = b.dims2();
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let b_row = &b.data[p * n..(p + 1) * n];
            for (i, &av) in a.data[p * m..(p + 1) * m].iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(&[m, n], out)
    }

    /// Reference `a (m×k) × bᵀ (n×k)ᵀ`: a sequential dot product per element.
    fn ref_matmul_t(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.dims2();
        let (n, _) = b.dims2();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.data[i * k + p] * b.data[j * k + p];
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(&[m, n], out)
    }

    /// Finite operand with exact zeros (some `-0.0`), all-zero rows and
    /// magnitudes spread over several decades.
    fn operand(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
        let zero_row = rng.gen_range(0..rows + 2);
        let data = (0..rows * cols)
            .map(|i| match rng.gen_range(0u32..10) {
                _ if i / cols == zero_row => 0.0,
                0 | 1 => 0.0,
                2 => -0.0,
                _ => rng.gen_range(-1.0f32..1.0) * 10f32.powi(rng.gen_range(-3i32..4)),
            })
            .collect();
        Tensor::from_vec(&[rows, cols], data)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The blocked kernel is bit-identical to the scalar references in
        /// all three products, at sizes on and off the register block.
        #[test]
        fn products_match_reference_bits(
            m in 1usize..19,
            n in 1usize..19,
            k in 1usize..19,
            seed in any::<u64>()
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = operand(m, k, &mut rng);
            let b = operand(k, n, &mut rng);
            prop_assert_eq!(bits(&a.matmul(&b)), bits(&ref_matmul(&a, &b)));
            let at = operand(k, m, &mut rng);
            prop_assert_eq!(bits(&at.t_matmul(&b)), bits(&ref_t_matmul(&at, &b)));
            let bt = operand(n, k, &mut rng);
            prop_assert_eq!(bits(&a.matmul_t(&bt)), bits(&ref_matmul_t(&a, &bt)));
        }

        /// A segmented `add_t_matmul` rounds exactly like adding one
        /// reference product per segment, in segment order.
        #[test]
        fn segmented_t_matmul_matches_per_segment_adds(
            m in 1usize..12,
            n in 1usize..12,
            lens in proptest::collection::vec(0usize..7, 1..5),
            seed in any::<u64>()
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k: usize = lens.iter().sum();
            prop_assume!(k > 0);
            let a = operand(k, m, &mut rng);
            let b = operand(k, n, &mut rng);
            let start = operand(m, n, &mut rng);
            let mut expect = start.clone();
            let mut row = 0;
            for &len in &lens {
                let seg_a = Tensor::from_vec(&[len, m], a.data[row * m..(row + len) * m].to_vec());
                let seg_b = Tensor::from_vec(&[len, n], b.data[row * n..(row + len) * n].to_vec());
                expect.add_assign(&ref_t_matmul(&seg_a, &seg_b));
                row += len;
            }
            let mut got = start;
            got.add_t_matmul(&a, &b, &lens);
            prop_assert_eq!(bits(&got), bits(&expect));
        }
    }

    #[test]
    fn matmul_basic() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_variants_agree() {
        let a = Tensor::from_vec(&[2, 3], vec![1., -2., 3., 4., 5., -6.]);
        let b = Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32 * 0.5 - 2.0).collect());
        let direct = a.matmul(&b);
        // aᵀᵀ b via t_matmul with explicitly transposed a.
        let mut at = Tensor::zeros(&[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                at.data_mut()[j * 2 + i] = a.data()[i * 3 + j];
            }
        }
        let via_t = at.t_matmul(&b);
        for (x, y) in direct.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-6);
        }
        // a b = a (bᵀ)ᵀ via matmul_t.
        let mut bt = Tensor::zeros(&[4, 3]);
        for i in 0..3 {
            for j in 0..4 {
                bt.data_mut()[j * 3 + i] = b.data()[i * 4 + j];
            }
        }
        let via_bt = a.matmul_t(&bt);
        for (x, y) in direct.data().iter().zip(via_bt.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn concat_split_round_trip() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(&[2, 3], vec![5., 6., 7., 8., 9., 10.]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 5]);
        assert_eq!(c.data(), &[1., 2., 5., 6., 7., 3., 4., 8., 9., 10.]);
        let parts = c.split_cols(&[2, 3]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn rows_and_stacking() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r0 = a.row(0);
        let r1 = a.row(1);
        let back = Tensor::stack_rows(&[r0, r1]);
        assert_eq!(back, a);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec(&[3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(&[3], vec![10., 20., 30.]);
        a.axpy(0.1, &b);
        assert_eq!(a.data(), &[2., 4., 6.]);
        a.scale(0.5);
        assert_eq!(a.data(), &[1., 2., 3.]);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn bad_from_vec_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = a.clone().reshape(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }
}
