//! Training tuples: `⟨id, features, label⟩`.
//!
//! The paper stores training data in PostgreSQL with the schema
//! `⟨id, features_k[], features_v[], label⟩` (§6.1): sparse datasets carry
//! index/value arrays, dense datasets only the value array. [`FeatureVec`]
//! mirrors exactly that: [`FeatureVec::Dense`] holds only values,
//! [`FeatureVec::Sparse`] holds `(index, value)` pairs plus the logical
//! dimensionality.

use crate::error::StorageError;
use crate::Result;

use std::cell::Cell;

/// Identifier of a tuple within a table (its insertion position).
pub type TupleId = u64;

thread_local! {
    /// Per-thread count of [`Tuple`] clones (see [`tuple_clone_count`]).
    static TUPLE_CLONES: Cell<u64> = const { Cell::new(0) };
}

/// Number of `Tuple::clone` calls made *by the current thread* so far.
///
/// The fill path of the pipelined executor builds no per-tuple objects:
/// blocks are decoded once into columnar batches, so filling and draining
/// a buffer must not clone tuples at all. Tests (and
/// the [`crate::pipeline`] producer) enforce that by diffing this counter
/// around the code under test. The counter is thread-local so concurrent
/// tests cannot perturb each other's measurements.
pub fn tuple_clone_count() -> u64 {
    TUPLE_CLONES.with(|c| c.get())
}

/// Number of lanes the dense kernels process per unrolled iteration.
///
/// Eight `f32` lanes fill one AVX2 register; the independent-accumulator
/// form below is what LLVM's autovectorizer turns into packed FMAs without
/// any explicit SIMD intrinsics (and without new dependencies).
pub const DENSE_LANES: usize = 8;

/// Unrolled dense dot product over `min(x.len(), w.len())` components.
///
/// Eight independent accumulators break the serial dependency chain of the
/// naive `fold`, letting the autovectorizer emit packed multiply-adds. The
/// summation order differs from [`dense_dot_scalar`], so results may differ
/// by normal float rounding; both are deterministic.
#[inline]
pub fn dense_dot(x: &[f32], w: &[f32]) -> f32 {
    let n = x.len().min(w.len());
    let (x, w) = (&x[..n], &w[..n]);
    let mut acc = [0.0f32; DENSE_LANES];
    let mut xc = x.chunks_exact(DENSE_LANES);
    let mut wc = w.chunks_exact(DENSE_LANES);
    for (xo, wo) in (&mut xc).zip(&mut wc) {
        for k in 0..DENSE_LANES {
            acc[k] += xo[k] * wo[k];
        }
    }
    let tail: f32 = xc
        .remainder()
        .iter()
        .zip(wc.remainder())
        .map(|(a, b)| a * b)
        .sum();
    let lo = (acc[0] + acc[4]) + (acc[1] + acc[5]);
    let hi = (acc[2] + acc[6]) + (acc[3] + acc[7]);
    (lo + hi) + tail
}

/// Reference scalar dot product (the pre-unrolling implementation).
///
/// Kept for equivalence tests and the `dense_kernels` micro-benchmark.
#[inline]
pub fn dense_dot_scalar(x: &[f32], w: &[f32]) -> f32 {
    x.iter().zip(w).map(|(a, b)| a * b).sum()
}

/// Unrolled dense `w[i] += scale * x[i]` over `min(x.len(), w.len())`
/// components. Same unrolling rationale as [`dense_dot`]; unlike the dot
/// product there is no reassociation, so results are bit-identical to
/// [`dense_axpy_scalar`].
#[inline]
pub fn dense_axpy(scale: f32, x: &[f32], w: &mut [f32]) {
    let n = x.len().min(w.len());
    let (x, w) = (&x[..n], &mut w[..n]);
    let mut xc = x.chunks_exact(DENSE_LANES);
    let mut wc = w.chunks_exact_mut(DENSE_LANES);
    for (xo, wo) in (&mut xc).zip(&mut wc) {
        for k in 0..DENSE_LANES {
            wo[k] += scale * xo[k];
        }
    }
    for (xi, wi) in xc.remainder().iter().zip(wc.into_remainder()) {
        *wi += scale * xi;
    }
}

/// Reference scalar axpy (the pre-unrolling implementation).
#[inline]
pub fn dense_axpy_scalar(scale: f32, x: &[f32], w: &mut [f32]) {
    for (wi, &xi) in w.iter_mut().zip(x) {
        *wi += scale * xi;
    }
}

/// A feature vector, dense or sparse, with `f32` components.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureVec {
    /// Dense layout: `values[i]` is the value of feature `i`.
    Dense(Vec<f32>),
    /// Sparse layout: only non-zero features are materialized.
    Sparse {
        /// Logical dimensionality of the vector.
        dim: u32,
        /// Indices of the non-zero features, strictly increasing.
        indices: Vec<u32>,
        /// Values of the non-zero features (same length as `indices`).
        values: Vec<f32>,
    },
}

impl FeatureVec {
    /// Build a sparse vector, validating the index/value invariants.
    pub fn sparse(dim: u32, indices: Vec<u32>, values: Vec<f32>) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "sparse indices/values length mismatch"
        );
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "sparse indices must be strictly increasing"
        );
        debug_assert!(indices.iter().all(|&i| i < dim), "index out of dimension");
        FeatureVec::Sparse {
            dim,
            indices,
            values,
        }
    }

    /// Logical dimensionality of the vector.
    pub fn dim(&self) -> usize {
        match self {
            FeatureVec::Dense(v) => v.len(),
            FeatureVec::Sparse { dim, .. } => *dim as usize,
        }
    }

    /// Number of materialized (stored) components.
    pub fn nnz(&self) -> usize {
        match self {
            FeatureVec::Dense(v) => v.len(),
            FeatureVec::Sparse { values, .. } => values.len(),
        }
    }

    /// Borrowed view of the vector, the layout every kernel runs on.
    pub fn view(&self) -> FeatureRef<'_> {
        match self {
            FeatureVec::Dense(v) => FeatureRef::Dense(v),
            FeatureVec::Sparse {
                dim,
                indices,
                values,
            } => FeatureRef::Sparse {
                dim: *dim,
                indices,
                values,
            },
        }
    }

    /// Value of feature `i` (zero for absent sparse entries).
    pub fn get(&self, i: usize) -> f32 {
        self.view().get(i)
    }

    /// Dot product with a dense weight slice.
    ///
    /// The weight slice must be at least as long as the vector's dimension.
    pub fn dot(&self, w: &[f32]) -> f32 {
        self.view().dot(w)
    }

    /// `w += scale * self`, the sparse-aware axpy used by gradient updates.
    pub fn axpy_into(&self, scale: f32, w: &mut [f32]) {
        self.view().axpy_into(scale, w)
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(&self) -> f32 {
        match self {
            FeatureVec::Dense(v) => v.iter().map(|x| x * x).sum(),
            FeatureVec::Sparse { values, .. } => values.iter().map(|x| x * x).sum(),
        }
    }

    /// Iterate `(index, value)` over materialized components.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (usize, f32)> + '_> {
        match self {
            FeatureVec::Dense(v) => Box::new(v.iter().copied().enumerate()),
            FeatureVec::Sparse {
                indices, values, ..
            } => Box::new(indices.iter().zip(values).map(|(&i, &v)| (i as usize, v))),
        }
    }
}

/// A borrowed feature vector: a view of a [`FeatureVec`] or one row of a
/// columnar [`TupleBatch`](crate::TupleBatch).
///
/// The dot and axpy kernels live here, so an owned vector and a batch row
/// run the same code and produce the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureRef<'a> {
    /// Dense layout: `values[i]` is the value of feature `i`.
    Dense(&'a [f32]),
    /// Sparse layout (see [`FeatureVec::Sparse`]).
    Sparse {
        /// Logical dimensionality of the vector.
        dim: u32,
        /// Indices of the non-zero features, strictly increasing.
        indices: &'a [u32],
        /// Values of the non-zero features (same length as `indices`).
        values: &'a [f32],
    },
}

impl FeatureRef<'_> {
    /// Logical dimensionality of the vector.
    pub fn dim(&self) -> usize {
        match self {
            FeatureRef::Dense(v) => v.len(),
            FeatureRef::Sparse { dim, .. } => *dim as usize,
        }
    }

    /// Number of materialized (stored) components.
    pub fn nnz(&self) -> usize {
        match self {
            FeatureRef::Dense(v) => v.len(),
            FeatureRef::Sparse { values, .. } => values.len(),
        }
    }

    /// Value of feature `i` (zero for absent sparse entries).
    pub fn get(&self, i: usize) -> f32 {
        match self {
            FeatureRef::Dense(v) => v.get(i).copied().unwrap_or(0.0),
            FeatureRef::Sparse {
                indices, values, ..
            } => indices
                .binary_search(&(i as u32))
                .map(|pos| values[pos])
                .unwrap_or(0.0),
        }
    }

    /// Dot product with a dense weight slice (at least `dim` long).
    #[inline]
    pub fn dot(&self, w: &[f32]) -> f32 {
        match self {
            FeatureRef::Dense(v) => dense_dot(v, w),
            FeatureRef::Sparse {
                indices, values, ..
            } => indices
                .iter()
                .zip(values.iter())
                .map(|(&i, &v)| v * w[i as usize])
                .sum(),
        }
    }

    /// `w += scale * self`, touching only the stored components.
    #[inline]
    pub fn axpy_into(&self, scale: f32, w: &mut [f32]) {
        match self {
            FeatureRef::Dense(v) => dense_axpy(scale, v, w),
            FeatureRef::Sparse {
                indices, values, ..
            } => {
                for (&i, &v) in indices.iter().zip(values.iter()) {
                    w[i as usize] += scale * v;
                }
            }
        }
    }

    /// Overwrite `dst` with a copy of this vector, reusing its buffers.
    pub fn copy_into(&self, dst: &mut FeatureVec) {
        match (self, dst) {
            (FeatureRef::Dense(src), FeatureVec::Dense(v)) => {
                v.clear();
                v.extend_from_slice(src);
            }
            (
                FeatureRef::Sparse {
                    dim,
                    indices,
                    values,
                },
                FeatureVec::Sparse {
                    dim: d,
                    indices: i,
                    values: v,
                },
            ) => {
                *d = *dim;
                i.clear();
                i.extend_from_slice(indices);
                v.clear();
                v.extend_from_slice(values);
            }
            (src, dst) => *dst = src.to_owned_vec(),
        }
    }

    /// An owned copy.
    pub fn to_owned_vec(&self) -> FeatureVec {
        match self {
            FeatureRef::Dense(v) => FeatureVec::Dense(v.to_vec()),
            FeatureRef::Sparse {
                dim,
                indices,
                values,
            } => FeatureVec::Sparse {
                dim: *dim,
                indices: indices.to_vec(),
                values: values.to_vec(),
            },
        }
    }
}

/// A borrowed training example: one row of a [`TupleBatch`](crate::TupleBatch)
/// or a view of a [`Tuple`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowRef<'a> {
    /// Tuple id (see [`Tuple::id`]).
    pub id: TupleId,
    /// Label (see [`Tuple::label`]).
    pub label: f32,
    /// Borrowed features.
    pub features: FeatureRef<'a>,
}

impl RowRef<'_> {
    /// Size in bytes of the row's on-page encoding (= [`Tuple::encoded_len`]).
    pub fn encoded_len(&self) -> usize {
        let per_value = match self.features {
            FeatureRef::Dense(_) => 4,
            FeatureRef::Sparse { .. } => 8,
        };
        TUPLE_HEADER_BYTES + per_value * self.features.nnz()
    }

    /// An owned copy of the row.
    pub fn to_tuple(&self) -> Tuple {
        Tuple {
            id: self.id,
            features: self.features.to_owned_vec(),
            label: self.label,
        }
    }
}

/// One training example as stored in a heap table.
///
/// `Clone` is implemented by hand so every clone bumps the thread-local
/// counter behind [`tuple_clone_count`] — the no-clone guarantee of the
/// pipelined fill path is asserted against it.
#[derive(Debug, PartialEq)]
pub struct Tuple {
    /// Position of the tuple in the original table order (`tuple_id` in the
    /// paper's Figure 3/4 diagnostics).
    pub id: TupleId,
    /// Feature vector.
    pub features: FeatureVec,
    /// Label: ±1 for binary classification, class index for multi-class,
    /// real value for regression.
    pub label: f32,
}

impl Clone for Tuple {
    fn clone(&self) -> Self {
        TUPLE_CLONES.with(|c| c.set(c.get() + 1));
        Tuple {
            id: self.id,
            features: self.features.clone(),
            label: self.label,
        }
    }
}

/// Encoding tags for the on-page representation.
pub(crate) const TAG_DENSE: u8 = 0;
pub(crate) const TAG_SPARSE: u8 = 1;
/// Encoded header: id(8) + label(4) + tag(1) + dim(4) + nnz(4).
pub(crate) const TUPLE_HEADER_BYTES: usize = 8 + 4 + 1 + 4 + 4;

impl Tuple {
    /// Create a dense tuple.
    pub fn dense(id: TupleId, values: Vec<f32>, label: f32) -> Self {
        Tuple {
            id,
            features: FeatureVec::Dense(values),
            label,
        }
    }

    /// Whether the label and every stored feature value are finite (no NaN
    /// or infinity).
    pub fn is_finite(&self) -> bool {
        let values = match &self.features {
            FeatureVec::Dense(values) | FeatureVec::Sparse { values, .. } => values,
        };
        self.label.is_finite() && values.iter().all(|v| v.is_finite())
    }

    /// Create a sparse tuple.
    pub fn sparse(id: TupleId, dim: u32, indices: Vec<u32>, values: Vec<f32>, label: f32) -> Self {
        Tuple {
            id,
            features: FeatureVec::sparse(dim, indices, values),
            label,
        }
    }

    /// Borrowed view of the tuple.
    pub fn row(&self) -> RowRef<'_> {
        RowRef {
            id: self.id,
            label: self.label,
            features: self.features.view(),
        }
    }

    /// Size in bytes of the binary encoding produced by [`Tuple::encode`].
    pub fn encoded_len(&self) -> usize {
        self.row().encoded_len()
    }

    /// Append the binary encoding of the tuple to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.label.to_le_bytes());
        match &self.features {
            FeatureVec::Dense(v) => {
                out.push(TAG_DENSE);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            FeatureVec::Sparse {
                dim,
                indices,
                values,
            } => {
                out.push(TAG_SPARSE);
                out.extend_from_slice(&dim.to_le_bytes());
                out.extend_from_slice(&(indices.len() as u32).to_le_bytes());
                for i in indices {
                    out.extend_from_slice(&i.to_le_bytes());
                }
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    /// Decode one tuple from the front of `buf`, returning it and the number
    /// of bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Tuple, usize)> {
        let enc = Encoded::parse(buf)?;
        let values: Vec<f32> = le_f32s(enc.values).collect();
        let features = if enc.sparse {
            FeatureVec::Sparse {
                dim: enc.dim,
                indices: le_u32s(enc.indices).collect(),
                values,
            }
        } else {
            FeatureVec::Dense(values)
        };
        Ok((
            Tuple {
                id: enc.id,
                features,
                label: enc.label,
            },
            enc.len,
        ))
    }
}

/// One on-page tuple encoding, bounds-checked but not yet decoded: the
/// feature payloads are still little-endian byte runs. Both
/// [`Tuple::decode`] and the columnar batch decode go through this parser.
pub(crate) struct Encoded<'a> {
    pub(crate) id: TupleId,
    pub(crate) label: f32,
    pub(crate) dim: u32,
    pub(crate) sparse: bool,
    /// `4 * nnz` bytes of `u32` indices (empty for dense rows).
    pub(crate) indices: &'a [u8],
    /// `4 * nnz` bytes of `f32` values.
    pub(crate) values: &'a [u8],
    /// Bytes the encoding occupies.
    pub(crate) len: usize,
}

impl<'a> Encoded<'a> {
    /// Parse the encoding at the front of `buf`.
    pub(crate) fn parse(buf: &'a [u8]) -> Result<Encoded<'a>> {
        let need = |n: usize| -> Result<()> {
            if buf.len() < n {
                Err(StorageError::Corrupt(format!(
                    "need {n} bytes, have {}",
                    buf.len()
                )))
            } else {
                Ok(())
            }
        };
        need(TUPLE_HEADER_BYTES)?;
        let id = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        let label = f32::from_le_bytes(buf[8..12].try_into().unwrap());
        let tag = buf[12];
        let dim = u32::from_le_bytes(buf[13..17].try_into().unwrap());
        let nnz = u32::from_le_bytes(buf[17..21].try_into().unwrap()) as usize;
        let off = TUPLE_HEADER_BYTES;
        let sparse = match tag {
            TAG_DENSE => false,
            TAG_SPARSE => true,
            other => {
                return Err(StorageError::Corrupt(format!(
                    "unknown feature tag {other}"
                )))
            }
        };
        let index_bytes = if sparse { 4 * nnz } else { 0 };
        let len = off + index_bytes + 4 * nnz;
        need(len)?;
        Ok(Encoded {
            id,
            label,
            dim,
            sparse,
            indices: &buf[off..off + index_bytes],
            values: &buf[off + index_bytes..len],
            len,
        })
    }
}

/// Decode a run of little-endian `f32`s.
pub(crate) fn le_f32s(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunks_exact(4) yields 4 bytes")))
}

/// Decode a run of little-endian `u32`s.
pub(crate) fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4) yields 4 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dense_roundtrip() {
        let t = Tuple::dense(42, vec![1.0, -2.5, 3.25], 1.0);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        assert_eq!(buf.len(), t.encoded_len());
        let (back, used) = Tuple::decode(&buf).unwrap();
        assert_eq!(back, t);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn sparse_roundtrip() {
        let t = Tuple::sparse(7, 1_000_000, vec![3, 99, 4321], vec![0.5, -1.0, 2.0], -1.0);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let (back, used) = Tuple::decode(&buf).unwrap();
        assert_eq!(back, t);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let t = Tuple::dense(1, vec![1.0; 8], 1.0);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        for cut in [0, 5, 20, buf.len() - 1] {
            assert!(
                Tuple::decode(&buf[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let t = Tuple::dense(1, vec![1.0], 1.0);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        buf[12] = 99;
        assert!(Tuple::decode(&buf).is_err());
    }

    #[test]
    fn sparse_get_and_dot() {
        let f = FeatureVec::sparse(10, vec![1, 4, 7], vec![2.0, 3.0, -1.0]);
        assert_eq!(f.get(1), 2.0);
        assert_eq!(f.get(0), 0.0);
        assert_eq!(f.get(7), -1.0);
        let w = vec![1.0; 10];
        assert_eq!(f.dot(&w), 4.0);
        assert_eq!(f.dim(), 10);
        assert_eq!(f.nnz(), 3);
    }

    #[test]
    fn dense_dot_and_axpy() {
        let f = FeatureVec::Dense(vec![1.0, 2.0, 3.0]);
        let mut w = vec![0.5, 0.5, 0.5];
        assert_eq!(f.dot(&w), 3.0);
        f.axpy_into(2.0, &mut w);
        assert_eq!(w, vec![2.5, 4.5, 6.5]);
        assert_eq!(f.norm_sq(), 14.0);
    }

    #[test]
    fn sparse_axpy_touches_only_nnz() {
        let f = FeatureVec::sparse(5, vec![0, 3], vec![1.0, 1.0]);
        let mut w = vec![0.0; 5];
        f.axpy_into(3.0, &mut w);
        assert_eq!(w, vec![3.0, 0.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn clone_bumps_the_thread_local_counter() {
        let before = tuple_clone_count();
        let t = Tuple::dense(1, vec![1.0, 2.0], 1.0);
        #[allow(clippy::redundant_clone)]
        let _copy = t.clone();
        assert_eq!(tuple_clone_count(), before + 1);
    }

    #[test]
    fn unrolled_kernels_match_scalar_reference() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 100] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25 - 3.0).collect();
            let w: Vec<f32> = (0..n).map(|i| 1.0 - (i as f32) * 0.125).collect();
            let fast = dense_dot(&x, &w);
            let slow = dense_dot_scalar(&x, &w);
            assert!(
                (fast - slow).abs() <= 1e-3 * (1.0 + slow.abs()),
                "dot mismatch at n={n}: {fast} vs {slow}"
            );
            let mut wa = w.clone();
            let mut wb = w.clone();
            dense_axpy(0.5, &x, &mut wa);
            dense_axpy_scalar(0.5, &x, &mut wb);
            assert_eq!(wa, wb, "axpy mismatch at n={n}");
        }
    }

    #[test]
    fn kernels_respect_shorter_weight_slices() {
        // `dot`/`axpy_into` historically zip to the shorter slice; the
        // unrolled kernels must preserve that.
        let x = vec![1.0f32; 20];
        let w = vec![2.0f32; 12];
        assert_eq!(dense_dot(&x, &w), 24.0);
        let mut w2 = w.clone();
        dense_axpy(1.0, &x, &mut w2);
        assert_eq!(w2, vec![3.0f32; 12]);
    }

    #[test]
    fn iter_yields_pairs() {
        let d = FeatureVec::Dense(vec![5.0, 6.0]);
        let got: Vec<_> = d.iter().collect();
        assert_eq!(got, vec![(0, 5.0), (1, 6.0)]);
        let s = FeatureVec::sparse(9, vec![2, 8], vec![1.5, 2.5]);
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![(2, 1.5), (8, 2.5)]);
    }

    proptest! {
        #[test]
        fn prop_dense_roundtrip(id in any::<u64>(), label in -1e6f32..1e6,
                                vals in proptest::collection::vec(-1e6f32..1e6, 0..64)) {
            let t = Tuple::dense(id, vals, label);
            let mut buf = Vec::new();
            t.encode(&mut buf);
            prop_assert_eq!(buf.len(), t.encoded_len());
            let (back, used) = Tuple::decode(&buf).unwrap();
            prop_assert_eq!(back, t);
            prop_assert_eq!(used, buf.len());
        }

        #[test]
        fn prop_sparse_roundtrip(id in any::<u64>(), label in -10f32..10.0,
                                 nnz in 0usize..32) {
            let indices: Vec<u32> = (0..nnz as u32).map(|i| i * 3 + 1).collect();
            let values: Vec<f32> = (0..nnz).map(|i| i as f32 * 0.5 - 1.0).collect();
            let dim = 3 * nnz as u32 + 2;
            let t = Tuple::sparse(id, dim, indices, values, label);
            let mut buf = Vec::new();
            t.encode(&mut buf);
            prop_assert_eq!(buf.len(), t.encoded_len());
            let (back, used) = Tuple::decode(&buf).unwrap();
            prop_assert_eq!(back, t);
            prop_assert_eq!(used, buf.len());
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Tuple::decode(&bytes); // must not panic
        }

        #[test]
        fn prop_sparse_dot_matches_densified(nnz in 0usize..16) {
            let indices: Vec<u32> = (0..nnz as u32).map(|i| i * 2).collect();
            let values: Vec<f32> = (0..nnz).map(|i| (i as f32) - 3.0).collect();
            let dim = (2 * nnz.max(1)) as u32;
            let s = FeatureVec::sparse(dim, indices, values);
            let dense: Vec<f32> = (0..dim as usize).map(|i| s.get(i)).collect();
            let d = FeatureVec::Dense(dense);
            let w: Vec<f32> = (0..dim as usize).map(|i| (i as f32) * 0.1 + 1.0).collect();
            prop_assert!((s.dot(&w) - d.dot(&w)).abs() < 1e-4);
        }
    }
}
