//! Columnar tuple batches: the unit the executor moves between operators.
//!
//! A [`TupleBatch`] owns its rows in three contiguous arrays instead of one
//! heap object per tuple:
//!
//! ```text
//!   rows    [RowHeader; rows]  id, label, dim, and the row's arena span
//!   values  [f32; Σ nnz]       the feature arena
//!   indices [u32; ≤ Σ nnz]     CSR column indices, parallel to `values`
//!                              for sparse rows only
//! ```
//!
//! Dense rows store values only. A sparse row additionally writes its
//! column indices at the same arena positions as its values; `indices` is
//! only ever extended up to the last sparse row, so an all-dense batch
//! never touches it. A row's scalar fields share one header so that a
//! random-order gather (the tuple shuffle) touches one header and one
//! arena span per row.
//!
//! Scans decode page bytes straight into a batch
//! ([`TupleBatch::push_encoded`]), operators filter in place
//! ([`TupleBatch::retain`]) and gather rows between batches
//! ([`TupleBatch::push_row`]), and models read rows as borrowed
//! [`RowRef`]s. `clear` keeps every allocation, so once an epoch has warmed
//! the capacities no further allocation happens; [`batch_grow_count`]
//! counts the reallocations that do.

use std::cell::Cell;
use std::ops::Range;

use crate::tuple::{le_f32s, le_u32s, Encoded, FeatureRef, RowRef, Tuple, TupleId};
use crate::Result;

thread_local! {
    static BATCH_GROWS: Cell<u64> = const { Cell::new(0) };
}

/// Thread-local count of [`TupleBatch`] backing-store reallocations.
///
/// A steady-state batch executor clears and refills the same batches every
/// epoch; once warm, this counter must stop moving. Tests snapshot it
/// before and after an epoch to assert zero steady-state allocations.
pub fn batch_grow_count() -> u64 {
    BATCH_GROWS.with(|c| c.get())
}

fn note_batch_grow() {
    BATCH_GROWS.with(|c| c.set(c.get() + 1));
}

/// Whether pushing `extra` more elements onto `v` reallocates it.
fn grows<T>(v: &Vec<T>, extra: usize) -> bool {
    v.capacity() - v.len() < extra
}

/// One row's scalar fields and its span of the feature arena.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RowHeader {
    id: TupleId,
    label: f32,
    /// Logical dimensionality (equals `nnz` for dense rows).
    dim: u32,
    /// First arena position of the row.
    start: u32,
    /// Stored components.
    nnz: u32,
    sparse: bool,
}

impl RowHeader {
    fn span(&self) -> Range<usize> {
        self.start as usize..(self.start + self.nnz) as usize
    }
}

/// A reusable, capacity-preserving columnar batch of tuples (see the
/// module docs for the layout).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TupleBatch {
    rows: Vec<RowHeader>,
    values: Vec<f32>,
    indices: Vec<u32>,
}

impl TupleBatch {
    /// An empty batch with no backing store yet.
    pub fn new() -> Self {
        TupleBatch::default()
    }

    /// Copy `tuples` into a fresh batch.
    pub fn from_tuples<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Self {
        let mut b = TupleBatch::new();
        for t in tuples {
            b.push_row(t.row());
        }
        b
    }

    /// Drop all rows but keep every allocation.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.values.clear();
        self.indices.clear();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Stored feature components across all rows (the arena length).
    pub fn arena_len(&self) -> usize {
        self.values.len()
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> RowRef<'_> {
        let h = &self.rows[i];
        let span = h.span();
        let features = if h.sparse {
            FeatureRef::Sparse {
                dim: h.dim,
                indices: &self.indices[span.clone()],
                values: &self.values[span],
            }
        } else {
            FeatureRef::Dense(&self.values[span])
        };
        RowRef {
            id: h.id,
            label: h.label,
            features,
        }
    }

    /// Tuple id of row `i` (without touching the arena).
    #[inline]
    pub fn id(&self, i: usize) -> TupleId {
        self.rows[i].id
    }

    /// All rows, in order.
    pub fn rows(&self) -> RowSlice<'_> {
        RowSlice {
            batch: self,
            start: 0,
            end: self.len(),
        }
    }

    /// Rows `range`, in order.
    pub fn slice(&self, range: Range<usize>) -> RowSlice<'_> {
        assert!(range.start <= range.end && range.end <= self.len());
        RowSlice {
            batch: self,
            start: range.start,
            end: range.end,
        }
    }

    /// Iterate the rows in order.
    pub fn iter(&self) -> RowIter<'_> {
        self.rows().iter()
    }

    /// Summed on-page encoding size of every row (Σ [`Tuple::encoded_len`]).
    pub fn encoded_bytes(&self) -> usize {
        (0..self.len()).map(|i| self.row(i).encoded_len()).sum()
    }

    /// Reserve room for `rows` more rows holding `arena` more components in
    /// total (no-op when the capacity is already there), counting a grow
    /// when it reallocates. Sparse rows may still grow `indices`.
    pub fn reserve(&mut self, rows: usize, arena: usize) {
        if grows(&self.rows, rows) || grows(&self.values, arena) {
            note_batch_grow();
            self.rows.reserve(rows);
            self.values.reserve(arena);
        }
    }

    /// Reserve room for one more row of `nnz` components.
    #[inline]
    fn reserve_row(&mut self, nnz: usize, sparse: bool) {
        let index_room = if sparse {
            (self.values.len() + nnz).saturating_sub(self.indices.len())
        } else {
            0
        };
        if grows(&self.rows, 1) || grows(&self.values, nnz) || grows(&self.indices, index_room) {
            note_batch_grow();
            self.rows.reserve(1);
            self.values.reserve(nnz);
            self.indices.reserve(index_room);
        }
    }

    /// Record the header of a row whose `nnz` components were just
    /// appended to the arena.
    #[inline]
    fn push_header(&mut self, id: TupleId, label: f32, dim: u32, nnz: usize, sparse: bool) {
        let end = u32::try_from(self.values.len()).expect("batch arena exceeds u32 positions");
        self.rows.push(RowHeader {
            id,
            label,
            dim,
            start: end - nnz as u32,
            nnz: nnz as u32,
            sparse,
        });
    }

    /// Append a copy of `row`.
    #[inline]
    pub fn push_row(&mut self, row: RowRef<'_>) {
        let nnz = row.features.nnz();
        match row.features {
            FeatureRef::Dense(v) => {
                self.reserve_row(nnz, false);
                self.values.extend_from_slice(v);
                self.push_header(row.id, row.label, nnz as u32, nnz, false);
            }
            FeatureRef::Sparse {
                dim,
                indices,
                values,
            } => {
                self.reserve_row(nnz, true);
                self.indices.resize(self.values.len(), 0);
                self.indices.extend_from_slice(indices);
                self.values.extend_from_slice(values);
                self.push_header(row.id, row.label, dim, nnz, true);
            }
        }
    }

    /// Append the dense row `⟨id, values, label⟩`.
    pub fn push_dense(
        &mut self,
        id: TupleId,
        values: impl ExactSizeIterator<Item = f32>,
        label: f32,
    ) {
        let nnz = values.len();
        self.reserve_row(nnz, false);
        self.values.extend(values);
        self.push_header(id, label, nnz as u32, nnz, false);
    }

    /// Decode the tuple encoded at the front of `buf` (see
    /// [`Tuple::encode`]) straight into the arena, returning the bytes
    /// consumed. No per-row allocation.
    pub fn push_encoded(&mut self, buf: &[u8]) -> Result<usize> {
        let enc = Encoded::parse(buf)?;
        let nnz = enc.values.len() / 4;
        self.reserve_row(nnz, enc.sparse);
        let dim = if enc.sparse {
            self.indices.resize(self.values.len(), 0);
            self.indices.extend(le_u32s(enc.indices));
            enc.dim
        } else {
            nnz as u32
        };
        self.values.extend(le_f32s(enc.values));
        self.push_header(enc.id, enc.label, dim, nnz, enc.sparse);
        Ok(enc.len)
    }

    /// Keep only the rows `keep` accepts, compacting in place (order
    /// preserved, no allocation). Returns the number of rows dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(RowRef<'_>) -> bool) -> usize {
        let n = self.len();
        let mut kept = 0usize;
        let mut arena = 0usize;
        for i in 0..n {
            if !keep(self.row(i)) {
                continue;
            }
            // Kept rows move down to slot `kept` and arena position
            // `arena`, both at or before row i's own, so rows not yet
            // visited are never overwritten.
            let mut h = self.rows[i];
            let span = h.span();
            if arena != span.start {
                self.values.copy_within(span.clone(), arena);
                if h.sparse {
                    self.indices.copy_within(span, arena);
                }
                h.start = arena as u32;
            }
            self.rows[kept] = h;
            arena += h.nnz as usize;
            kept += 1;
        }
        self.rows.truncate(kept);
        self.values.truncate(arena);
        self.indices.truncate(arena);
        n - kept
    }
}

/// A borrowed run of consecutive rows of one [`TupleBatch`]: what the
/// models' batch kernels train and predict over.
#[derive(Debug, Clone, Copy)]
pub struct RowSlice<'a> {
    batch: &'a TupleBatch,
    start: usize,
    end: usize,
}

impl<'a> RowSlice<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Iterate the rows in order.
    pub fn iter(&self) -> RowIter<'a> {
        RowIter {
            batch: self.batch,
            next: self.start,
            end: self.end,
        }
    }
}

impl<'a> IntoIterator for RowSlice<'a> {
    type Item = RowRef<'a>;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a TupleBatch {
    type Item = RowRef<'a>;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// Iterator over the rows of a [`RowSlice`].
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    batch: &'a TupleBatch,
    next: usize,
    end: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = RowRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<RowRef<'a>> {
        if self.next >= self.end {
            return None;
        }
        let r = self.batch.row(self.next);
        self.next += 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::FeatureVec;

    fn tuples(b: &TupleBatch) -> Vec<Tuple> {
        b.iter().map(|r| r.to_tuple()).collect()
    }

    fn mixed() -> Vec<Tuple> {
        vec![
            Tuple::dense(0, vec![1.0, 2.0, 3.0], 1.0),
            Tuple::sparse(1, 10, vec![2, 7], vec![0.5, -1.5], -1.0),
            Tuple::dense(2, vec![], 0.0),
            Tuple::dense(3, vec![4.0, 5.0], 2.0),
            Tuple::sparse(4, 6, vec![0, 1, 5], vec![1.0, 2.0, 3.0], 1.0),
        ]
    }

    #[test]
    fn rows_roundtrip_dense_and_sparse() {
        let ts = mixed();
        let b = TupleBatch::from_tuples(&ts);
        assert_eq!(b.len(), 5);
        assert_eq!(tuples(&b), ts);
        assert_eq!(
            b.encoded_bytes(),
            ts.iter().map(|t| t.encoded_len()).sum::<usize>()
        );
        assert_eq!(b.row(1).features.dim(), 10);
        assert_eq!(b.row(3).features, FeatureRef::Dense(&[4.0, 5.0]));
    }

    #[test]
    fn push_encoded_matches_tuple_decode() {
        let ts = mixed();
        let mut bytes = Vec::new();
        for t in &ts {
            t.encode(&mut bytes);
        }
        let mut b = TupleBatch::new();
        let mut off = 0;
        while off < bytes.len() {
            off += b.push_encoded(&bytes[off..]).unwrap();
        }
        assert_eq!(tuples(&b), ts);
        assert!(b.push_encoded(&bytes[..5]).is_err());
    }

    #[test]
    fn retain_compacts_in_place() {
        let ts = mixed();
        let mut b = TupleBatch::from_tuples(&ts);
        let dropped = b.retain(|r| r.id % 2 == 1 || r.id == 4);
        assert_eq!(dropped, 2);
        let want: Vec<Tuple> = ts
            .iter()
            .filter(|t| t.id == 1 || t.id == 3 || t.id == 4)
            .cloned()
            .collect();
        assert_eq!(tuples(&b), want);
        b.push_row(ts[0].row());
        assert_eq!(b.row(3).to_tuple(), ts[0]);
        assert_eq!(b.retain(|_| false), 4);
        assert!(b.is_empty() && b.arena_len() == 0);
    }

    #[test]
    fn clear_keeps_capacity_and_warm_refills_do_not_grow() {
        let ts: Vec<Tuple> = (0..64)
            .map(|i| Tuple::dense(i, vec![i as f32; 5], 1.0))
            .collect();
        let mut b = TupleBatch::new();
        let cold = batch_grow_count();
        for t in &ts {
            b.push_row(t.row());
        }
        assert!(batch_grow_count() > cold, "cold fills must grow");
        b.clear();
        assert!(b.is_empty());
        let warm = batch_grow_count();
        for t in &ts {
            b.push_row(t.row());
        }
        assert_eq!(batch_grow_count(), warm, "warm refill must not allocate");
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn slices_and_copy_into_reuse_buffers() {
        let ts = mixed();
        let b = TupleBatch::from_tuples(&ts);
        let s = b.slice(1..4);
        assert_eq!(s.len(), 3);
        let ids: Vec<u64> = s.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        let mut x = FeatureVec::Dense(Vec::new());
        for (r, t) in b.iter().zip(&ts) {
            r.features.copy_into(&mut x);
            assert_eq!(x, t.features);
        }
    }
}
