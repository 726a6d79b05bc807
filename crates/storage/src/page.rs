//! Slotted heap pages.
//!
//! PostgreSQL stores tuples in fixed-size (8 KB) slotted pages. We mirror
//! that: a [`Page`] holds a byte payload plus a slot directory mapping slot
//! number → byte offset. Tuples wider than a page (e.g. epsilon/yfcc-like
//! rows with thousands of dense features — which PostgreSQL would TOAST,
//! §7.1.5) are stored in a dedicated *jumbo* page whose byte size equals the
//! tuple size; the table layer accounts for the extra decompression cost
//! when TOAST emulation is enabled.

use crate::batch::TupleBatch;
use crate::error::StorageError;
use crate::tuple::Tuple;
use crate::Result;

/// Standard page size in bytes (PostgreSQL default: 8 KB).
pub const PAGE_SIZE: usize = 8192;

/// A slotted page of encoded tuples.
///
/// `data` is allocated at the page's full capacity up front (and again when
/// a page is cloned), so filling a page never reallocates: tables hold their
/// pages behind `Arc`s and copy a shared tail page on write, and growing
/// buffers by doubling would leave a trail of freed fragments per page.
#[derive(Debug, PartialEq)]
pub struct Page {
    /// Capacity in bytes. `PAGE_SIZE` for regular pages; larger for jumbo
    /// pages holding a single oversized tuple.
    capacity: usize,
    /// Concatenated tuple encodings.
    data: Vec<u8>,
    /// Byte offset of each tuple within `data`.
    slots: Vec<u32>,
}

impl Page {
    /// Create an empty page of standard size.
    pub fn new() -> Self {
        Page::with_capacity(PAGE_SIZE)
    }

    /// Create a jumbo page sized to hold exactly one tuple of `bytes` bytes.
    pub fn new_jumbo(bytes: usize) -> Self {
        Page::with_capacity(bytes.max(PAGE_SIZE))
    }

    fn with_capacity(capacity: usize) -> Self {
        Page {
            capacity,
            data: Vec::with_capacity(capacity),
            slots: Vec::new(),
        }
    }

    /// True if this page was allocated as a jumbo page.
    pub fn is_jumbo(&self) -> bool {
        self.capacity > PAGE_SIZE
    }

    /// Number of tuples on the page.
    pub fn tuple_count(&self) -> usize {
        self.slots.len()
    }

    /// Bytes currently used by tuple payloads (excluding the slot directory).
    pub fn used_bytes(&self) -> usize {
        self.data.len()
    }

    /// Free payload bytes remaining, accounting 4 bytes of slot overhead per
    /// stored tuple (mimicking PostgreSQL's line pointers).
    pub fn free_bytes(&self) -> usize {
        let overhead = 4 * (self.slots.len() + 1);
        self.capacity.saturating_sub(self.data.len() + overhead)
    }

    /// On-disk footprint of the page in bytes (its full capacity — heap
    /// pages are written whole regardless of fill factor).
    pub fn disk_bytes(&self) -> usize {
        self.capacity
    }

    /// Whether a tuple of `encoded_len` bytes fits in the remaining space.
    pub fn fits(&self, encoded_len: usize) -> bool {
        encoded_len <= self.free_bytes()
    }

    /// Append a tuple. Fails with [`StorageError::PageFull`] if it does not fit.
    pub fn push(&mut self, tuple: &Tuple) -> Result<()> {
        let len = tuple.encoded_len();
        if !self.fits(len) {
            return Err(StorageError::PageFull {
                needed: len,
                free: self.free_bytes(),
            });
        }
        self.slots.push(self.data.len() as u32);
        tuple.encode(&mut self.data);
        Ok(())
    }

    /// Decode the tuple in slot `slot`.
    pub fn tuple(&self, slot: usize) -> Result<Tuple> {
        let off = *self
            .slots
            .get(slot)
            .ok_or_else(|| StorageError::Corrupt(format!("slot {slot} out of range")))?
            as usize;
        Tuple::decode(&self.data[off..]).map(|(t, _)| t)
    }

    /// Decode every tuple on the page, in slot order, straight into `out`'s
    /// columns and feature arena.
    pub fn decode_into(&self, out: &mut TupleBatch) -> Result<()> {
        for &off in &self.slots {
            out.push_encoded(&self.data[off as usize..])?;
        }
        Ok(())
    }

    /// Iterate all tuples on the page in slot order.
    pub fn tuples(&self) -> PageTuples<'_> {
        PageTuples {
            page: self,
            next: 0,
        }
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        let mut data = Vec::with_capacity(self.capacity);
        data.extend_from_slice(&self.data);
        Page {
            capacity: self.capacity,
            data,
            slots: self.slots.clone(),
        }
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

/// Iterator over the tuples of a [`Page`].
pub struct PageTuples<'a> {
    page: &'a Page,
    next: usize,
}

impl Iterator for PageTuples<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.next >= self.page.tuple_count() {
            return None;
        }
        let t = self.page.tuple(self.next).expect("page self-consistency");
        self.next += 1;
        Some(t)
    }
}

impl ExactSizeIterator for PageTuples<'_> {
    fn len(&self) -> usize {
        self.page.tuple_count() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny(id: u64) -> Tuple {
        Tuple::dense(
            id,
            vec![id as f32, -1.0],
            if id.is_multiple_of(2) { 1.0 } else { -1.0 },
        )
    }

    #[test]
    fn push_and_read_back() {
        let mut p = Page::new();
        for id in 0..10 {
            p.push(&tiny(id)).unwrap();
        }
        assert_eq!(p.tuple_count(), 10);
        for id in 0..10 {
            assert_eq!(p.tuple(id as usize).unwrap(), tiny(id));
        }
        let all: Vec<_> = p.tuples().collect();
        assert_eq!(all.len(), 10);
        assert_eq!(all[3], tiny(3));
    }

    #[test]
    fn page_fills_up_and_rejects() {
        let mut p = Page::new();
        let t = Tuple::dense(0, vec![0.0; 64], 1.0); // 277 bytes encoded
        let mut n = 0;
        while p.fits(t.encoded_len()) {
            p.push(&t).unwrap();
            n += 1;
        }
        assert!(n > 10, "expected a few dozen tuples per page, got {n}");
        let err = p.push(&t).unwrap_err();
        assert!(matches!(err, StorageError::PageFull { .. }));
    }

    #[test]
    fn jumbo_page_holds_oversized_tuple() {
        let t = Tuple::dense(0, vec![1.0; 4000], 1.0); // ~16 KB > PAGE_SIZE
        assert!(t.encoded_len() > PAGE_SIZE);
        let mut p = Page::new_jumbo(t.encoded_len() + 8);
        assert!(p.is_jumbo());
        p.push(&t).unwrap();
        assert_eq!(p.tuple(0).unwrap(), t);
    }

    #[test]
    fn disk_bytes_is_capacity() {
        let p = Page::new();
        assert_eq!(p.disk_bytes(), PAGE_SIZE);
        let j = Page::new_jumbo(50_000);
        assert_eq!(j.disk_bytes(), 50_000);
    }

    #[test]
    fn out_of_range_slot_errors() {
        let p = Page::new();
        assert!(p.tuple(0).is_err());
    }

    #[test]
    fn exact_size_iterator_len() {
        let mut p = Page::new();
        for id in 0..5 {
            p.push(&tiny(id)).unwrap();
        }
        let mut it = p.tuples();
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
    }

    proptest! {
        #[test]
        fn prop_page_roundtrips_many_tuples(count in 1usize..40, width in 1usize..16) {
            let mut p = Page::new();
            let mut stored = Vec::new();
            for id in 0..count as u64 {
                let t = Tuple::dense(id, vec![id as f32; width], 1.0);
                if p.fits(t.encoded_len()) {
                    p.push(&t).unwrap();
                    stored.push(t);
                }
            }
            let got: Vec<_> = p.tuples().collect();
            prop_assert_eq!(got, stored);
        }

        #[test]
        fn prop_free_bytes_decreases_monotonically(count in 1usize..30) {
            let mut p = Page::new();
            let mut last = p.free_bytes();
            for id in 0..count as u64 {
                let t = tiny(id);
                if !p.fits(t.encoded_len()) { break; }
                p.push(&t).unwrap();
                let now = p.free_bytes();
                prop_assert!(now < last);
                last = now;
            }
        }
    }
}
