//! Heap tables: pages + blocks + cost-charged access paths.
//!
//! A [`Table`] is an append-only sequence of slotted pages carved into
//! blocks of roughly `block_bytes` each. All read paths charge a
//! [`SimDevice`] so experiments can account simulated I/O time:
//!
//! * [`Table::scan_block_sequential`] — the No-Shuffle path: blocks read in
//!   order at sequential bandwidth;
//! * [`Table::read_block`] — the CorgiPile path: one seek + block transfer;
//! * [`Table::read_tuple_random`] — the full-shuffle path: one seek + page
//!   transfer per tuple (this is what makes Shuffle Once so expensive);
//! * [`Table::materialize_reordered`] — Shuffle Once's offline shuffle,
//!   modeled as a two-pass external sort (read + write, twice) plus 2×
//!   storage, matching the paper's observations (§3.1, Table 1).

use crate::batch::TupleBatch;
use crate::block::{plan_blocks, BlockId, BlockMeta};
use crate::device::{Access, SimDevice};
use crate::error::StorageError;
use crate::page::{Page, PAGE_SIZE};
use crate::retry::RetryPolicy;
use crate::tuple::{Tuple, TupleId};
use crate::Result;
use std::sync::Arc;

/// Default block size: 10 MB (the paper's recommended sweet spot, §7.3.4).
pub const DEFAULT_BLOCK_BYTES: usize = 10 << 20;

/// Configuration of a heap table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableConfig {
    /// Table name (for the DB catalog).
    pub name: String,
    /// Numeric id, used to derive cache keys. Must be unique per device.
    pub table_id: u32,
    /// Target block size in bytes.
    pub block_bytes: usize,
    /// Tuples whose encoding exceeds this are considered TOASTed
    /// (compressed out-of-line); reading them is throughput-capped.
    pub toast_threshold: usize,
    /// Effective throughput cap (bytes/s) for TOASTed content — the paper
    /// measures ~130 MB/s for yfcc on both HDD and SSD (§7.3.4).
    pub toast_cap: f64,
}

impl TableConfig {
    /// A config with paper-default parameters.
    pub fn new(name: impl Into<String>, table_id: u32) -> Self {
        TableConfig {
            name: name.into(),
            table_id,
            block_bytes: DEFAULT_BLOCK_BYTES,
            toast_threshold: PAGE_SIZE / 2,
            toast_cap: 130e6,
        }
    }

    /// Override the block size.
    pub fn with_block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = bytes;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.block_bytes == 0 {
            return Err(StorageError::InvalidConfig(
                "block_bytes must be > 0".into(),
            ));
        }
        Ok(())
    }
}

/// Incrementally builds a [`Table`] from a tuple stream.
///
/// Pages are held behind `Arc`s: a [`TableBuilder::snapshot`] shares every
/// page with the builder, and the builder's next append copies the shared
/// tail page on write ([`Arc::make_mut`]) — so sealed pages are never
/// copied, and each publish copies at most one page.
#[derive(Debug)]
pub struct TableBuilder {
    config: TableConfig,
    pages: Vec<Arc<Page>>,
    tuple_count: u64,
    any_toast: bool,
}

impl TableBuilder {
    /// Start building a table.
    pub fn new(config: TableConfig) -> Result<Self> {
        config.validate()?;
        Ok(TableBuilder {
            config,
            pages: Vec::new(),
            tuple_count: 0,
            any_toast: false,
        })
    }

    /// Append one tuple (placed on the current page, a fresh page, or a
    /// jumbo page if oversized).
    pub fn append(&mut self, tuple: &Tuple) -> Result<()> {
        let len = tuple.encoded_len();
        if len > self.config.toast_threshold {
            self.any_toast = true;
        }
        let fits_current = self.pages.last().map(|p| p.fits(len)).unwrap_or(false);
        if !fits_current {
            let mut fresh = Page::new();
            if !fresh.fits(len) {
                fresh = Page::new_jumbo(len + 16);
            }
            self.pages.push(Arc::new(fresh));
        }
        let tail = self.pages.last_mut().expect("page pushed above");
        Arc::make_mut(tail).push(tuple)?;
        self.tuple_count += 1;
        Ok(())
    }

    /// Re-open a finished table for further appends. The builder shares
    /// the table's pages (a pointer copy each) and copies the tail page on
    /// its first append, so the table itself stays immutable — this is how
    /// [`AppendableTable`](crate::AppendableTable) seeds its writer from the
    /// currently-registered snapshot.
    pub fn from_table(table: &Table) -> TableBuilder {
        TableBuilder {
            config: table.config.clone(),
            pages: table.pages.clone(),
            tuple_count: table.tuple_count,
            any_toast: table.any_toast,
        }
    }

    /// Tuples appended so far.
    pub fn tuple_count(&self) -> u64 {
        self.tuple_count
    }

    /// Target block size this builder plans blocks against.
    pub fn block_bytes(&self) -> usize {
        self.config.block_bytes
    }

    /// Plan block boundaries over the current pages without consuming the
    /// builder: an immutable point-in-time [`Table`] under `table_id` that
    /// shares the builder's pages. Appends continue underneath it — the
    /// builder copies the shared tail page before writing to it, so the
    /// snapshot never sees a later row.
    pub fn snapshot(&self, table_id: u32) -> Table {
        let mut config = self.config.clone();
        config.table_id = table_id;
        Table::plan(config, self.pages.clone(), self.tuple_count, self.any_toast)
    }

    /// Finish: plan block boundaries and seal the table.
    pub fn finish(self) -> Table {
        Table::plan(self.config, self.pages, self.tuple_count, self.any_toast)
    }
}

/// An immutable heap table.
///
/// Its pages are shared (`Arc`) with every other version of the same table
/// — earlier and later snapshots, a re-chunked copy, the writer's builder —
/// so cloning a table copies one pointer per page, never page bytes.
#[derive(Debug, Clone)]
pub struct Table {
    config: TableConfig,
    pages: Vec<Arc<Page>>,
    blocks: Vec<BlockMeta>,
    tuple_count: u64,
    total_bytes: usize,
    any_toast: bool,
}

impl Table {
    /// Seal `pages` into a table: plan its blocks against
    /// `config.block_bytes`.
    fn plan(
        config: TableConfig,
        pages: Vec<Arc<Page>>,
        tuple_count: u64,
        any_toast: bool,
    ) -> Table {
        let page_bytes: Vec<usize> = pages.iter().map(|p| p.disk_bytes()).collect();
        let page_tuples: Vec<usize> = pages.iter().map(|p| p.tuple_count()).collect();
        let blocks = plan_blocks(&page_bytes, &page_tuples, config.block_bytes);
        let total_bytes = page_bytes.iter().sum();
        Table {
            config,
            pages,
            blocks,
            tuple_count,
            total_bytes,
            any_toast,
        }
    }

    /// Build a table from an iterator of tuples.
    pub fn from_tuples<I>(config: TableConfig, tuples: I) -> Result<Table>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut b = TableBuilder::new(config)?;
        for t in tuples {
            b.append(&t)?;
        }
        Ok(b.finish())
    }

    /// Table configuration.
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    /// Number of tuples.
    pub fn num_tuples(&self) -> u64 {
        self.tuple_count
    }

    /// Number of blocks (the paper's `N`).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// On-disk size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Average tuples per block (the paper's `b`).
    pub fn tuples_per_block(&self) -> f64 {
        if self.blocks.is_empty() {
            0.0
        } else {
            self.tuple_count as f64 / self.blocks.len() as f64
        }
    }

    /// Whether any tuple is TOASTed (throughput-capped on read).
    pub fn is_toasted(&self) -> bool {
        self.any_toast
    }

    /// Block metadata.
    pub fn block(&self, id: BlockId) -> Result<&BlockMeta> {
        self.blocks.get(id).ok_or(StorageError::BlockOutOfRange {
            block: id,
            blocks: self.blocks.len(),
        })
    }

    /// All block metadata in table order.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    fn cache_key(&self, block: BlockId) -> u64 {
        ((self.config.table_id as u64) << 32) | block as u64
    }

    fn toast_cap(&self) -> Option<f64> {
        if self.any_toast {
            Some(self.config.toast_cap)
        } else {
            None
        }
    }

    /// Decode the tuples of a block without charging any device (used by
    /// in-memory tooling and tests).
    pub fn block_tuples(&self, id: BlockId) -> Result<Vec<Tuple>> {
        let meta = self.block(id)?.clone();
        let mut out = Vec::with_capacity(meta.tuple_count());
        for p in &self.pages[meta.pages.clone()] {
            out.extend(p.tuples());
        }
        Ok(out)
    }

    /// Decode the tuples of a block into `out` (appending; no device
    /// charge). The columnar counterpart of [`Table::block_tuples`].
    pub fn decode_block_into(&self, id: BlockId, out: &mut TupleBatch) -> Result<()> {
        let pages = self.block(id)?.pages.clone();
        for p in &self.pages[pages] {
            p.decode_into(out)?;
        }
        Ok(())
    }

    /// Charge one block read to `dev`: `Random` is one seek + transfer (the
    /// CorgiPile primitive), `Sequential` streams at sequential bandwidth.
    /// Goes through the device's fault injector, so it can fail with a
    /// retryable error.
    fn charge_block(&self, id: BlockId, access: Access, dev: &mut SimDevice) -> Result<()> {
        let meta = self.block(id)?;
        dev.read_guarded(
            self.config.table_id,
            id,
            meta.bytes,
            access,
            self.toast_cap(),
        )?;
        Ok(())
    }

    /// Access of the `first`-or-not block of an in-order sequential scan:
    /// the first block pays a seek, later ones stream.
    fn scan_access(first: bool) -> Access {
        if first {
            Access::Random
        } else {
            Access::Sequential
        }
    }

    /// Read a block with random access: one seek + transfer of the block's
    /// bytes. This is CorgiPile's I/O primitive. Goes through the device's
    /// fault injector (if any) and can therefore fail with a retryable
    /// error; see [`Table::read_block_retry`].
    pub fn read_block(&self, id: BlockId, dev: &mut SimDevice) -> Result<Vec<Tuple>> {
        self.charge_block(id, Access::Random, dev)?;
        self.block_tuples(id)
    }

    /// Read a block as part of an in-order sequential scan: the first block
    /// pays a seek, subsequent blocks stream at sequential bandwidth. This
    /// is the No-Shuffle I/O primitive.
    pub fn scan_block_sequential(
        &self,
        id: BlockId,
        first: bool,
        dev: &mut SimDevice,
    ) -> Result<Vec<Tuple>> {
        self.charge_block(id, Self::scan_access(first), dev)?;
        self.block_tuples(id)
    }

    /// [`Table::read_block`] with bounded exponential-backoff retries.
    ///
    /// Each retry charges its backoff interval to the simulated clock, so
    /// fault tolerance has a visible I/O cost. When the policy is exhausted
    /// the final error is a [`StorageError::ReadFailed`] carrying the total
    /// attempt count; non-retryable errors surface immediately.
    pub fn read_block_retry(
        &self,
        id: BlockId,
        dev: &mut SimDevice,
        policy: &RetryPolicy,
    ) -> Result<Vec<Tuple>> {
        retry_block_read(id, dev, policy, |dev| {
            self.charge_block(id, Access::Random, dev)
        })?;
        self.block_tuples(id)
    }

    /// [`Table::scan_block_sequential`] with bounded retries (see
    /// [`Table::read_block_retry`]).
    pub fn scan_block_sequential_retry(
        &self,
        id: BlockId,
        first: bool,
        dev: &mut SimDevice,
        policy: &RetryPolicy,
    ) -> Result<Vec<Tuple>> {
        let access = Self::scan_access(first);
        retry_block_read(id, dev, policy, |dev| self.charge_block(id, access, dev))?;
        self.block_tuples(id)
    }

    /// [`Table::read_block_retry`], decoding into `out` (appending) instead
    /// of allocating one object per tuple.
    pub fn read_block_retry_into(
        &self,
        id: BlockId,
        dev: &mut SimDevice,
        policy: &RetryPolicy,
        out: &mut TupleBatch,
    ) -> Result<()> {
        retry_block_read(id, dev, policy, |dev| {
            self.charge_block(id, Access::Random, dev)
        })?;
        self.decode_block_into(id, out)
    }

    /// [`Table::scan_block_sequential_retry`], decoding into `out`
    /// (appending).
    pub fn scan_block_sequential_retry_into(
        &self,
        id: BlockId,
        first: bool,
        dev: &mut SimDevice,
        policy: &RetryPolicy,
        out: &mut TupleBatch,
    ) -> Result<()> {
        let access = Self::scan_access(first);
        retry_block_read(id, dev, policy, |dev| self.charge_block(id, access, dev))?;
        self.decode_block_into(id, out)
    }

    /// Full sequential scan of the table, charging the device.
    pub fn scan_all(&self, dev: &mut SimDevice) -> Result<Vec<Tuple>> {
        let mut out = Vec::with_capacity(self.tuple_count as usize);
        for id in 0..self.num_blocks() {
            out.extend(self.scan_block_sequential(id, id == 0, dev)?);
        }
        Ok(out)
    }

    /// Locate the block and page holding tuple `tid`.
    fn locate(&self, tid: TupleId) -> Result<(BlockId, usize)> {
        if tid >= self.tuple_count {
            return Err(StorageError::Corrupt(format!(
                "tuple {tid} out of range ({} tuples)",
                self.tuple_count
            )));
        }
        let block = self.blocks.partition_point(|b| b.tuples.end <= tid);
        // Find the page within the block.
        let meta = &self.blocks[block];
        let mut first_on_page = meta.tuples.start;
        for p in meta.pages.clone() {
            let cnt = self.pages[p].tuple_count() as u64;
            if tid < first_on_page + cnt {
                return Ok((block, p));
            }
            first_on_page += cnt;
        }
        Err(StorageError::Corrupt(format!(
            "tuple {tid} not found in block {block}"
        )))
    }

    /// Read a single tuple by position with random access: one seek + one
    /// page transfer. The full-shuffle access pattern (map-style dataset on
    /// secondary storage).
    pub fn read_tuple_random(&self, tid: TupleId, dev: &mut SimDevice) -> Result<Tuple> {
        let (block, page) = self.locate(tid)?;
        dev.read(
            Some(self.cache_key(block)),
            self.pages[page].disk_bytes(),
            Access::Random,
            self.toast_cap(),
        );
        self.get_tuple(tid)
    }

    /// Decode a tuple by position without charging a device.
    pub fn get_tuple(&self, tid: TupleId) -> Result<Tuple> {
        let (_, page) = self.locate(tid)?;
        let first_on_page: u64 = self.pages[..page]
            .iter()
            .map(|p| p.tuple_count() as u64)
            .sum();
        self.pages[page].tuple((tid - first_on_page) as usize)
    }

    /// All tuples in table order, without device charges.
    pub fn all_tuples(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.tuple_count as usize);
        for p in &self.pages {
            out.extend(p.tuples());
        }
        out
    }

    /// Re-plan the block boundaries with a new block size. Only metadata is
    /// new: the pages are shared with `self` (one pointer copy per page).
    /// Used by the SQL surface's `block_size = …` parameter (§6.1).
    pub fn rechunk(&self, block_bytes: usize) -> Result<Table> {
        let mut config = self.config.clone();
        config.block_bytes = block_bytes;
        config.validate()?;
        Ok(Table::plan(
            config,
            self.pages.clone(),
            self.tuple_count,
            self.any_toast,
        ))
    }

    /// Materialize a reordered copy (Shuffle Once's offline shuffle).
    ///
    /// Cost model: a two-pass external sort over the table — read + write of
    /// the full data set twice at sequential bandwidth — which matches the
    /// `ORDER BY RANDOM()` plan PostgreSQL uses for MADlib/Bismarck's
    /// pre-shuffle (§7.3.1), and the new copy doubles the storage footprint
    /// (Table 1 "2× data size").
    ///
    /// `order[k]` gives the position in `self` of the tuple that lands at
    /// position `k` of the copy. Tuple `id`s are preserved so order
    /// diagnostics still see original positions.
    pub fn materialize_reordered(
        &self,
        order: &[TupleId],
        new_name: impl Into<String>,
        new_table_id: u32,
        dev: &mut SimDevice,
    ) -> Result<Table> {
        assert_eq!(
            order.len() as u64,
            self.tuple_count,
            "order must be a permutation"
        );
        // Two passes of read+write at sequential bandwidth.
        for _pass in 0..2 {
            dev.read(None, self.total_bytes, Access::Random, self.toast_cap());
            dev.write(self.total_bytes, Access::Sequential);
        }
        let mut cfg = self.config.clone();
        cfg.name = new_name.into();
        cfg.table_id = new_table_id;
        let mut b = TableBuilder::new(cfg)?;
        for &tid in order {
            b.append(&self.get_tuple(tid)?)?;
        }
        Ok(b.finish())
    }
}

/// Run `read` under `policy`: retryable failures back off (charged to the
/// simulated clock) and retry; exhaustion wraps the last error in
/// [`StorageError::ReadFailed`] with the total attempt count.
fn retry_block_read<F>(
    block: BlockId,
    dev: &mut SimDevice,
    policy: &RetryPolicy,
    mut read: F,
) -> Result<()>
where
    F: FnMut(&mut SimDevice) -> Result<()>,
{
    let mut attempt = 0u32;
    loop {
        match read(dev) {
            Ok(()) => return Ok(()),
            Err(e) if e.is_retryable() && attempt < policy.max_retries => {
                dev.charge_seconds(policy.backoff(attempt));
                dev.note_retry();
                attempt += 1;
            }
            Err(e) if e.is_retryable() => {
                return Err(StorageError::ReadFailed {
                    block,
                    attempts: attempt + 1,
                    message: e.to_string(),
                });
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn make_table(n: u64, width: usize, block_bytes: usize) -> Table {
        let cfg = TableConfig::new("t", 1).with_block_bytes(block_bytes);
        Table::from_tuples(
            cfg,
            (0..n).map(|id| {
                Tuple::dense(
                    id,
                    vec![id as f32; width],
                    if id % 2 == 0 { 1.0 } else { -1.0 },
                )
            }),
        )
        .unwrap()
    }

    #[test]
    fn build_and_count() {
        let t = make_table(1000, 8, 4 * PAGE_SIZE);
        assert_eq!(t.num_tuples(), 1000);
        assert!(t.num_pages() > 1);
        assert!(t.num_blocks() > 1);
        assert!(t.tuples_per_block() > 0.0);
        assert!(!t.is_toasted());
    }

    #[test]
    fn blocks_cover_all_tuples_in_order() {
        let t = make_table(500, 4, 2 * PAGE_SIZE);
        let mut seen = Vec::new();
        for b in 0..t.num_blocks() {
            seen.extend(t.block_tuples(b).unwrap().into_iter().map(|tp| tp.id));
        }
        let expect: Vec<u64> = (0..500).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn get_tuple_by_position() {
        let t = make_table(300, 4, 2 * PAGE_SIZE);
        for tid in [0u64, 1, 99, 157, 299] {
            assert_eq!(t.get_tuple(tid).unwrap().id, tid);
        }
        assert!(t.get_tuple(300).is_err());
    }

    #[test]
    fn sequential_scan_cheaper_than_block_random_cheaper_than_tuple_random() {
        let t = make_table(5000, 16, 64 * PAGE_SIZE);
        let mut d1 = SimDevice::hdd(0);
        t.scan_all(&mut d1).unwrap();
        let seq = d1.stats().io_seconds;

        let mut d2 = SimDevice::hdd(0);
        for b in 0..t.num_blocks() {
            t.read_block(b, &mut d2).unwrap();
        }
        let blk = d2.stats().io_seconds;

        let mut d3 = SimDevice::hdd(0);
        for tid in 0..t.num_tuples() {
            t.read_tuple_random(tid, &mut d3).unwrap();
        }
        let tup = d3.stats().io_seconds;

        assert!(
            seq <= blk,
            "sequential {seq} should be <= block-random {blk}"
        );
        assert!(
            blk < tup / 50.0,
            "block-random {blk} should be ≪ tuple-random {tup}"
        );
    }

    #[test]
    fn cache_makes_second_epoch_fast() {
        let t = make_table(2000, 16, 16 * PAGE_SIZE);
        let mut dev = SimDevice::hdd(t.total_bytes() * 2);
        t.scan_all(&mut dev).unwrap();
        let first = dev.stats().io_seconds;
        t.scan_all(&mut dev).unwrap();
        let second = dev.stats().io_seconds - first;
        assert!(
            second < first / 10.0,
            "cached epoch {second} not ≪ cold epoch {first}"
        );
    }

    #[test]
    fn toast_detection_and_cap() {
        let cfg = TableConfig::new("wide", 2).with_block_bytes(1 << 20);
        let t = Table::from_tuples(
            cfg,
            (0..20u64).map(|id| Tuple::dense(id, vec![1.0; 4096], 1.0)),
        )
        .unwrap();
        assert!(t.is_toasted());
        let mut ssd = SimDevice::ssd(0);
        t.scan_all(&mut ssd).unwrap();
        let capped = ssd.stats().io_seconds;
        // At 130MB/s cap the time must exceed raw SSD time by ~7x.
        let raw = t.total_bytes() as f64 / 1e9;
        assert!(
            capped > 5.0 * raw,
            "TOAST cap not applied: {capped} vs raw {raw}"
        );
    }

    #[test]
    fn materialize_reordered_preserves_ids_and_charges_io() {
        let t = make_table(200, 4, 2 * PAGE_SIZE);
        let mut order: Vec<u64> = (0..200).rev().collect();
        let mut dev = SimDevice::hdd(0);
        let t2 = t
            .materialize_reordered(&order, "t_shuffled", 9, &mut dev)
            .unwrap();
        assert_eq!(t2.num_tuples(), 200);
        assert_eq!(t2.get_tuple(0).unwrap().id, 199);
        assert_eq!(t2.get_tuple(199).unwrap().id, 0);
        assert!(dev.stats().io_seconds > 0.0);
        assert!(dev.stats().written_bytes as usize >= 2 * t.total_bytes());
        order.clear(); // silence unused-mut lint paranoia
    }

    #[test]
    fn block_out_of_range() {
        let t = make_table(10, 2, PAGE_SIZE);
        assert!(matches!(
            t.block(999),
            Err(StorageError::BlockOutOfRange { .. })
        ));
    }

    #[test]
    fn rechunk_replans_blocks() {
        let t = make_table(500, 4, 2 * PAGE_SIZE);
        let before = t.num_blocks();
        let finer = t.rechunk(PAGE_SIZE).unwrap();
        assert!(finer.num_blocks() > before);
        assert_eq!(finer.num_tuples(), 500);
        assert_eq!(finer.all_tuples(), t.all_tuples());
        assert!(t.rechunk(0).is_err());
        // Tuple ranges still partition.
        let mut next = 0u64;
        for b in finer.blocks() {
            assert_eq!(b.tuples.start, next);
            next = b.tuples.end;
        }
        assert_eq!(next, 500);
    }

    #[test]
    fn zero_block_size_rejected() {
        let cfg = TableConfig::new("bad", 0).with_block_bytes(0);
        assert!(TableBuilder::new(cfg).is_err());
    }

    #[test]
    fn retry_recovers_from_transient_faults_and_charges_backoff() {
        use crate::fault::FaultPlan;
        let t = make_table(400, 4, 4 * PAGE_SIZE);
        let policy = RetryPolicy::default();

        let mut faulty = SimDevice::hdd(0);
        faulty.set_fault_plan(FaultPlan::new(5).with_transient(1, 0, 2));
        let got = t.read_block_retry(0, &mut faulty, &policy).unwrap();

        let mut clean = SimDevice::hdd(0);
        let want = t.read_block_retry(0, &mut clean, &policy).unwrap();
        assert_eq!(got, want, "recovered read must return the same tuples");
        // Two failed attempts: two backoffs plus two wasted seeks.
        let overhead = faulty.stats().io_seconds - clean.stats().io_seconds;
        let expected = policy.total_backoff(2) + 2.0 * clean.profile().seek_latency_s;
        assert!(
            (overhead - expected).abs() < 1e-9,
            "retry cost {overhead} should be {expected}"
        );
        assert_eq!(faulty.stats().retries, 2, "one retry per failed attempt");
        assert_eq!(faulty.stats().faults, 2);
        assert_eq!(clean.stats().retries, 0);
    }

    #[test]
    fn retry_exhaustion_reports_attempts() {
        use crate::fault::FaultPlan;
        let t = make_table(2000, 8, 2 * PAGE_SIZE);
        assert!(t.num_blocks() > 1, "test needs a healthy second block");
        let mut dev = SimDevice::hdd(0);
        dev.set_fault_plan(FaultPlan::new(5).with_permanent(1, 0));
        let policy = RetryPolicy::with_max_retries(3);
        match t.read_block_retry(0, &mut dev, &policy) {
            Err(StorageError::ReadFailed {
                block, attempts, ..
            }) => {
                assert_eq!(block, 0);
                assert_eq!(attempts, 4, "1 try + 3 retries");
            }
            other => panic!("expected exhausted retries, got {other:?}"),
        }
        // Non-faulty blocks still read fine on the same device.
        assert!(t.read_block_retry(1, &mut dev, &policy).is_ok());
    }

    #[test]
    fn retry_does_not_mask_out_of_range() {
        let t = make_table(10, 2, PAGE_SIZE);
        let mut dev = SimDevice::in_memory();
        assert!(matches!(
            t.read_block_retry(999, &mut dev, &RetryPolicy::default()),
            Err(StorageError::BlockOutOfRange { .. })
        ));
    }

    #[test]
    fn sequential_retry_matches_plain_scan_when_fault_free() {
        let t = make_table(300, 4, 2 * PAGE_SIZE);
        let mut a = SimDevice::hdd(0);
        let mut b = SimDevice::hdd(0);
        let policy = RetryPolicy::default();
        for id in 0..t.num_blocks() {
            let x = t.scan_block_sequential(id, id == 0, &mut a).unwrap();
            let y = t
                .scan_block_sequential_retry(id, id == 0, &mut b, &policy)
                .unwrap();
            assert_eq!(x, y);
        }
        assert_eq!(a.stats(), b.stats());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Snapshots taken between random-sized appends (mid-page, across
        /// block seals, around a jumbo tuple) stay exactly what they were
        /// when taken, and consecutive snapshots share their sealed pages
        /// rather than copying them.
        #[test]
        fn prop_snapshots_are_isolated_and_share_sealed_pages(
            ops in proptest::collection::vec((0usize..120, any::<bool>(), any::<bool>()), 1..16)
        ) {
            let cfg = TableConfig::new("t", 1).with_block_bytes(2 * PAGE_SIZE);
            let mut b = TableBuilder::new(cfg.clone()).unwrap();
            let mut appended: Vec<Tuple> = Vec::new();
            let mut snaps: Vec<Table> = Vec::new();
            for (i, &(batch, jumbo, snap)) in ops.iter().enumerate() {
                for k in 0..batch {
                    let id = appended.len() as u64;
                    let width = if jumbo && k == batch / 2 { 4096 } else { 6 };
                    let t = Tuple::dense(id, vec![id as f32; width], 1.0);
                    b.append(&t).unwrap();
                    appended.push(t);
                }
                if !snap && i + 1 < ops.len() {
                    continue;
                }
                let next = b.snapshot(i as u32 + 2);
                prop_assert_eq!(next.config().table_id, i as u32 + 2);
                if let Some(prev) = snaps.last() {
                    let sealed = prev.pages.len().saturating_sub(1);
                    for (p, q) in prev.pages[..sealed].iter().zip(&next.pages) {
                        prop_assert!(Arc::ptr_eq(p, q), "sealed page copied by a publish");
                    }
                }
                snaps.push(next);
            }
            for snap in &snaps {
                let n = snap.num_tuples() as usize;
                let fresh = Table::from_tuples(cfg.clone(), appended[..n].iter().cloned()).unwrap();
                prop_assert_eq!(snap.all_tuples(), appended[..n].to_vec());
                prop_assert_eq!(snap.num_blocks(), fresh.num_blocks());
                prop_assert_eq!(snap.total_bytes(), fresh.total_bytes());
                prop_assert_eq!(snap.blocks(), fresh.blocks());
            }
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip_all_tuples(n in 1u64..400, width in 1usize..12, blk_pages in 1usize..6) {
            let t = make_table(n, width, blk_pages * PAGE_SIZE);
            let all = t.all_tuples();
            prop_assert_eq!(all.len() as u64, n);
            for (i, tp) in all.iter().enumerate() {
                prop_assert_eq!(tp.id, i as u64);
            }
        }

        #[test]
        fn prop_locate_consistent_with_block_ranges(n in 1u64..300) {
            let t = make_table(n, 4, 2 * PAGE_SIZE);
            for tid in 0..n {
                let tp = t.get_tuple(tid).unwrap();
                prop_assert_eq!(tp.id, tid);
            }
            // Every block's tuple range matches its decoded contents.
            for b in 0..t.num_blocks() {
                let meta = t.block(b).unwrap().clone();
                let tuples = t.block_tuples(b).unwrap();
                prop_assert_eq!(tuples.len(), meta.tuple_count());
                if let Some(first) = tuples.first() {
                    prop_assert_eq!(first.id, meta.tuples.start);
                }
            }
        }
    }
}
