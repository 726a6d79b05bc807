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
use crate::block::{starts_new_block, BlockId, BlockMeta};
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

/// Sealed blocks per [`BlockRun`]. A snapshot copies one pointer per run
/// (about `blocks / RUN_BLOCKS`), and sealing a block into a run that a
/// published table shares copies that one partial run's pointers.
const RUN_BLOCKS: usize = 64;

/// An immutable run of consecutive sealed blocks with their pages, shared
/// by every table version that contains it. Every run holds
/// [`RUN_BLOCKS`] blocks except the last, so block `id` lives in run
/// `id / RUN_BLOCKS`.
#[derive(Debug, Clone)]
struct BlockRun {
    /// Table-wide index of `pages[0]`.
    first_page: usize,
    pages: Vec<Arc<Page>>,
    /// Block metadata in table coordinates (ids, page and tuple ranges).
    blocks: Vec<BlockMeta>,
}

/// Pages carved into blocks: sealed blocks in shared [`BlockRun`]s, then
/// the pages of the last block, which later appends may still extend.
///
/// Blocks are packed by the greedy rule of [`starts_new_block`], one page
/// at a time: a page that would overflow the open block seals it. Greedy
/// packing is prefix-stable — appending pages never changes a block
/// before the last one — so this equals a from-scratch `plan_blocks` over
/// all pages, while a new page only ever touches the open block.
#[derive(Debug, Clone, Default)]
struct Layout {
    runs: Vec<Arc<BlockRun>>,
    sealed_blocks: usize,
    sealed_pages: usize,
    sealed_tuples: u64,
    sealed_bytes: usize,
    /// Pages of the open (last) block.
    open: Vec<Arc<Page>>,
    open_bytes: usize,
}

impl Layout {
    /// Add `page` after every page so far, sealing the open block first if
    /// `page` would overflow it. `tuples_before` counts the tuples on all
    /// earlier pages.
    fn push_page(&mut self, page: Arc<Page>, tuples_before: u64, block_bytes: usize) {
        let bytes = page.disk_bytes();
        if starts_new_block(self.open_bytes, bytes, block_bytes) {
            self.seal_open(tuples_before);
        }
        self.open_bytes += bytes;
        self.open.push(page);
    }

    /// Move the open block into the last run (copying that run's page
    /// pointers first if a published table shares it) or into a new run.
    fn seal_open(&mut self, tuples_end: u64) {
        let n = self.open.len();
        let meta = BlockMeta {
            id: self.sealed_blocks,
            pages: self.sealed_pages..self.sealed_pages + n,
            tuples: self.sealed_tuples..tuples_end,
            bytes: self.open_bytes,
        };
        self.sealed_blocks += 1;
        self.sealed_pages += n;
        self.sealed_tuples = tuples_end;
        self.sealed_bytes += self.open_bytes;
        self.open_bytes = 0;
        if self
            .runs
            .last()
            .is_none_or(|r| r.blocks.len() == RUN_BLOCKS)
        {
            // Sized for a full run of blocks like this one.
            self.runs.push(Arc::new(BlockRun {
                first_page: meta.pages.start,
                pages: Vec::with_capacity(RUN_BLOCKS * n),
                blocks: Vec::with_capacity(RUN_BLOCKS),
            }));
        }
        let run = Arc::make_mut(self.runs.last_mut().expect("a run exists"));
        run.pages.append(&mut self.open);
        run.blocks.push(meta);
    }

    /// Metadata of the open block once it holds `tuple_count` tuples in
    /// total; `None` for an empty table.
    fn open_meta(&self, tuple_count: u64) -> Option<BlockMeta> {
        (!self.open.is_empty()).then(|| BlockMeta {
            id: self.sealed_blocks,
            pages: self.sealed_pages..self.sealed_pages + self.open.len(),
            tuples: self.sealed_tuples..tuple_count,
            bytes: self.open_bytes,
        })
    }

    /// Every page in table order.
    fn pages(&self) -> impl Iterator<Item = &Arc<Page>> {
        self.runs
            .iter()
            .flat_map(|r| r.pages.iter())
            .chain(&self.open)
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
    layout: Layout,
    tuple_count: u64,
    any_toast: bool,
}

impl TableBuilder {
    /// Start building a table.
    pub fn new(config: TableConfig) -> Result<Self> {
        config.validate()?;
        Ok(TableBuilder {
            config,
            layout: Layout::default(),
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
        let fits_current = self.layout.open.last().is_some_and(|p| p.fits(len));
        if !fits_current {
            let mut fresh = Page::new();
            if !fresh.fits(len) {
                fresh = Page::new_jumbo(len + 16);
            }
            self.layout
                .push_page(Arc::new(fresh), self.tuple_count, self.config.block_bytes);
        }
        let tail = self.layout.open.last_mut().expect("page pushed above");
        Arc::make_mut(tail).push(tuple)?;
        self.tuple_count += 1;
        Ok(())
    }

    /// Re-open a finished table for further appends. The builder shares
    /// the table's runs and its open block's pages (a pointer copy each)
    /// and copies the tail page on its first append, so the table itself
    /// stays immutable — this is how
    /// [`AppendableTable`](crate::AppendableTable) seeds its writer from the
    /// currently-registered snapshot.
    pub fn from_table(table: &Table) -> TableBuilder {
        TableBuilder {
            config: table.config.clone(),
            layout: table.layout.clone(),
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

    /// An immutable point-in-time [`Table`] under `table_id` that shares
    /// the builder's sealed runs and copies only the open block's page
    /// pointers. Appends continue underneath it — the builder copies the
    /// shared tail page before writing to it, and a shared run before
    /// sealing a block into it, so the snapshot never sees a later row.
    pub fn snapshot(&self, table_id: u32) -> Table {
        let mut config = self.config.clone();
        config.table_id = table_id;
        Table::from_layout(
            config,
            self.layout.clone(),
            self.tuple_count,
            self.any_toast,
        )
    }

    /// Finish: seal the table.
    pub fn finish(self) -> Table {
        Table::from_layout(self.config, self.layout, self.tuple_count, self.any_toast)
    }
}

/// An immutable heap table.
///
/// Its sealed blocks live in runs shared (`Arc`) with every other version
/// of the same table — earlier and later snapshots and the writer's
/// builder — so cloning a table copies one pointer per run plus the open
/// block's page pointers, never page bytes.
#[derive(Debug, Clone)]
pub struct Table {
    config: TableConfig,
    layout: Layout,
    /// Metadata of the last block (`None` for an empty table).
    open_block: Option<BlockMeta>,
    tuple_count: u64,
    any_toast: bool,
}

impl Table {
    fn from_layout(
        config: TableConfig,
        layout: Layout,
        tuple_count: u64,
        any_toast: bool,
    ) -> Table {
        Table {
            open_block: layout.open_meta(tuple_count),
            config,
            layout,
            tuple_count,
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
        self.layout.sealed_blocks + usize::from(self.open_block.is_some())
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.layout.sealed_pages + self.layout.open.len()
    }

    /// On-disk size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.layout.sealed_bytes + self.layout.open_bytes
    }

    /// Average tuples per block (the paper's `b`).
    pub fn tuples_per_block(&self) -> f64 {
        match self.num_blocks() {
            0 => 0.0,
            n => self.tuple_count as f64 / n as f64,
        }
    }

    /// Whether any tuple is TOASTed (throughput-capped on read).
    pub fn is_toasted(&self) -> bool {
        self.any_toast
    }

    /// Block metadata.
    pub fn block(&self, id: BlockId) -> Result<&BlockMeta> {
        Ok(self.block_pages(id)?.0)
    }

    /// Block metadata and the block's pages: one run lookup.
    fn block_pages(&self, id: BlockId) -> Result<(&BlockMeta, &[Arc<Page>])> {
        let layout = &self.layout;
        if id < layout.sealed_blocks {
            let run = &layout.runs[id / RUN_BLOCKS];
            let meta = &run.blocks[id % RUN_BLOCKS];
            let pages = meta.pages.start - run.first_page..meta.pages.end - run.first_page;
            return Ok((meta, &run.pages[pages]));
        }
        match &self.open_block {
            Some(meta) if id == meta.id => Ok((meta, &layout.open)),
            _ => Err(StorageError::BlockOutOfRange {
                block: id,
                blocks: self.num_blocks(),
            }),
        }
    }

    /// All block metadata in table order.
    pub fn blocks(&self) -> impl Iterator<Item = &BlockMeta> {
        self.layout
            .runs
            .iter()
            .flat_map(|r| r.blocks.iter())
            .chain(&self.open_block)
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
        let (meta, pages) = self.block_pages(id)?;
        let mut out = Vec::with_capacity(meta.tuple_count());
        for p in pages {
            out.extend(p.tuples());
        }
        Ok(out)
    }

    /// Decode the tuples of a block into `out` (appending; no device
    /// charge). The columnar counterpart of [`Table::block_tuples`].
    pub fn decode_block_into(&self, id: BlockId, out: &mut TupleBatch) -> Result<()> {
        for p in self.block_pages(id)?.1 {
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

    /// Locate tuple `tid`: its block, its page and the position of the
    /// page's first tuple.
    fn locate(&self, tid: TupleId) -> Result<(BlockId, &Page, TupleId)> {
        if tid >= self.tuple_count {
            return Err(StorageError::Corrupt(format!(
                "tuple {tid} out of range ({} tuples)",
                self.tuple_count
            )));
        }
        // Binary search for the first block whose range ends past `tid`.
        let (mut lo, mut hi) = (0, self.num_blocks());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.block(mid)?.tuples.end <= tid {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let (meta, pages) = self.block_pages(lo)?;
        let mut first_on_page = meta.tuples.start;
        for p in pages {
            let cnt = p.tuple_count() as u64;
            if tid < first_on_page + cnt {
                return Ok((lo, p, first_on_page));
            }
            first_on_page += cnt;
        }
        Err(StorageError::Corrupt(format!(
            "tuple {tid} not found in block {lo}"
        )))
    }

    /// Read a single tuple by position with random access: one seek + one
    /// page transfer. The full-shuffle access pattern (map-style dataset on
    /// secondary storage).
    pub fn read_tuple_random(&self, tid: TupleId, dev: &mut SimDevice) -> Result<Tuple> {
        let (block, page, first_on_page) = self.locate(tid)?;
        dev.read(
            Some(self.cache_key(block)),
            page.disk_bytes(),
            Access::Random,
            self.toast_cap(),
        );
        page.tuple((tid - first_on_page) as usize)
    }

    /// Decode a tuple by position without charging a device.
    pub fn get_tuple(&self, tid: TupleId) -> Result<Tuple> {
        let (_, page, first_on_page) = self.locate(tid)?;
        page.tuple((tid - first_on_page) as usize)
    }

    /// All tuples in table order, without device charges.
    pub fn all_tuples(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.tuple_count as usize);
        for p in self.layout.pages() {
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
        let mut layout = Layout::default();
        let mut tuples = 0;
        for p in self.layout.pages() {
            layout.push_page(p.clone(), tuples, block_bytes);
            tuples += p.tuple_count() as u64;
        }
        Ok(Table::from_layout(
            config,
            layout,
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
            dev.read(None, self.total_bytes(), Access::Random, self.toast_cap());
            dev.write(self.total_bytes(), Access::Sequential);
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
    use crate::block::plan_blocks;
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
        let pages: Vec<&Arc<Page>> = t.layout.pages().collect();
        let page_bytes: Vec<usize> = pages.iter().map(|p| p.disk_bytes()).collect();
        let page_tuples: Vec<usize> = pages.iter().map(|p| p.tuple_count()).collect();
        let planned = plan_blocks(&page_bytes, &page_tuples, PAGE_SIZE);
        assert_eq!(finer.blocks().cloned().collect::<Vec<_>>(), planned);
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

    #[test]
    fn full_runs_are_shared_and_a_snapshot_copies_only_the_open_block() {
        fn fill_to(b: &mut TableBuilder, sealed_blocks: usize) {
            while b.layout.sealed_blocks < sealed_blocks {
                let id = b.tuple_count();
                b.append(&Tuple::dense(id, vec![1.0; 32], 1.0)).unwrap();
            }
        }
        let cfg = TableConfig::new("t", 1).with_block_bytes(PAGE_SIZE);
        let mut b = TableBuilder::new(cfg).unwrap();
        fill_to(&mut b, RUN_BLOCKS + 3);
        let first = b.snapshot(2);
        fill_to(&mut b, RUN_BLOCKS + 5);
        let second = b.snapshot(3);
        let (was, now) = (&first.layout.runs, &second.layout.runs);
        assert_eq!((was.len(), now.len()), (2, 2));
        assert!(Arc::ptr_eq(&was[0], &now[0]), "a full run is shared");
        assert!(
            !Arc::ptr_eq(&was[1], &now[1]),
            "a shared partial run is copied on seal"
        );
        assert_eq!(was[1].blocks.len(), 3, "the published run is untouched");
        assert_eq!(now[1].blocks.len(), 5);
        let open = second.block(second.num_blocks() - 1).unwrap();
        assert_eq!(second.layout.open.len(), open.page_count());
        assert_eq!(first.num_blocks(), RUN_BLOCKS + 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Snapshots taken between random-sized appends (mid-page, across
        /// block seals, around a jumbo tuple) stay exactly what they were
        /// when taken. Consecutive snapshots share their sealed runs and
        /// pages rather than copying them, a snapshot copies no page
        /// pointers beyond its open block's, and the block plan equals a
        /// from-scratch `plan_blocks` over the same pages.
        #[test]
        fn prop_snapshots_are_isolated_and_share_sealed_pages(
            ops in proptest::collection::vec((0usize..300, any::<bool>(), any::<bool>()), 1..16)
        ) {
            let cfg = TableConfig::new("t", 1).with_block_bytes(2 * PAGE_SIZE);
            let mut b = TableBuilder::new(cfg.clone()).unwrap();
            let mut appended: Vec<Tuple> = Vec::new();
            let mut snaps: Vec<Table> = Vec::new();
            for (i, &(batch, jumbo, snap)) in ops.iter().enumerate() {
                for k in 0..batch {
                    let id = appended.len() as u64;
                    let width = if jumbo && k == batch / 2 { 4096 } else { 120 };
                    let t = Tuple::dense(id, vec![id as f32; width], 1.0);
                    b.append(&t).unwrap();
                    appended.push(t);
                }
                if !snap && i + 1 < ops.len() {
                    continue;
                }
                let next = b.snapshot(i as u32 + 2);
                prop_assert_eq!(next.config().table_id, i as u32 + 2);
                let open_pages = next.open_block.as_ref().map_or(0, |m| m.page_count());
                prop_assert_eq!(next.layout.open.len(), open_pages);
                if let Some(prev) = snaps.last() {
                    let (was, now) = (&prev.layout, &next.layout);
                    for (p, q) in was.runs.iter().zip(&now.runs) {
                        // A full run never changes again; a partial one only
                        // when a block is sealed into it.
                        if p.blocks.len() == RUN_BLOCKS || was.sealed_blocks == now.sealed_blocks {
                            prop_assert!(Arc::ptr_eq(p, q), "sealed run copied by a publish");
                        }
                    }
                    let sealed = prev.num_pages().saturating_sub(1);
                    for (p, q) in was.pages().take(sealed).zip(now.pages()) {
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
                let blocks: Vec<&BlockMeta> = snap.blocks().collect();
                prop_assert_eq!(&blocks, &fresh.blocks().collect::<Vec<_>>());
                let page_bytes: Vec<usize> = snap.layout.pages().map(|p| p.disk_bytes()).collect();
                let page_tuples: Vec<usize> = snap.layout.pages().map(|p| p.tuple_count()).collect();
                let planned = plan_blocks(&page_bytes, &page_tuples, cfg.block_bytes);
                prop_assert_eq!(blocks, planned.iter().collect::<Vec<_>>());
                for (id, meta) in planned.iter().enumerate() {
                    prop_assert_eq!(snap.block(id).unwrap(), meta);
                }
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
