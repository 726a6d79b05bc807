//! Test-only reference for the columnar TRAIN path.
//!
//! [`reference_train`] is per-tuple SGD written as directly as the paper
//! states it: it walks `Table::all_tuples()` in the plan's block order,
//! groups blocks into buffer fills, orders each fill by the shuffle key,
//! and calls `Model::loss` + `Model::sgd_step` on owned tuples. It charges
//! the same device reads, buffering costs and compute accounting a plan
//! does, so the property test below can demand bit-identical parameters,
//! per-epoch losses, final metric, `total_seconds()` and device I/O
//! counters from the executor across strategies, `pushdown`, `fuse` and
//! `double_buffer`, on dense and sparse tables.

#![cfg(test)]

use crate::database::Database;
use crate::exec::{shuffle_key, shuffle_salt};
use crate::session::QueryResult;
use crate::sql::{CmpOp, ColumnRef, Predicate, StrategyKind};
use corgipile_data::rng::shuffle_in_place;
use corgipile_data::{DatasetSpec, Order};
use corgipile_ml::{accuracy, build_model, ComputeCostModel, ModelKind, OptimizerKind};
use corgipile_shuffle::{BlockReversalShuffle, StrategyParams};
use corgipile_storage::{DoubleBufferModel, IoStats, SimDevice, Table, Tuple};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LR0: f32 = 0.1;
const DECAY: f32 = 0.95;
const EPOCHS: usize = 2;
const CACHE_BYTES: usize = 64 << 10;

fn device() -> SimDevice {
    SimDevice::hdd_scaled(1000.0, CACHE_BYTES)
}

/// One TRAIN statement's knobs.
#[derive(Debug, Clone)]
struct Run {
    strategy: StrategyKind,
    filter: Option<Predicate>,
    projection: Option<Vec<usize>>,
    pushdown: bool,
    fuse: bool,
    double_buffer: bool,
    seed: u64,
    buffer_fraction: f64,
}

impl Run {
    fn sql(&self) -> String {
        let select = match &self.projection {
            Some(cols) => cols
                .iter()
                .map(|c| format!("f{c}"))
                .collect::<Vec<_>>()
                .join(", "),
            None => "*".into(),
        };
        let filter = self
            .filter
            .as_ref()
            .map_or(String::new(), |p| format!(" WHERE {p}"));
        format!(
            "SELECT {select} FROM t{filter} TRAIN BY lr WITH max_epoch_num = {EPOCHS}, \
             strategy = '{}', pushdown = {}, fuse = {}, double_buffer = {}, seed = {}, \
             buffer_fraction = {}, learning_rate = {LR0}, decay = {DECAY}, model_name = m",
            self.strategy.name(),
            u8::from(self.pushdown),
            u8::from(self.fuse),
            u8::from(self.double_buffer),
            self.seed,
            self.buffer_fraction,
        )
    }

    /// The tuple a plan feeds SGD for `t`, if `t` survives the filter.
    fn view(&self, t: &Tuple) -> Option<Tuple> {
        if self.filter.as_ref().is_some_and(|p| !p.matches(t.row())) {
            return None;
        }
        Some(match &self.projection {
            Some(cols) => Tuple::dense(
                t.id,
                cols.iter().map(|&i| t.features.get(i)).collect(),
                t.label,
            ),
            None => t.clone(),
        })
    }
}

/// What a run produced.
#[derive(Debug, PartialEq)]
struct Outcome {
    params: Vec<u32>,
    losses: Vec<u64>,
    metric: u64,
    total_seconds: u64,
    io: IoStats,
}

/// The executor's answer, through the SQL surface.
fn engine_train(table: &Table, run: &Run) -> Outcome {
    let db = Database::new(device());
    db.register_table("t", table.clone());
    let mut s = db.connect();
    let QueryResult::Train(summary) = s.execute(&run.sql()).expect("TRAIN runs") else {
        panic!("TRAIN returned a non-TRAIN result");
    };
    Outcome {
        params: bits32(&s.catalog().model("m").unwrap().params),
        losses: summary
            .epochs
            .iter()
            .map(|e| e.train_loss.to_bits())
            .collect(),
        metric: summary.final_train_metric.to_bits(),
        total_seconds: summary.total_seconds().to_bits(),
        io: s.device().stats().clone(),
    }
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per-tuple SGD over `Table::all_tuples()`, in key order within fills.
fn reference_train(table: &Table, run: &Run) -> Outcome {
    let all = table.all_tuples();
    let mut dev = device();
    let params = StrategyParams::default()
        .with_buffer_fraction(run.buffer_fraction)
        .with_seed(run.seed);
    let compute = ComputeCostModel::in_db_core();
    let buffered = run.strategy.is_tuple_buffered();
    let window = if buffered {
        params.buffer_blocks(table)
    } else {
        1
    };
    let dim = run
        .projection
        .as_ref()
        .map_or(all[0].features.dim(), Vec::len);
    let mut model = build_model(&ModelKind::LogisticRegression, dim, run.seed);
    let mut opt = OptimizerKind::Sgd {
        lr0: LR0,
        decay: DECAY,
    }
    .build();
    let n = table.num_blocks();
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0xB5_0F);
    let (mut losses, mut clock) = (Vec::new(), 0.0f64);
    for epoch in 0..EPOCHS {
        opt.set_epoch(epoch);
        let order: Vec<usize> = match run.strategy {
            StrategyKind::NoShuffle | StrategyKind::TupleOnly => (0..n).collect(),
            StrategyKind::BlockOnly | StrategyKind::CorgiPile => {
                let mut o: Vec<usize> = (0..n).collect();
                shuffle_in_place(&mut rng, &mut o);
                o
            }
            StrategyKind::BlockReversal => {
                let offset = rng.gen_range(0..n);
                BlockReversalShuffle::epoch_order(offset, epoch % 2 == 1, n)
            }
            other => unreachable!("no reference for {other:?}"),
        };
        // Each fill: its I/O seconds, and the tuples SGD sees from it.
        let mut fills: Vec<(f64, Vec<Tuple>)> = Vec::new();
        // Device clock at the start of the current (possibly merged) fill.
        let mut fill_start = None;
        for (k, chunk) in order.chunks(window).enumerate() {
            let io_before = *fill_start.get_or_insert(dev.stats().io_seconds);
            let (mut raw, mut seen) = (Vec::new(), Vec::new());
            for (j, &b) in chunk.iter().enumerate() {
                let pos = k * window + j;
                match run.strategy {
                    StrategyKind::BlockOnly | StrategyKind::CorgiPile => {
                        table.read_block(b, &mut dev).unwrap();
                    }
                    StrategyKind::BlockReversal => {
                        let seek = pos == 0 || order[pos - 1].abs_diff(b) != 1;
                        table.scan_block_sequential(b, seek, &mut dev).unwrap();
                    }
                    _ => {
                        table.scan_block_sequential(b, pos == 0, &mut dev).unwrap();
                    }
                }
                let range = table.block(b).unwrap().tuples.clone();
                for t in &all[range.start as usize..range.end as usize] {
                    raw.push(t.clone());
                    seen.extend(run.view(t));
                }
            }
            if buffered {
                // Pushdown buffers the (projected) survivors; otherwise the
                // buffer holds raw tuples and the filter runs after it.
                let held = if run.pushdown { &seen } else { &raw };
                let bytes = held.iter().map(Tuple::encoded_len).sum();
                dev.charge_seconds(params.buffering_cost(held.len(), bytes));
                if run.pushdown && held.is_empty() {
                    // A window with no survivors merges into the next fill.
                    continue;
                }
                let salt = shuffle_salt(run.seed, epoch as u64);
                seen.sort_by_key(|t| shuffle_key(salt, t.id));
            }
            fill_start = None;
            fills.push((dev.stats().io_seconds - io_before, seen));
        }
        // Per-tuple SGD, compute charged per batch (fused) or per tuple.
        let (mut io, mut cpu) = (Vec::new(), Vec::new());
        let (mut loss_sum, mut tuples) = (0.0f64, 0usize);
        for (fill_io, seen) in &fills {
            let mut c = 0.0f64;
            let mut flops = 0.0f64;
            for t in seen {
                let f = model.flops_per_example(t.features.nnz());
                flops += f;
                if !run.fuse {
                    c += compute.seconds(f, 1);
                }
                loss_sum += model.loss(&t.features, t.label);
                model.sgd_step(&t.features, t.label, opt.lr());
            }
            if run.fuse && !seen.is_empty() {
                c += compute.seconds_batched(flops);
            }
            tuples += seen.len();
            io.push(*fill_io);
            cpu.push(c);
        }
        clock += if run.double_buffer {
            DoubleBufferModel::double_buffer(&io, &cpu)
        } else {
            DoubleBufferModel::single_buffer(&io, &cpu)
        };
        losses.push((loss_sum / tuples as f64).to_bits());
    }
    let view: Vec<Tuple> = all.iter().filter_map(|t| run.view(t)).collect();
    Outcome {
        params: bits32(model.params()),
        losses,
        metric: accuracy(model.as_ref(), &view).to_bits(),
        total_seconds: clock.to_bits(),
        io: dev.stats().clone(),
    }
}

fn tables(seed: u64, rows: usize) -> [Table; 2] {
    let dense = DatasetSpec::higgs_like(rows)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(8192)
        .build_table(seed)
        .unwrap();
    let sparse = DatasetSpec::criteo_like(rows / 2)
        .with_order(Order::ClusteredByLabel)
        .with_block_bytes(4096)
        .build_table(seed)
        .unwrap();
    [dense, sparse]
}

fn gt(col: ColumnRef, value: f64) -> Predicate {
    Predicate::Cmp {
        col,
        op: CmpOp::Gt,
        value,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The columnar executor is bit-identical to the reference loop for
    /// every plannable block/tuple shuffle shape, with and without a
    /// filter and projection, under every executor knob.
    #[test]
    fn prop_columnar_executor_matches_the_reference_loop(
        seed in 0u64..1000,
        rows in 300usize..700,
        buffer_fraction in prop_oneof![Just(0.1), Just(0.3)],
    ) {
        for table in tables(seed, rows) {
            for strategy in [
                StrategyKind::NoShuffle,
                StrategyKind::BlockOnly,
                StrategyKind::TupleOnly,
                StrategyKind::CorgiPile,
                StrategyKind::BlockReversal,
            ] {
                for (filter, projection) in [
                    (None, None),
                    (
                        Some(Predicate::Or(
                            Box::new(gt(ColumnRef::Feature(1), 0.0)),
                            Box::new(gt(ColumnRef::Id, (rows / 3) as f64)),
                        )),
                        Some(vec![0, 1, 3, 6]),
                    ),
                ] {
                    for knobs in 0u8..8 {
                        let run = Run {
                            strategy,
                            filter: filter.clone(),
                            projection: projection.clone(),
                            pushdown: knobs & 1 != 0,
                            fuse: knobs & 2 != 0,
                            double_buffer: knobs & 4 != 0,
                            seed,
                            buffer_fraction,
                        };
                        prop_assert_eq!(
                            engine_train(&table, &run),
                            reference_train(&table, &run),
                            "{}", run.sql()
                        );
                    }
                }
            }
        }
    }
}
