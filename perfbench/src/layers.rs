//! Outside-in layer boundaries: the traced run's statements.
//!
//! Each traced statement does what `Session::execute` does for the
//! benchmark's statements, but through the engine's public functions, so
//! the benchmark can open a span around every call into a layer:
//!
//! | span | public call |
//! |---|---|
//! | `sql.parse` | `sql::parse` |
//! | `catalog.snapshot` | `Catalog::snapshot` / `Catalog::table` |
//! | `catalog.append` | `Catalog::append_rows` |
//! | `catalog.store` | `Catalog::store_model` |
//! | `plan.build` | option validation, `LogicalPlan::build`/`build_predict`, `push_down`, `build_physical_with` |
//! | `exec.sgd`, `exec.predict`, `exec.insert` | `SgdOperator::execute`, `PredictOperator::execute`, row conversion |
//! | `shuffle.fill` | `TupleShuffleOp` batch pulls |
//! | `storage.scan` | `BlockShuffleOp` batch and block pulls |
//! | `storage.materialize` | `Table::all_tuples` (the evaluation view) |
//! | `ml.init`, `ml.sgd`, `ml.eval` | `build_model`, `Model::sgd_batch`, `accuracy` |
//! | `serving.pin`, `serving.publish` | `ModelCache::pin`, `ModelCache::publish` |
//!
//! Operators are assembled from the public exec constructors by walking
//! the planner's own `LogicalPlan`, each wrapped in [`TimedOp`]; the model
//! is wrapped in [`TimedModel`]. The planner's fused lowering of these
//! plans is a pass-through (`PostStage::None`) around the same
//! operators, and the root's `fused` flag is copied from the planner, so
//! the traced statement runs the same kernels and produces bit-identical
//! models and predictions — which the workloads check on every traced
//! statement.

use crate::trace::Tracer;
use corgipile_db::{
    build_physical_with, parse, BatchCursor, BlockShuffleOp, BuildOptions, Database, DbError,
    ExecContext, LogicalPlan, OpStats, PhysicalOperator, PredictOperator, PredictPlanSpec,
    Projection, Query, QueryOptions, ScanMode, ScanOrder, ServableModel, Session, SgdOperator,
    Statement, StoredModel, StrategyKind, TrainPlanSpec, TupleShuffleOp,
};
use corgipile_ml::{
    accuracy, build_model, ComputeCostModel, Model, ModelKind, OptimizerKind, TrainCheckpoint,
    TrainOptions,
};
use corgipile_shuffle::StrategyParams;
use corgipile_storage::{
    DeviceHandle, FeatureVec, IoStats, PipelineReport, RetryPolicy, SimDevice, Table, Tuple,
    TupleBatch, TupleRef,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn bad(msg: impl Into<String>) -> DbError {
    DbError::BadParam(msg.into())
}

/// Opens `name` when tracing, nothing otherwise.
fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<crate::trace::Guard<'a>> {
    tracer.map(|t| t.span(name))
}

/// A physical operator whose batch and block pulls are timed as one span.
pub struct TimedOp {
    inner: Box<dyn PhysicalOperator>,
    span: &'static str,
    tracer: Tracer,
}

impl PhysicalOperator for TimedOp {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn init(&mut self, ctx: &mut ExecContext) {
        self.inner.init(ctx)
    }
    fn next_batch(&mut self, ctx: &mut ExecContext, out: &mut TupleBatch) -> Result<bool, DbError> {
        let _g = self.tracer.span(self.span);
        self.inner.next_batch(ctx, out)
    }
    fn next_block(&mut self, ctx: &mut ExecContext, out: &mut TupleBatch) -> Result<bool, DbError> {
        let _g = self.tracer.span(self.span);
        self.inner.next_block(ctx, out)
    }
    fn cursor(&mut self) -> &mut BatchCursor {
        self.inner.cursor()
    }
    fn rescan(&mut self, ctx: &mut ExecContext) {
        self.inner.rescan(ctx)
    }
    fn close(&mut self, ctx: &mut ExecContext) {
        self.inner.close(ctx)
    }
    fn collect_stats(&self, depth: usize, out: &mut Vec<OpStats>) {
        self.inner.collect_stats(depth, out)
    }
}

/// A model whose batch training kernel is timed, and whose FLOP estimates
/// (asked once per tuple by the SGD operator's cost accounting) are
/// summed. Every method forwards, so default trait bodies never replace
/// the inner model's own kernels.
pub struct TimedModel {
    inner: Box<dyn Model>,
    tracer: Tracer,
    /// Summed `flops_per_example` answers, as `f64` bits.
    flops: Arc<AtomicU64>,
}

impl TimedModel {
    /// Wrap `inner`; FLOP estimates accumulate into `flops`.
    pub fn new(inner: Box<dyn Model>, tracer: Tracer, flops: Arc<AtomicU64>) -> Self {
        TimedModel {
            inner,
            tracer,
            flops,
        }
    }
}

impl Model for TimedModel {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }
    fn params(&self) -> &[f32] {
        self.inner.params()
    }
    fn params_mut(&mut self) -> &mut [f32] {
        self.inner.params_mut()
    }
    fn loss(&self, x: &FeatureVec, y: f32) -> f64 {
        self.inner.loss(x, y)
    }
    fn grad(&self, x: &FeatureVec, y: f32, grad: &mut [f32]) {
        self.inner.grad(x, y, grad)
    }
    fn sgd_step(&mut self, x: &FeatureVec, y: f32, lr: f32) {
        self.inner.sgd_step(x, y, lr)
    }
    fn sgd_batch(&mut self, batch: &[TupleRef], lr: f32, loss_sum: &mut f64) {
        let _g = self.tracer.span("ml.sgd");
        self.inner.sgd_batch(batch, lr, loss_sum)
    }
    fn predict_label(&self, x: &FeatureVec) -> f32 {
        self.inner.predict_label(x)
    }
    fn predict_batch_into(&self, xs: &[&FeatureVec], out: &mut Vec<f32>) {
        self.inner.predict_batch_into(xs, out)
    }
    fn inference_flops_per_example(&self, nnz: usize) -> f64 {
        self.inner.inference_flops_per_example(nnz)
    }
    fn is_classifier(&self) -> bool {
        self.inner.is_classifier()
    }
    fn flops_per_example(&self, nnz: usize) -> f64 {
        let f = self.inner.flops_per_example(nnz);
        let _ = self
            .flops
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + f).to_bits())
            });
        f
    }
}

/// Lower `plan` the way the planner's interpreted lowering does, wrapping
/// the scan in a `storage.scan` span and the tuple shuffle in a
/// `shuffle.fill` span. Only the nodes the benchmark's statements produce
/// are supported.
pub fn assemble(
    plan: &LogicalPlan,
    table: &Arc<Table>,
    params: &StrategyParams,
    seed: u64,
    tracer: &Tracer,
) -> Result<Box<dyn PhysicalOperator>, DbError> {
    let timed = |inner: Box<dyn PhysicalOperator>, span| -> Box<dyn PhysicalOperator> {
        Box::new(TimedOp {
            inner,
            span,
            tracer: tracer.clone(),
        })
    };
    match plan {
        LogicalPlan::Sgd { input, .. } | LogicalPlan::Predict { input, .. } => {
            assemble(input, table, params, seed, tracer)
        }
        LogicalPlan::TupleShuffle {
            buffer_blocks,
            input,
        } => {
            let child = assemble(input, table, params, seed, tracer)?;
            let op = TupleShuffleOp::new(child, *buffer_blocks, params.clone());
            Ok(timed(Box::new(op), "shuffle.fill"))
        }
        LogicalPlan::Scan {
            order,
            predicate: None,
            projection: None,
            ..
        } => {
            let mode = match order {
                ScanOrder::Sequential => ScanMode::Sequential,
                ScanOrder::RandomBlocks => ScanMode::RandomBlocks,
                ScanOrder::BlockReversal => ScanMode::Reversal,
                other => return Err(bad(format!("traced run does not lower {other:?}"))),
            };
            let op = BlockShuffleOp::new(Arc::clone(table), mode, seed);
            Ok(timed(Box::new(op), "storage.scan"))
        }
        other => Err(bad(format!("traced run does not lower {other:?}"))),
    }
}

/// A parsed `TRAIN` statement, reduced to what the benchmark issues.
#[derive(Debug, Clone)]
pub struct TrainQuery {
    table: String,
    model_name: String,
    kind: ModelKind,
    strategy: StrategyKind,
    continuous: bool,
    epochs: usize,
    refresh: usize,
    seed: u64,
    double_buffer: bool,
}

/// `Session`'s defaults for the options the benchmark's statements leave
/// unset.
const LEARNING_RATE: f32 = 0.1;
const DECAY: f32 = 0.95;
const BUFFER_FRACTION: f64 = 0.10;
const MAX_RETRIES: u32 = 4;

impl TrainQuery {
    /// Validate and read a parsed query with the engine's defaults.
    pub fn from_query(query: Query) -> Result<TrainQuery, DbError> {
        let Query::Train {
            table,
            model,
            projection,
            filter,
            strategy,
            continuous,
            params,
        } = query
        else {
            return Err(bad("not a TRAIN statement"));
        };
        if !matches!(projection, Projection::All) || filter.is_some() {
            return Err(bad("traced TRAIN takes SELECT * without WHERE"));
        }
        let strategy = strategy.ok_or_else(|| bad("traced TRAIN names its strategy"))?;
        let kind = match model.as_str() {
            "lr" => ModelKind::LogisticRegression,
            "svm" => ModelKind::Svm,
            other => return Err(bad(format!("traced TRAIN does not run {other}"))),
        };
        const USED: [&str; 5] = [
            "double_buffer",
            "max_epoch_num",
            "refresh",
            "seed",
            "model_name",
        ];
        if let Some(k) = params.keys().find(|k| !USED.contains(&k.as_str())) {
            return Err(bad(format!("traced TRAIN does not mirror option {k}")));
        }
        let opts = QueryOptions::parse(Statement::Train, &params)?;
        let epochs = opts.nonneg_int("max_epoch_num", 10)?;
        Ok(TrainQuery {
            model_name: opts
                .text("model_name")
                .map(str::to_string)
                .unwrap_or_else(|| format!("{table}_{}", kind.name())),
            table,
            kind,
            strategy,
            continuous,
            epochs,
            refresh: opts.positive_int("refresh", epochs.max(1))?,
            seed: opts.nonneg_int("seed", 42)? as u64,
            double_buffer: opts.flag("double_buffer", true)?,
        })
    }
}

/// What one traced (or replayed) TRAIN produced.
pub struct TrainOutcome {
    /// Statement root span id (0 when untraced).
    pub stmt: u64,
    /// Final model parameters.
    pub params: Vec<f32>,
    /// Final training accuracy over the last pinned snapshot.
    pub metric: f64,
    /// Tuples fed to SGD, all epochs and chunks.
    pub sgd_tuples: u64,
    /// Snapshot pins taken (one per chunk).
    pub pins: Vec<Arc<Table>>,
    /// Chunks run (= pins taken).
    pub chunks: u64,
    /// Double-buffer hand-off waits, summed over chunks.
    pub pipeline: PipelineReport,
    /// TupleShuffle fills and buffered tuples, summed over chunks.
    pub fills: u64,
    /// Tuples buffered by those fills.
    pub buffered: u64,
    /// Tuples the scan emitted, summed over chunks.
    pub scanned: u64,
    /// Device statistics of the statement.
    pub io: IoStats,
    /// Summed FLOP estimates of the SGD cost accounting.
    pub flops: f64,
}

/// Run a TRAIN like `Session::execute` does (plain or CONTINUOUS).
///
/// With a tracer, operators and model are the timed decorators; without,
/// the planner's own operator tree runs. `replay` replaces the catalog
/// pins with recorded snapshots (an untraced re-run of a traced
/// CONTINUOUS statement on the versions it saw).
pub fn run_train(
    q: &TrainQuery,
    db: &Database,
    dev: &mut DeviceHandle,
    replay: Option<&[Arc<Table>]>,
    tracer: Option<&Tracer>,
) -> Result<TrainOutcome, DbError> {
    let io_before = dev.stats().clone();
    let flops = Arc::new(AtomicU64::new(0f64.to_bits()));
    let sparams = StrategyParams::default()
        .with_buffer_fraction(BUFFER_FRACTION)
        .with_seed(q.seed);
    let stmt = tracer.map_or(0, |t| t.current_statement());
    let mut out = TrainOutcome {
        stmt,
        params: Vec::new(),
        metric: 0.0,
        sgd_tuples: 0,
        pins: Vec::new(),
        chunks: 0,
        pipeline: PipelineReport::default(),
        fills: 0,
        buffered: 0,
        scanned: 0,
        io: IoStats::default(),
        flops: 0.0,
    };
    let refresh = if q.continuous { q.refresh } else { q.epochs };
    let mut checkpoint: Option<TrainCheckpoint> = None;
    let mut trained: Box<dyn Model>;
    let mut train_loss = 0.0;
    let mut start = 0usize;
    loop {
        let table = match replay {
            Some(pins) => Arc::clone(
                pins.get(out.pins.len())
                    .ok_or_else(|| bad("replay ran out of pins"))?,
            ),
            None => {
                let _g = span(tracer, "catalog.snapshot");
                db.catalog().snapshot(&q.table)?.into_table()
            }
        };
        let end = (start + refresh).min(q.epochs);
        let (plan, physical) = {
            let _g = span(tracer, "plan.build");
            let spec = TrainPlanSpec {
                table: q.table.clone(),
                model: q.kind.name().to_string(),
                epochs: q.epochs,
                strategy: q.strategy,
                projection: Projection::All,
                filter: None,
                buffer_blocks: sparams.buffer_blocks(&table),
            };
            let plan = LogicalPlan::build(&spec, &table)?.push_down();
            let physical = build_physical_with(
                &plan,
                &table,
                &q.table,
                &sparams,
                q.seed,
                dev,
                db.catalog(),
                BuildOptions {
                    fuse: true,
                    shared_scan: false,
                },
            )?;
            (plan, physical)
        };
        let dim = table.get_tuple(0)?.features.dim();
        let (child, model): (Box<dyn PhysicalOperator>, Box<dyn Model>) = match tracer {
            Some(t) => {
                let _g = t.span("ml.init");
                let model = build_model(&q.kind, dim, q.seed);
                (
                    assemble(&plan, &table, &sparams, q.seed, t)?,
                    Box::new(TimedModel::new(model, t.clone(), Arc::clone(&flops))),
                )
            }
            None => (physical.child, build_model(&q.kind, dim, q.seed)),
        };
        let optimizer = OptimizerKind::Sgd {
            lr0: LEARNING_RATE,
            decay: DECAY,
        }
        .build();
        let options = TrainOptions {
            batch_size: 1,
            clip_norm: 0.0,
            l2: 0.0,
        };
        let mut sgd = SgdOperator::new(
            child,
            model,
            optimizer,
            options,
            ComputeCostModel::in_db_core(),
            q.epochs,
            q.double_buffer,
        );
        sgd.setup_seconds = physical.setup_seconds;
        sgd.fused = physical.fused;
        sgd.checkpoint_seed = q.seed;
        sgd.resume_from = checkpoint.take();
        if end < q.epochs {
            sgd.halt_after_epoch = Some(end.saturating_sub(1));
        }
        let slot: Rc<RefCell<Option<TrainCheckpoint>>> = Rc::new(RefCell::new(None));
        if q.continuous {
            let sink = Rc::clone(&slot);
            sgd.checkpoint_sink = Some(Box::new(move |ck, _| {
                *sink.borrow_mut() = Some(ck.clone());
                Ok(())
            }));
        }
        let result = {
            let g = span(tracer, "exec.sgd");
            if let (Some(t), Some(g)) = (tracer, &g) {
                t.set_ambient(g.id());
            }
            let mut ctx = ExecContext::new(dev);
            ctx.retry = RetryPolicy::with_max_retries(MAX_RETRIES);
            let r = sgd.execute(&mut ctx);
            if let Some(t) = tracer {
                t.set_ambient(stmt);
            }
            r?
        };
        checkpoint = slot.borrow_mut().take();
        out.sgd_tuples += result.epochs.iter().map(|e| e.tuples as u64).sum::<u64>();
        train_loss = result.epochs.last().map_or(train_loss, |e| e.train_loss);
        let p = &result.pipeline;
        out.pipeline.fills += p.fills;
        out.pipeline.stall_wall_seconds += p.stall_wall_seconds;
        out.pipeline.backpressure_wall_seconds += p.backpressure_wall_seconds;
        for s in &result.op_stats {
            match s.name.as_str() {
                "TupleShuffle" => {
                    out.fills += s.fills;
                    out.buffered += s.buffered_tuples;
                }
                "BlockShuffle" | "SeqScan" | "BlockReversalScan" => out.scanned += s.rows,
                _ => {}
            }
        }
        out.pins.push(table);
        out.chunks += 1;
        trained = result.model;
        if end >= q.epochs {
            break;
        }
        start = end;
    }
    let model = trained;
    let table = out.pins.last().expect("one pin per chunk");
    let eval = {
        let _g = span(tracer, "storage.materialize");
        table.all_tuples()
    };
    out.metric = {
        let _g = span(tracer, "ml.eval");
        accuracy(model.as_ref(), eval.iter())
    };
    out.params = model.params().to_vec();
    if replay.is_none() {
        let stored = StoredModel {
            kind: q.kind.clone(),
            dim: eval[0].features.dim(),
            params: out.params.clone(),
            train_loss,
        };
        {
            let _g = span(tracer, "catalog.store");
            db.catalog()
                .store_model(q.model_name.clone(), stored.clone());
        }
        let _g = span(tracer, "serving.publish");
        let cache = db.model_cache();
        let version = cache.next_version(&q.model_name);
        cache.publish(ServableModel::new(&q.model_name, version, stored), true);
    }
    out.io.add_delta(&io_before, dev.stats());
    out.flops = f64::from_bits(flops.load(Ordering::Relaxed));
    Ok(out)
}

/// Traced `TRAIN`: parse, then [`run_train`] with decorators.
pub fn traced_train(
    session: &mut Session,
    sql: &str,
    tracer: &Tracer,
) -> Result<TrainOutcome, DbError> {
    let _stmt = tracer.statement("stmt.train");
    let query = {
        let _g = tracer.span("sql.parse");
        parse(sql)?
    };
    let q = TrainQuery::from_query(query)?;
    let db = Arc::clone(session.database());
    run_train(&q, &db, session.device_mut(), None, Some(tracer))
}

/// Untraced re-run of a CONTINUOUS statement over the snapshots a traced
/// run pinned, on a scratch device (the session's cache is untouched).
pub fn replay_train(db: &Database, sql: &str, pins: &[Arc<Table>]) -> Result<Vec<f32>, DbError> {
    let q = TrainQuery::from_query(parse(sql)?)?;
    let mut dev = DeviceHandle::private(SimDevice::in_memory());
    Ok(run_train(&q, db, &mut dev, Some(pins), None)?.params)
}

/// What one traced PREDICT produced.
pub struct PredictOutcome {
    /// Statement root span id.
    pub stmt: u64,
    /// Served version.
    pub version: u32,
    /// Predictions in scan order.
    pub predictions: Vec<f32>,
    /// Tuples the scan emitted.
    pub scanned: u64,
    /// Device statistics of the statement.
    pub io: IoStats,
}

/// Traced `PREDICT <model> ON <table>`, mirroring `Session::predict_batch`
/// for an active-version pin without a predicate.
pub fn traced_predict(
    session: &mut Session,
    sql: &str,
    tracer: &Tracer,
) -> Result<PredictOutcome, DbError> {
    let stmt = tracer.statement("stmt.predict");
    let query = {
        let _g = tracer.span("sql.parse");
        parse(sql)?
    };
    let Query::PredictServe {
        model,
        version: None,
        table,
        filter: None,
        params,
    } = query
    else {
        return Err(bad(
            "traced PREDICT serves the active version of a whole table",
        ));
    };
    let db = Arc::clone(session.database());
    let batch_rows = {
        let _g = tracer.span("plan.build");
        let opts = QueryOptions::parse(Statement::Predict, &params)?;
        if opts.is_set("fuse") || opts.is_set("shared_scan") {
            return Err(bad("traced PREDICT does not mirror fuse/shared_scan"));
        }
        opts.positive_int("batch_rows", 256)?
    };
    let t = {
        let _g = tracer.span("catalog.snapshot");
        db.catalog().table(&table)?
    };
    let servable = {
        let _g = tracer.span("serving.pin");
        db.model_cache()
            .pin(&model)
            .ok_or_else(|| bad(format!("model {model} is not cached")))?
    };
    if servable.dim() != t.get_tuple(0)?.features.dim() {
        return Err(bad("model and table dimensions differ"));
    }
    let (plan, fused) = {
        let _g = tracer.span("plan.build");
        let spec = PredictPlanSpec {
            table: table.clone(),
            model,
            version: None,
            filter: None,
            batch_rows,
        };
        let plan = LogicalPlan::build_predict(&spec, &t)?.push_down();
        let physical = build_physical_with(
            &plan,
            &t,
            &table,
            &StrategyParams::default(),
            0,
            session.device_mut(),
            db.catalog(),
            BuildOptions {
                fuse: true,
                shared_scan: false,
            },
        )?;
        (plan, physical.fused)
    };
    let child = assemble(&plan, &t, &StrategyParams::default(), 0, tracer)?;
    let version = servable.version();
    let mut op = PredictOperator::new(child, servable, ComputeCostModel::in_db_core(), batch_rows);
    op.fused = fused;
    let io_before = session.device().stats().clone();
    let r = {
        let _g = tracer.span("exec.predict");
        let mut ctx = ExecContext::new(session.device_mut());
        op.execute(&mut ctx)?
    };
    let mut io = IoStats::default();
    io.add_delta(&io_before, session.device().stats());
    let scanned = r
        .op_stats
        .iter()
        .filter(|s| s.depth == 1)
        .map(|s| s.rows)
        .sum();
    Ok(PredictOutcome {
        stmt: stmt.id(),
        version,
        predictions: r.predictions,
        scanned,
        io,
    })
}

/// What one traced INSERT produced.
pub struct InsertOutcome {
    /// Statement root span id.
    pub stmt: u64,
    /// Rows appended.
    pub rows: u64,
    /// Published snapshot version.
    pub version: u64,
    /// Tuples in the published snapshot.
    pub total_tuples: u64,
}

/// Traced `INSERT INTO … VALUES …`, mirroring `Session::execute`.
pub fn traced_insert(db: &Database, sql: &str, tracer: &Tracer) -> Result<InsertOutcome, DbError> {
    let stmt = tracer.statement("stmt.insert");
    let query = {
        let _g = tracer.span("sql.parse");
        parse(sql)?
    };
    let Query::Insert { table, rows } = query else {
        return Err(bad("not an INSERT statement"));
    };
    let dim = {
        let _g = tracer.span("catalog.snapshot");
        db.catalog().table(&table)?.get_tuple(0)?.features.dim()
    };
    let tuples = {
        let _g = tracer.span("exec.insert");
        rows.into_iter()
            .map(|r| {
                let (label, features) = r.split_last().ok_or_else(|| bad("empty row"))?;
                if features.len() != dim {
                    return Err(bad("INSERT row width differs from the table"));
                }
                Ok(Tuple::dense(
                    0,
                    features.iter().map(|v| *v as f32).collect(),
                    *label as f32,
                ))
            })
            .collect::<Result<Vec<_>, DbError>>()?
    };
    let out = {
        let _g = tracer.span("catalog.append");
        db.catalog().append_rows(&table, tuples)?
    };
    Ok(InsertOutcome {
        stmt: stmt.id(),
        rows: out.rows,
        version: out.version,
        total_tuples: out.total_tuples,
    })
}
