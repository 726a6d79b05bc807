//! The three workloads, each a closed loop of client sessions over
//! `Database::connect` → `Session::execute`.
//!
//! * `train_clustered` — one session, back-to-back CorgiPile TRAIN over a
//!   label-clustered table twice the device cache.
//! * `predict_serve` — two sessions, back-to-back PREDICT over a table the
//!   device cache holds three times over.
//! * `ingest_continuous` — on a durable engine, one session INSERTs while
//!   a second runs TRAIN … CONTINUOUS back to back. The table grows, so
//!   the loop runs whole *episodes* of a fixed statement count, each from
//!   the same base table: a faster build runs more episodes, never a
//!   larger table.
//!
//! An untraced run measures the end-to-end metrics. A traced run rotates
//! each session through untraced statements with telemetry on, with it
//! off, and traced statements (see `layers.rs`), and derives the
//! per-layer metrics from the traced ones.

use crate::layers::{self, InsertOutcome, PredictOutcome, TrainOutcome};
use crate::report::{cpu_ticks, metric, peak_rss_mb, steal_pct, Metric};
use crate::stats::{median, percentile, quartiles, windowed_rate};
use crate::trace::{self, Span, StatementProfile, Tracer};
use corgipile_data::{DatasetSpec, Order};
use corgipile_db::{Database, QueryResult, Session};
use corgipile_storage::{IoStats, SimDevice, Table};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["train_clustered", "predict_serve", "ingest_continuous"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Heap block size of every table.
const BLOCK_BYTES: usize = 64 << 10;
/// Scaled HDD: seeks 1000× shorter than a real disk (see `SimDevice`).
const HDD_SCALE: f64 = 1000.0;
/// TRAIN seeds rotate over this set, starting at the workload seed, so
/// every run trains the same models whatever its length.
const TRAIN_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// No run measures for longer than this, whatever its minimum counts.
const HARD_CAP_S: f64 = 120.0;
/// Time slices for the throughput median ([`windowed_rate`]).
const RATE_SLICES: usize = 20;

const TRAIN_ROWS: usize = 200_000;
const TRAIN_EPOCHS: usize = 2;
/// Enough TRAIN statements for a p90 with ten samples beyond it.
const MIN_TRAINS: usize = 100;

const PREDICT_ROWS: usize = 20_000;
const PREDICT_SESSIONS: usize = 2;
/// Enough PREDICT statements for a p99 with ten samples beyond it.
const MIN_PREDICTS: u64 = 1_000;

const BASE_ROWS: usize = 100_000;
const INSERT_ROWS: usize = 100;
const EPISODE_INSERTS: usize = 100;
const MIN_EPISODES: usize = 2;
/// Untraced runs: enough INSERTs for a p99 with ten samples beyond it.
const MIN_UNTRACED_EPISODES: usize = 10;
const CONTINUOUS_EPOCHS: usize = 3;

/// One invocation's settings.
pub struct Run {
    /// Workload seed: generates every input.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Where the run may write (durable engine directories).
    pub out_dir: PathBuf,
}

/// Statements attempted, how many errored or failed a correctness
/// check, and the first few reasons.
#[derive(Default)]
pub struct Checks {
    /// Statements attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Checks {
    fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(p);
            }
        }
    }

    fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 10usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }
}

/// Everything a run measured.
#[derive(Default)]
pub struct Report {
    /// Correctness tally.
    pub checks: Checks,
    /// Gated end-to-end metrics (`BENCHMARK.json`), untraced runs only.
    pub gated: Vec<Metric>,
    /// Every end-to-end number under its workload-specific name.
    pub reported: Vec<Metric>,
    /// Per-layer metrics, traced runs only.
    pub layers: Vec<Metric>,
    /// Run provenance.
    pub provenance: Vec<(&'static str, String)>,
    /// Recorded spans, traced runs only.
    pub spans: Vec<Span>,
}

impl Report {
    fn prov(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }
}

/// Run `workload`.
pub fn run(workload: &str, run: &Run) -> Result<Report, String> {
    let mut r = Report::default();
    r.prov("workload", workload);
    r.prov("seed", run.seed);
    r.prov("seconds", run.seconds);
    r.prov("trace", u8::from(run.trace));
    r.prov(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    r.prov("device_profile", format!("hdd_scaled({HDD_SCALE})"));
    r.prov("block_bytes", BLOCK_BYTES);
    let ticks = cpu_ticks();
    match workload {
        "train_clustered" => train_clustered(run, &mut r)?,
        "predict_serve" => predict_serve(run, &mut r)?,
        "ingest_continuous" => ingest_continuous(run, &mut r)?,
        other => return Err(format!("unknown workload {other}")),
    }
    if let Some(pct) = steal_pct(ticks, cpu_ticks()) {
        r.prov("cpu_steal_pct", format!("{pct:.2}"));
    }
    Ok(r)
}

/// Run `f` [`SETUP_REPEATS`] times; keep the last result and the median
/// time.
fn repeated_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let v = f()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((
        last.expect("at least one set-up"),
        median(&times).expect("at least one set-up"),
    ))
}

fn describe_table(r: &mut Report, prefix: &'static str, t: &Table) {
    r.prov(
        prefix,
        format!(
            "rows={} bytes={} blocks={}",
            t.num_tuples(),
            t.total_bytes(),
            t.num_blocks()
        ),
    );
}

/// The gated metrics every untraced run reports.
fn gate(r: &mut Report, lat_ms: &[f64], rows_per_s: f64, setup_s: f64) {
    let p50 = median(lat_ms).unwrap_or(f64::NAN);
    if let Some((q1, q2, q3)) = quartiles(lat_ms) {
        r.prov(
            "stmt_ms_quartiles",
            format!(
                "{q1:.3} / {q2:.3} / {q3:.3} over {} statements",
                lat_ms.len()
            ),
        );
    }
    r.gated = vec![
        metric("stmt_ms_p50", p50, "ms", "lower"),
        metric("rows_per_s", rows_per_s, "1/s", "higher"),
        metric("setup_s", setup_s, "s", "lower"),
        metric(
            "peak_rss_mb",
            peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
            "lower",
        ),
    ];
}

fn failed_ratio(r: &Report) -> Metric {
    let c = &r.checks;
    let v = if c.attempted == 0 {
        0.0
    } else {
        c.failed as f64 / c.attempted as f64
    };
    metric("failed_ops_ratio", v, "ratio", "lower")
}

fn pct_over(numer: Option<f64>, denom: Option<f64>) -> f64 {
    match (numer, denom) {
        (Some(a), Some(b)) if b > 0.0 => (a / b - 1.0) * 100.0,
        _ => 0.0,
    }
}

/// How one statement runs.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Untraced, session telemetry on (the default).
    On,
    /// Untraced, session telemetry off.
    Off,
    /// Traced (`layers.rs`).
    Traced,
}

/// Statement `k`'s mode: untraced runs only run `On`; traced runs rotate
/// the three, so the telemetry and tracing overheads compare statements
/// from the same stretch of time.
fn mode_at(trace: bool, k: usize) -> Mode {
    if trace {
        [Mode::On, Mode::Off, Mode::Traced][k % 3]
    } else {
        Mode::On
    }
}

/// Statement wall times (ms) by mode.
#[derive(Default)]
struct Lat {
    on: Vec<f64>,
    off: Vec<f64>,
    traced: Vec<f64>,
}

impl Lat {
    fn push(&mut self, mode: Mode, ms: f64) {
        match mode {
            Mode::On => self.on.push(ms),
            Mode::Off => self.off.push(ms),
            Mode::Traced => self.traced.push(ms),
        }
    }

    fn extend(&mut self, other: Lat) {
        self.on.extend(other.on);
        self.off.extend(other.off);
        self.traced.extend(other.traced);
    }

    fn describe(&self) -> String {
        format!(
            "telemetry on={} off={} traced={}",
            self.on.len(),
            self.off.len(),
            self.traced.len()
        )
    }
}

// ---------------------------------------------------------------------
// train_clustered
// ---------------------------------------------------------------------

fn train_sql(seed: u64) -> String {
    format!(
        "SELECT * FROM higgs TRAIN BY lr WITH max_epoch_num = {TRAIN_EPOCHS}, \
         strategy = 'corgipile', seed = {seed}, model_name = m"
    )
}

/// First result seen per TRAIN seed, traced or not: every later statement
/// with that seed must match it bit for bit.
type Reference = HashMap<u64, (Vec<f32>, f64)>;

fn check_repeat(refs: &mut Reference, seed: u64, params: Vec<f32>, metric: f64) -> Option<String> {
    match refs.get(&seed) {
        Some((p, m)) if *p == params && m.to_bits() == metric.to_bits() => None,
        Some(_) => Some(format!(
            "TRAIN seed {seed} differs between runs of the statement"
        )),
        None => {
            refs.insert(seed, (params, metric));
            None
        }
    }
}

/// One untraced TRAIN statement: checks its shape and repeatability.
/// Returns (SGD tuples, simulated seconds) when it succeeded.
fn untraced_train(s: &mut Session, seed: u64, refs: &mut Reference) -> Result<(u64, f64), String> {
    let summary = match s.execute(&train_sql(seed)) {
        Ok(QueryResult::Train(t)) => t,
        Ok(_) => return Err("TRAIN returned a non-TRAIN result".into()),
        Err(e) => return Err(format!("TRAIN failed: {e}")),
    };
    if summary.epochs.len() != TRAIN_EPOCHS || summary.epochs.iter().any(|e| e.tuples != TRAIN_ROWS)
    {
        return Err(format!(
            "TRAIN seed {seed} did not see every tuple every epoch"
        ));
    }
    let m = s
        .catalog()
        .model("m")
        .map_err(|e| format!("model m missing after TRAIN: {e}"))?;
    if let Some(problem) = check_repeat(refs, seed, m.params, summary.final_train_metric) {
        return Err(problem);
    }
    let tuples = summary.epochs.iter().map(|e| e.tuples as u64).sum();
    Ok((tuples, summary.total_seconds()))
}

fn train_clustered(run: &Run, r: &mut Report) -> Result<(), String> {
    let (db, setup_s) = repeated_setup(|| {
        let table = DatasetSpec::higgs_like(TRAIN_ROWS)
            .with_order(Order::ClusteredByLabel)
            .with_block_bytes(BLOCK_BYTES)
            .build_table(run.seed)
            .map_err(|e| e.to_string())?;
        let db = Database::new(SimDevice::hdd_scaled(HDD_SCALE, table.total_bytes() / 2));
        db.register_table("higgs", table);
        Ok(db)
    })?;
    let table = db.catalog().table("higgs").map_err(|e| e.to_string())?;
    describe_table(r, "table", &table);
    r.prov("device_cache_bytes", table.total_bytes() / 2);
    r.prov("shared_buffers_bytes", 0);
    r.prov("sessions", 1);
    r.prov("client_model", "closed loop");
    r.prov(
        "statement",
        format!("TRAIN BY lr, {TRAIN_EPOCHS} epochs, corgipile, seed rotating over 1..=8"),
    );
    let offset = run.seed as usize % TRAIN_SEEDS.len();
    let seed_at = |k: usize| TRAIN_SEEDS[(offset + k) % TRAIN_SEEDS.len()];
    let mut session = db.connect();
    let mut refs = Reference::new();
    let tracer = Tracer::new();
    // A traced run covers every seed in every mode at least once.
    let min = if run.trace {
        3 * TRAIN_SEEDS.len()
    } else {
        MIN_TRAINS
    };
    let mut lat = Lat::default();
    let (mut sims, mut work, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut k = 0;
    while (k < min || start.elapsed().as_secs_f64() < run.seconds)
        && start.elapsed().as_secs_f64() < HARD_CAP_S
    {
        let seed = seed_at(k);
        let mode = mode_at(run.trace, k);
        let a = start.elapsed().as_secs_f64();
        let outcome = if mode == Mode::Traced {
            layers::traced_train(&mut session, &train_sql(seed), &tracer)
                .map_err(|e| format!("traced TRAIN failed: {e}"))
                .and_then(|mut o| {
                    o.pins.clear();
                    let params = o.params.clone();
                    if let Some(p) = check_repeat(&mut refs, seed, params, o.metric) {
                        return Err(format!("traced: {p}"));
                    }
                    traced.push(o);
                    Ok(None)
                })
        } else {
            session.set_telemetry_enabled(mode == Mode::On);
            untraced_train(&mut session, seed, &mut refs).map(Some)
        };
        let b = start.elapsed().as_secs_f64();
        match outcome {
            Ok(untraced) => {
                lat.push(mode, (b - a) * 1e3);
                if let Some((tuples, sim)) = untraced.filter(|_| mode == Mode::On) {
                    work.push((a, b, tuples as f64));
                    sims.push(sim);
                }
                r.checks.check(None);
            }
            Err(problem) => r.checks.check(Some(problem)),
        }
        k += 1;
    }
    session.set_telemetry_enabled(true);
    r.prov("statements", lat.describe());

    if !run.trace {
        let rows_per_s = windowed_rate(&work, RATE_SLICES).unwrap_or(f64::NAN);
        gate(r, &lat.on, rows_per_s, setup_s);
        let acc: Vec<f64> = refs.values().map(|(_, m)| *m).collect();
        r.reported = vec![
            metric("train_tuples_per_s", rows_per_s, "1/s", "higher"),
            metric(
                "train_ms_p50",
                median(&lat.on).unwrap_or(f64::NAN),
                "ms",
                "lower",
            ),
            metric(
                "train_ms_p90",
                percentile(&lat.on, 90.0).unwrap_or(f64::NAN),
                "ms",
                "lower",
            ),
            metric(
                "train_accuracy",
                acc.iter().sum::<f64>() / acc.len().max(1) as f64,
                "ratio",
                "higher",
            ),
            metric(
                "train_sim_s",
                median(&sims).unwrap_or(f64::NAN),
                "s",
                "lower",
            ),
            failed_ratio(r),
        ];
        return Ok(());
    }
    r.spans = tracer.spans();
    r.layers = layer_metrics(&Layers {
        profiles: &trace::profiles(&r.spans),
        primary: "stmt.train",
        trains: &traced,
        predicts: &[],
        inserts: &[],
        lat: &lat,
        wal_bytes_per_user_byte: 0.0,
        serving_hit_rate: 0.0,
    });
    Ok(())
}

// ---------------------------------------------------------------------
// predict_serve
// ---------------------------------------------------------------------

const PREDICT_SQL: &str = "PREDICT m ON serve";

/// Bench-side reference labels of the served version: `w·x + b` in f64.
/// A row whose score is within rounding of 0 accepts either label.
struct Expected {
    version: u32,
    labels: Vec<f32>,
    ambiguous: Vec<bool>,
}

impl Expected {
    fn of(db: &Database) -> Result<Expected, String> {
        let pin = db.model_cache().pin("m").ok_or("model m is not served")?;
        let p = &pin.stored().params;
        let (w, b) = p.split_at(p.len() - 1);
        let b = f64::from(b[0]);
        let table = db.catalog().table("serve").map_err(|e| e.to_string())?;
        let mut labels = Vec::new();
        let mut ambiguous = Vec::new();
        for t in table.all_tuples() {
            let terms = t
                .features
                .iter()
                .map(|(i, x)| f64::from(x) * f64::from(w[i]));
            let (s, mag) = terms.fold((b, b.abs()), |(s, m), v| (s + v, m + v.abs()));
            labels.push(if s >= 0.0 { 1.0 } else { -1.0 });
            ambiguous.push(s.abs() <= 1e-4 * mag);
        }
        Ok(Expected {
            version: pin.version(),
            labels,
            ambiguous,
        })
    }

    fn check(&self, version: u32, predictions: &[f32]) -> Option<String> {
        if version != self.version {
            return Some(format!(
                "PREDICT served v{version}, expected v{}",
                self.version
            ));
        }
        if predictions.len() != self.labels.len() {
            return Some(format!(
                "PREDICT returned {} rows, table has {}",
                predictions.len(),
                self.labels.len()
            ));
        }
        let wrong = predictions
            .iter()
            .zip(&self.labels)
            .zip(&self.ambiguous)
            .filter(|((p, e), amb)| p != e && !**amb)
            .count();
        (wrong > 0)
            .then(|| format!("PREDICT disagrees with the dot-product reference on {wrong} rows"))
    }
}

#[derive(Default)]
struct PredictClient {
    checks: Checks,
    lat: Lat,
    /// `(start s, end s, rows)` of each correct untraced statement.
    work: Vec<(f64, f64, f64)>,
    traced: Vec<PredictOutcome>,
}

fn predict_clients(
    db: &Arc<Database>,
    expected: &Expected,
    seconds: f64,
    trace: bool,
    tracer: &Tracer,
) -> Vec<PredictClient> {
    let done = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PREDICT_SESSIONS)
            .map(|_| {
                let tracer = tracer.client();
                let done = &done;
                scope.spawn(move || {
                    let mut s = db.connect();
                    let mut c = PredictClient::default();
                    let mut k = 0usize;
                    while (done.load(Ordering::Relaxed) < MIN_PREDICTS
                        || start.elapsed().as_secs_f64() < seconds)
                        && start.elapsed().as_secs_f64() < HARD_CAP_S
                    {
                        let mode = mode_at(trace, k);
                        let a = start.elapsed().as_secs_f64();
                        let got = if mode == Mode::Traced {
                            layers::traced_predict(&mut s, PREDICT_SQL, &tracer).map(|mut o| {
                                let preds = std::mem::take(&mut o.predictions);
                                (o.version, preds, Some(o))
                            })
                        } else {
                            s.set_telemetry_enabled(mode == Mode::On);
                            s.execute(PREDICT_SQL).map(|q| match q {
                                QueryResult::Serve(p) => (p.version, p.predictions, None),
                                _ => (u32::MAX, Vec::new(), None),
                            })
                        };
                        let b = start.elapsed().as_secs_f64();
                        match got {
                            Ok((version, preds, outcome)) => {
                                let problem = expected.check(version, &preds);
                                if problem.is_none() {
                                    c.lat.push(mode, (b - a) * 1e3);
                                    if mode == Mode::On {
                                        c.work.push((a, b, preds.len() as f64));
                                    }
                                }
                                c.checks.check(problem);
                                c.traced.extend(outcome);
                            }
                            Err(e) => c.checks.check(Some(format!("PREDICT failed: {e}"))),
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                        k += 1;
                    }
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("PREDICT client panicked"))
            .collect()
    })
}

fn predict_serve(run: &Run, r: &mut Report) -> Result<(), String> {
    let (db, setup_s) = repeated_setup(|| {
        let table = DatasetSpec::higgs_like(PREDICT_ROWS)
            .with_block_bytes(BLOCK_BYTES)
            .build_table(run.seed)
            .map_err(|e| e.to_string())?;
        let db = Database::new(SimDevice::hdd_scaled(HDD_SCALE, 3 * table.total_bytes()));
        db.register_table("serve", table);
        let mut s = db.connect();
        s.execute(&format!(
            "SELECT * FROM serve TRAIN BY lr WITH max_epoch_num = 3, \
             strategy = 'corgipile', seed = {}, model_name = m",
            run.seed
        ))
        .map_err(|e| e.to_string())?;
        // Warm the device cache: the workload measures the cached case.
        s.execute(PREDICT_SQL).map_err(|e| e.to_string())?;
        Ok(db)
    })?;
    let table = db.catalog().table("serve").map_err(|e| e.to_string())?;
    describe_table(r, "table", &table);
    r.prov("device_cache_bytes", 3 * table.total_bytes());
    r.prov("shared_buffers_bytes", 0);
    r.prov("sessions", PREDICT_SESSIONS);
    r.prov("client_model", "closed loop");
    r.prov("statement", PREDICT_SQL);
    let expected = Expected::of(&db)?;
    let cache_before = db.model_cache().stats();
    let tracer = Tracer::new();
    let mut lat = Lat::default();
    let (mut work, mut traced) = (Vec::new(), Vec::new());
    for c in predict_clients(&db, &expected, run.seconds, run.trace, &tracer) {
        lat.extend(c.lat);
        work.extend(c.work);
        traced.extend(c.traced);
        r.checks.merge(c.checks);
    }
    r.prov("statements", lat.describe());

    if !run.trace {
        let rows_per_s = windowed_rate(&work, RATE_SLICES).unwrap_or(f64::NAN);
        gate(r, &lat.on, rows_per_s, setup_s);
        r.reported = vec![
            metric("predict_rows_per_s", rows_per_s, "1/s", "higher"),
            metric(
                "predict_ms_p50",
                median(&lat.on).unwrap_or(f64::NAN),
                "ms",
                "lower",
            ),
            metric(
                "predict_ms_p99",
                percentile(&lat.on, 99.0).unwrap_or(f64::NAN),
                "ms",
                "lower",
            ),
            failed_ratio(r),
        ];
        return Ok(());
    }
    let cache = db.model_cache().stats();
    let hits = cache.hits - cache_before.hits;
    let pins = hits + cache.misses - cache_before.misses;
    r.spans = tracer.spans();
    r.layers = layer_metrics(&Layers {
        profiles: &trace::profiles(&r.spans),
        primary: "stmt.predict",
        trains: &[],
        predicts: &traced,
        inserts: &[],
        lat: &lat,
        wal_bytes_per_user_byte: 0.0,
        serving_hit_rate: if pins == 0 {
            0.0
        } else {
            hits as f64 / pins as f64
        },
    });
    Ok(())
}

// ---------------------------------------------------------------------
// ingest_continuous
// ---------------------------------------------------------------------

const TABLE: &str = "stream";

fn continuous_sql(seed: u64) -> String {
    format!(
        "SELECT * FROM {TABLE} TRAIN BY svm CONTINUOUS WITH refresh = 1, \
         strategy = 'corgipile', max_epoch_num = {CONTINUOUS_EPOCHS}, seed = {seed}, \
         model_name = c, double_buffer = 0"
    )
}

/// The episode's INSERT statements, generated once from the seed.
fn insert_statements(seed: u64) -> Vec<String> {
    let rows = DatasetSpec::higgs_like(EPISODE_INSERTS * INSERT_ROWS).build(seed ^ 0x1_0000);
    rows.train
        .chunks(INSERT_ROWS)
        .map(|chunk| {
            let values: Vec<String> = chunk
                .iter()
                .map(|t| {
                    let f = &t.features;
                    let mut v: Vec<String> =
                        (0..f.dim()).map(|i| format!("{}", f.get(i))).collect();
                    v.push(format!("{}", t.label));
                    format!("({})", v.join(", "))
                })
                .collect();
            format!("INSERT INTO {TABLE} VALUES {}", values.join(", "))
        })
        .collect()
}

/// A fresh durable engine at `dir` holding a copy of `base`.
fn open_episode(base: &Table, dir: &Path) -> Result<Arc<Database>, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let db = Database::with_model_store(
        SimDevice::hdd_scaled(HDD_SCALE, 2 * base.total_bytes()),
        0,
        dir,
    )
    .map_err(|e| e.to_string())?;
    db.register_table(TABLE, base.clone());
    Ok(db)
}

#[derive(Default)]
struct Episode {
    checks: Checks,
    /// INSERT wall times by mode.
    lat: Lat,
    insert_wall_s: f64,
    /// `(start s, end s, rows)` of each correct untraced INSERT, from the
    /// episode's first INSERT.
    work: Vec<(f64, f64, f64)>,
    inserts: Vec<InsertOutcome>,
    train_tuples: u64,
    train_wall_s: f64,
    trains: Vec<TrainOutcome>,
    wal_bytes: u64,
}

fn check_trainer(summary: &corgipile_db::DbTrainSummary) -> Option<String> {
    let max = (BASE_ROWS + EPISODE_INSERTS * INSERT_ROWS) as u64;
    let seen: Vec<u64> = summary.epochs.iter().map(|e| e.tuples as u64).collect();
    let ok = seen.len() == CONTINUOUS_EPOCHS
        && seen.iter().all(|n| (BASE_ROWS as u64..=max).contains(n))
        && seen.windows(2).all(|w| w[0] <= w[1]);
    (!ok).then(|| format!("CONTINUOUS epochs saw {seen:?} tuples"))
}

/// The trainer session: CONTINUOUS statements back to back until `done`.
fn trainer(
    db: &Arc<Database>,
    seed_at: &(dyn Fn(usize) -> u64 + Sync),
    trace: bool,
    tracer: &Tracer,
    done: &AtomicBool,
) -> Episode {
    let mut s = db.connect();
    let mut ep = Episode::default();
    let mut k = 0;
    while !done.load(Ordering::SeqCst) {
        let sql = continuous_sql(seed_at(k));
        let mode = mode_at(trace, k);
        let t0 = Instant::now();
        let problem = if mode == Mode::Traced {
            match layers::traced_train(&mut s, &sql, tracer) {
                Ok(mut o) => {
                    ep.train_wall_s += t0.elapsed().as_secs_f64();
                    ep.train_tuples += o.sgd_tuples;
                    // Drop the pinned snapshots once replayed: they would
                    // keep every version alive until the run ends.
                    let pins = std::mem::take(&mut o.pins);
                    let replay = layers::replay_train(db, &sql, &pins);
                    ep.trains.push(o);
                    match replay {
                        Ok(p) if p == ep.trains[ep.trains.len() - 1].params => None,
                        Ok(_) => Some("traced CONTINUOUS differs from its replay".into()),
                        Err(e) => Some(format!("CONTINUOUS replay failed: {e}")),
                    }
                }
                Err(e) => Some(format!("traced CONTINUOUS failed: {e}")),
            }
        } else {
            s.set_telemetry_enabled(mode == Mode::On);
            match s.execute(&sql) {
                Ok(QueryResult::Train(t)) => {
                    ep.train_wall_s += t0.elapsed().as_secs_f64();
                    ep.train_tuples += t.epochs.iter().map(|e| e.tuples as u64).sum::<u64>();
                    check_trainer(&t)
                }
                Ok(_) => Some("CONTINUOUS returned a non-TRAIN result".into()),
                Err(e) => Some(format!("CONTINUOUS failed: {e}")),
            }
        };
        ep.checks.check(problem);
        k += 1;
    }
    ep
}

/// One episode: the INSERT session runs `statements` while a trainer
/// session runs CONTINUOUS statements until the INSERTs are done.
fn episode(
    db: &Arc<Database>,
    dir: &Path,
    statements: &[String],
    seed_at: &(dyn Fn(usize) -> u64 + Sync),
    trace: bool,
    tracer: &Tracer,
) -> Episode {
    let done = AtomicBool::new(false);
    let trainer_tracer = tracer.client();
    let mut ep = std::thread::scope(|scope| {
        let trainer = scope.spawn(|| trainer(db, seed_at, trace, &trainer_tracer, &done));
        let mut ep = Episode::default();
        let mut s = db.connect();
        let mut version = db.catalog().table_version(TABLE).unwrap_or(0);
        let mut total = BASE_ROWS as u64;
        let start = Instant::now();
        for (i, sql) in statements.iter().enumerate() {
            let mode = mode_at(trace, i);
            let a = start.elapsed().as_secs_f64();
            let got = if mode == Mode::Traced {
                layers::traced_insert(db, sql, tracer).map(|o| {
                    let v = (o.rows, o.version, o.total_tuples);
                    ep.inserts.push(o);
                    v
                })
            } else {
                s.set_telemetry_enabled(mode == Mode::On);
                s.execute(sql).map(|q| match q {
                    QueryResult::Insert {
                        rows,
                        version,
                        total_tuples,
                        ..
                    } => (rows, version, total_tuples),
                    _ => (0, 0, 0),
                })
            };
            let b = start.elapsed().as_secs_f64();
            let problem = match got {
                Ok((rows, v, t)) => {
                    let ok = rows == INSERT_ROWS as u64 && v == version + 1 && t == total + rows;
                    version = v;
                    total = t;
                    if ok {
                        if mode == Mode::On {
                            ep.work.push((a, b, rows as f64));
                        }
                        ep.lat.push(mode, (b - a) * 1e3);
                        None
                    } else {
                        Some(format!("INSERT {i} published v{v} with {t} tuples"))
                    }
                }
                Err(e) => Some(format!("INSERT {i} failed: {e}")),
            };
            ep.checks.check(problem);
        }
        ep.insert_wall_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let t = trainer.join().expect("trainer thread panicked");
        ep.checks.merge(t.checks);
        ep.train_tuples = t.train_tuples;
        ep.train_wall_s = t.train_wall_s;
        ep.trains = t.trains;
        ep
    });
    ep.wal_bytes =
        std::fs::metadata(dir.join("tables").join(format!("{TABLE}.wal"))).map_or(0, |m| m.len());
    ep
}

fn ingest_continuous(run: &Run, r: &mut Report) -> Result<(), String> {
    let root = run.out_dir.join(format!("ingest-{}", std::process::id()));
    let dir = root.join("engine");
    let result = ingest_in(run, r, &dir);
    std::fs::remove_dir_all(&root).ok();
    result
}

fn ingest_in(run: &Run, r: &mut Report, dir: &Path) -> Result<(), String> {
    let ((mut db, base, statements), setup_s) = repeated_setup(|| {
        let base = DatasetSpec::higgs_like(BASE_ROWS)
            .with_block_bytes(BLOCK_BYTES)
            .build_table(run.seed)
            .map_err(|e| e.to_string())?;
        let statements = insert_statements(run.seed);
        let db = open_episode(&base, dir)?;
        Ok((db, base, statements))
    })?;
    describe_table(r, "base_table", &base);
    r.prov("device_cache_bytes", 2 * base.total_bytes());
    r.prov("shared_buffers_bytes", 0);
    r.prov("sessions", 2);
    r.prov(
        "client_model",
        "closed loop: 1 INSERT session + 1 TRAIN … CONTINUOUS session",
    );
    r.prov(
        "episode",
        format!(
            "{EPISODE_INSERTS} INSERTs of {INSERT_ROWS} rows from the base table; \
             table WAL fsynced per statement"
        ),
    );
    let offset = run.seed as usize % TRAIN_SEEDS.len();
    let seed_at = move |k: usize| TRAIN_SEEDS[(offset + k) % TRAIN_SEEDS.len()];
    let tracer = Tracer::new();
    let min = if run.trace {
        MIN_EPISODES
    } else {
        MIN_UNTRACED_EPISODES
    };
    let mut eps: Vec<Episode> = Vec::new();
    let start = Instant::now();
    while (eps.len() < min || start.elapsed().as_secs_f64() < run.seconds)
        && start.elapsed().as_secs_f64() < HARD_CAP_S
    {
        if !eps.is_empty() {
            db = open_episode(&base, dir)?;
        }
        let mut ep = episode(&db, dir, &statements, &seed_at, run.trace, &tracer);
        r.checks.merge(std::mem::take(&mut ep.checks));
        eps.push(ep);
    }
    let mut lat = Lat::default();
    let (mut trains, mut inserts) = (Vec::new(), Vec::new());
    let (mut train_tuples, mut train_wall) = (0u64, 0f64);
    // Episodes laid end to end: the resets between them are not INSERT time.
    let mut work = Vec::new();
    let mut offset_s = 0.0;
    // Raw f32 features plus the f32 label: the bytes a user asked to store.
    let user_bytes =
        (EPISODE_INSERTS * INSERT_ROWS * (DatasetSpec::higgs_like(1).dim() + 1) * 4) as f64;
    let mut wal = Vec::new();
    let episodes = eps.len();
    for e in eps {
        work.extend(
            e.work
                .iter()
                .map(|(a, b, n)| (a + offset_s, b + offset_s, *n)),
        );
        offset_s += e.insert_wall_s;
        wal.push(e.wal_bytes as f64 / user_bytes);
        train_tuples += e.train_tuples;
        train_wall += e.train_wall_s;
        lat.extend(e.lat);
        trains.extend(e.trains);
        inserts.extend(e.inserts);
    }
    r.prov(
        "statements",
        format!("INSERTs {}, episodes {episodes}", lat.describe()),
    );

    if !run.trace {
        let rows_per_s = windowed_rate(&work, RATE_SLICES).unwrap_or(f64::NAN);
        gate(r, &lat.on, rows_per_s, setup_s);
        r.reported = vec![
            metric("insert_rows_per_s", rows_per_s, "1/s", "higher"),
            metric(
                "insert_ms_p50",
                median(&lat.on).unwrap_or(f64::NAN),
                "ms",
                "lower",
            ),
            metric(
                "insert_ms_p99",
                percentile(&lat.on, 99.0).unwrap_or(f64::NAN),
                "ms",
                "lower",
            ),
            metric(
                "train_tuples_per_s",
                train_tuples as f64 / train_wall.max(1e-9),
                "1/s",
                "higher",
            ),
            failed_ratio(r),
        ];
        return Ok(());
    }
    r.spans = tracer.spans();
    r.layers = layer_metrics(&Layers {
        profiles: &trace::profiles(&r.spans),
        primary: "stmt.insert",
        trains: &trains,
        predicts: &[],
        inserts: &inserts,
        lat: &lat,
        wal_bytes_per_user_byte: median(&wal).unwrap_or(0.0),
        serving_hit_rate: 0.0,
    });
    Ok(())
}

// ---------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------

struct Layers<'a> {
    profiles: &'a HashMap<u64, StatementProfile>,
    /// Root span name of the workload's measured statement.
    primary: &'static str,
    trains: &'a [TrainOutcome],
    predicts: &'a [PredictOutcome],
    inserts: &'a [InsertOutcome],
    /// Statement wall times of the measured statement, by mode.
    lat: &'a Lat,
    wal_bytes_per_user_byte: f64,
    serving_hit_rate: f64,
}

/// Median of `values` (0 when there are none).
fn med(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>()).unwrap_or(0.0)
}

fn layer_metrics(l: &Layers) -> Vec<Metric> {
    // Self ns of span `name` in statement `stmt`.
    let ns = |stmt: u64, name: &str| l.profiles.get(&stmt).map_or(0, |p| p.get(name));
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let primary: Vec<&StatementProfile> = l
        .profiles
        .values()
        .filter(|p| p.kind == l.primary)
        .collect();
    // Scan-side figures come from whichever statements scan: TRAINs, or
    // PREDICTs on predict_serve.
    let scans: Vec<(u64, u64, &IoStats)> = l
        .trains
        .iter()
        .map(|o| (o.stmt, o.scanned, &o.io))
        .chain(l.predicts.iter().map(|o| (o.stmt, o.scanned, &o.io)))
        .collect();
    let pins = l
        .trains
        .iter()
        .map(|o| (o.stmt, o.chunks))
        .chain(l.predicts.iter().map(|o| (o.stmt, 1)));
    let wall: u64 = primary.iter().map(|p| p.wall).sum();
    let unattributed: u64 = primary.iter().map(|p| p.unattributed).sum();
    let values: Vec<(&str, f64)> = vec![
        (
            "sql.parse_us",
            med(primary.iter().map(|p| p.get("sql.parse") as f64 / 1e3)),
        ),
        (
            "plan.build_us",
            med(scans.iter().map(|s| ns(s.0, "plan.build") as f64 / 1e3)),
        ),
        (
            "catalog.snapshot_us",
            med(pins.map(|(stmt, n)| per(ns(stmt, "catalog.snapshot"), n) / 1e3)),
        ),
        (
            "catalog.append_ms",
            med(l
                .inserts
                .iter()
                .map(|o| ns(o.stmt, "catalog.append") as f64 / 1e6)),
        ),
        ("storage.wal_bytes_per_user_byte", l.wal_bytes_per_user_byte),
        (
            "storage.scan_ns_per_tuple",
            med(scans.iter().map(|s| per(ns(s.0, "storage.scan"), s.1))),
        ),
        (
            "storage.random_reads",
            med(scans.iter().map(|s| s.2.random_reads as f64)),
        ),
        (
            "storage.sequential_reads",
            med(scans.iter().map(|s| s.2.sequential_reads as f64)),
        ),
        (
            "storage.device_bytes",
            med(scans.iter().map(|s| s.2.device_bytes as f64)),
        ),
        (
            "storage.cache_hit_rate",
            med(scans.iter().map(|s| s.2.cache_hit_rate())),
        ),
        (
            "storage.pipeline_stall_ms",
            med(l.trains.iter().map(|o| o.pipeline.stall_wall_seconds * 1e3)),
        ),
        (
            "storage.pipeline_backpressure_ms",
            med(l
                .trains
                .iter()
                .map(|o| o.pipeline.backpressure_wall_seconds * 1e3)),
        ),
        (
            "shuffle.fill_ns_per_tuple",
            med(l
                .trains
                .iter()
                .map(|o| per(ns(o.stmt, "shuffle.fill"), o.buffered))),
        ),
        (
            "shuffle.fills",
            med(l.trains.iter().map(|o| o.fills as f64)),
        ),
        (
            "shuffle.tuples_per_fill",
            med(l.trains.iter().map(|o| per(o.buffered, o.fills))),
        ),
        (
            "exec.sgd_ns_per_tuple",
            med(l
                .trains
                .iter()
                .map(|o| per(ns(o.stmt, "exec.sgd"), o.sgd_tuples))),
        ),
        (
            "exec.predict_ns_per_row",
            med(l
                .predicts
                .iter()
                .map(|o| per(ns(o.stmt, "exec.predict"), o.scanned))),
        ),
        (
            "ml.sgd_ns_per_tuple",
            med(l
                .trains
                .iter()
                .map(|o| per(ns(o.stmt, "ml.sgd"), o.sgd_tuples))),
        ),
        (
            "ml.flops_per_tuple",
            med(l
                .trains
                .iter()
                .filter(|o| o.sgd_tuples > 0)
                .map(|o| o.flops / o.sgd_tuples as f64)),
        ),
        (
            "serving.pin_us",
            med(l
                .predicts
                .iter()
                .map(|o| ns(o.stmt, "serving.pin") as f64 / 1e3)),
        ),
        ("serving.cache_hit_rate", l.serving_hit_rate),
        (
            "telemetry.overhead_pct",
            pct_over(median(&l.lat.on), median(&l.lat.off)),
        ),
        (
            "trace.overhead_pct",
            pct_over(median(&l.lat.traced), median(&l.lat.on)),
        ),
        ("trace.unattributed_pct", 100.0 * per(unattributed, wall)),
    ];
    values
        .into_iter()
        .map(|(name, value)| {
            let d = crate::names::find(name).expect("every layer metric is defined");
            metric(d.name, value, d.unit, d.better)
        })
        .collect()
}
