//! The repository's benchmark: wall-clock TRAIN, PREDICT and INSERT
//! workloads through the public SQL surface, with an outside-in traced
//! run that splits statement time by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_clustered --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints a human-readable table, then — as the last stdout line — one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` with the
//! gated end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The full record, with provenance, goes to
//! `perfbench/out/`; a traced run also writes its spans there. Exits 1
//! when any statement errored or failed a correctness check.

mod layers;
mod names;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{quote, Metric};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Report, Run, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let mut line = format!(
            "  {:<34} {:>16.6} {:<6} {} is better",
            m.name, m.value, m.unit, m.better
        );
        if let Some(d) = names::find(m.name) {
            line.push_str(&format!("  -> {}", d.note));
        }
        println!("{line}");
    }
}

fn record_json(args: &Args, r: &Report, correct: bool) -> String {
    let prov: Vec<String> = r
        .provenance
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    let errors: Vec<String> = r.checks.errors.iter().map(|e| quote(e)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"provenance\": {{{}}}, \
         \"gated\": {}, \"reported\": {}, \"per_layer\": {}}}\n",
        quote(&args.workload),
        args.seed,
        u8::from(args.trace),
        r.checks.attempted,
        r.checks.failed,
        errors.join(", "),
        prov.join(", "),
        report::metrics_object(&r.gated),
        report::metrics_object(&r.reported),
        report::metrics_object(&r.layers),
    )
}

fn write_outputs(dir: &Path, args: &Args, r: &Report, correct: bool) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        dir.join(format!("{stem}.json")),
        record_json(args, r, correct),
    )?;
    if !r.spans.is_empty() {
        let mut f = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.spans.jsonl")),
        )?);
        for s in &r.spans {
            writeln!(
                f,
                "{{\"id\": {}, \"parent\": {}, \"stmt\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.stmt,
                quote(s.name),
                s.start,
                s.end
            )?;
        }
        f.flush()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out_dir = bench_dir.join("out");
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: out_dir.clone(),
    };
    let mut r = match workloads::run(&args.workload, &run) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let root = bench_dir.parent().unwrap_or(&bench_dir);
    r.provenance.insert(0, ("git_rev", report::git_rev(root)));
    let metrics = if args.trace { &r.layers } else { &r.gated };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = r.checks.failed == 0 && r.checks.attempted > 0 && finite;

    println!(
        "perfbench {} (seed {}, trace {})",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (k, v) in &r.provenance {
        println!("  {k:<22} {v}");
    }
    if args.trace {
        print_table("per-layer metrics (traced run):", &r.layers);
    } else {
        print_table("gated end-to-end metrics (BENCHMARK.json):", &r.gated);
        print_table(
            "end-to-end metrics by workload name (reported, not gated):",
            &r.reported,
        );
    }
    println!(
        "checks: {} attempted, {} failed{}",
        r.checks.attempted,
        r.checks.failed,
        if finite { "" } else { ", non-finite metric" }
    );
    for e in &r.checks.errors {
        println!("  failure: {e}");
    }
    if let Err(e) = write_outputs(&out_dir, &args, &r, correct) {
        eprintln!("perfbench: writing {}: {e}", out_dir.display());
    }
    println!(
        "{}",
        report::result_line(correct, r.checks.attempted.max(1), r.checks.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
