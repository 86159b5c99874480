//! End-to-end benchmark of the paper's workflow: commit TPC-C work under
//! additional logging, query the database as of an earlier instant, flash
//! back a bad batch, and restart after a crash.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oltp|asof_near|asof_far|flashback|restart> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). Everything above it
//! is the human-readable report: the inputs that set the workload's size,
//! every metric by name and unit, and with `--trace 1` the span
//! attribution. The exit code is non-zero when an output check fails.

mod asof;
mod meter;
mod mix;
mod oltp;
mod recover;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one;
/// "op" is the workload's own operation (see `README.md`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_us", "us"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit, end-to-end metric and workload it
/// should move)`. A workload that does not exercise a layer reports 0.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("core.txn_body_p50_us", "us", "op_p50_us on oltp"),
    ("core.txn_body_p99_us", "us", "tpcc_p99_us on oltp"),
    ("core.commit_p50_us", "us", "op_p50_us on oltp"),
    ("core.commit_p99_us", "us", "tpcc_p99_us on oltp"),
    (
        "txn.lock_retries_per_ktxn",
        "1/ktxn",
        "failed count and tpcc_p99_us on oltp",
    ),
    (
        "wal.flushes_per_commit",
        "ratio",
        "ops_per_s and tpcc_p99_us on oltp",
    ),
    (
        "wal.flush_stall_p99_us",
        "us",
        "ops_per_s and tpcc_p99_us on oltp",
    ),
    (
        "wal.log_bytes_per_txn",
        "B",
        "peak_rss_mib on oltp (log space of additional logging)",
    ),
    (
        "wal.log_read_ios_per_query",
        "count",
        "op_p50_us on asof_far",
    ),
    ("wal.log_cache_hit_ratio", "ratio", "op_p50_us on asof_far"),
    (
        "buffer.hit_ratio",
        "ratio",
        "op_p50_us on asof_near (about 1.0 on oltp)",
    ),
    (
        "buffer.evictions_per_query",
        "count",
        "op_p50_us on asof_near",
    ),
    (
        "pagestore.page_reads_per_query",
        "count",
        "op_p50_us on asof_near and asof_far",
    ),
    (
        "pagestore.vectored_read_ops",
        "1/kop",
        "op_p50_us on asof_near and asof_far",
    ),
    (
        "pagestore.page_writes_per_ktxn",
        "1/ktxn",
        "tpcc_p99_us on oltp",
    ),
    (
        "pagestore.batched_write_ops",
        "1/kop",
        "tpcc_p99_us on oltp",
    ),
    ("snapshot.create_p50_us", "us", "op_p50_us on asof_near"),
    ("snapshot.query_p50_us", "us", "op_p50_us on asof_far"),
    ("snapshot.drop_p50_us", "us", "op_p50_us on asof_near"),
    (
        "snapshot.pages_prepared_per_query",
        "count",
        "op_p50_us on asof_far",
    ),
    (
        "snapshot.records_undone_per_query",
        "count",
        "op_p50_us on asof_far",
    ),
    ("repair.harvest_ms", "ms", "op_p50_us on flashback"),
    ("repair.keys_examined", "count", "op_p50_us on flashback"),
    ("repair.applied", "count", "op_p50_us on flashback"),
    ("repair.conflicts", "count", "op_p50_us on flashback"),
    ("core.crash_ms", "ms", "op_p50_us on restart"),
    ("recovery.analysis_ms", "ms", "op_p50_us on restart"),
    ("recovery.redo_ms", "ms", "op_p50_us on restart"),
    ("recovery.undo_ms", "ms", "op_p50_us on restart"),
    ("recovery.unattributed_ms", "ms", "op_p50_us on restart"),
    ("recovery.records_scanned", "count", "op_p50_us on restart"),
    ("recovery.records_redone", "count", "op_p50_us on restart"),
    ("recovery.records_undone", "count", "op_p50_us on restart"),
    ("core.self_us_per_op", "us", "op_p50_us on every workload"),
    (
        "snapshot.self_us_per_op",
        "us",
        "op_p50_us on asof_near and asof_far",
    ),
    ("repair.self_us_per_op", "us", "op_p50_us on flashback"),
    ("recovery.self_us_per_op", "us", "op_p50_us on restart"),
    (
        "trace.unattributed_us_per_op",
        "us",
        "op_p50_us on every workload",
    ),
    (
        "trace.overhead_pct",
        "%",
        "none: traced against untraced operations of the same run",
    ),
];

/// Parsed command line.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed operations plus failed output checks.
    pub failed: u64,
    pub setup_s: Vec<f64>,
    /// Latency of each timed operation, µs, and whether it was traced.
    pub op_us: Vec<(f64, bool)>,
    /// Seconds of measured work `ops_per_s` divides by.
    pub busy_s: f64,
    /// `ops_per_s` when the workload measures it itself (`oltp`: the median
    /// rate over blocks of commits); otherwise ops over `busy_s`.
    pub ops_per_s: Option<f64>,
    /// Per-layer metrics the workload computed; the rest read 0.
    pub layer: BTreeMap<&'static str, f64>,
    /// The workload's own names for its end-to-end results.
    pub named: Vec<(String, &'static str, f64)>,
    /// Inputs that set the workload's size.
    pub inputs: Vec<(&'static str, String)>,
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn input(&mut self, name: &'static str, value: impl std::fmt::Display) {
        self.inputs.push((name, value.to_string()));
    }

    /// Count one failed output check and say which.
    pub fn check_failed(&mut self, what: impl std::fmt::Display) {
        println!("CHECK FAILED: {what}");
        self.failed += 1;
    }

    /// Median op latency, of the traced or untraced ops or of all.
    fn op_median(&self, traced: Option<bool>) -> f64 {
        let v: Vec<f64> = self
            .op_us
            .iter()
            .filter(|(_, t)| traced.is_none_or(|want| *t == want))
            .map(|(us, _)| *us)
            .collect();
        stats::median(&v)
    }
}

/// Run `setup` `n` times, keep the last result, record each duration.
pub fn repeat_setup<T>(n: usize, out: &mut Outcome, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    last.expect("at least one setup")
}

fn parse_args() -> Result<(String, RunCfg), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing --{k}"));
    let workload = get("workload")?.clone();
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((
        workload,
        RunCfg {
            seed,
            seconds,
            trace,
        },
    ))
}

/// The commit the sources came from, read from `.git` when the checkout
/// has one.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown (not a git checkout)".into()
    } else {
        sha.into()
    }
}

/// FNV-1a over the engine's sources (`crates/`, paths sorted), which
/// identifies the code under test where there is no `.git`.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match workload.as_str() {
        "oltp" => oltp::run(&cfg),
        "asof_near" => asof::run(&cfg, asof::Distance::Near),
        "asof_far" => asof::run(&cfg, asof::Distance::Far),
        "flashback" => recover::run(&cfg, recover::Op::Flashback),
        "restart" => recover::run(&cfg, recover::Op::Restart),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "== perfbench {workload} (seed {}, {} s, trace {})",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    println!("inputs:");
    out.input("seed", cfg.seed);
    out.input("nproc", nproc);
    out.input("git_sha", git_sha());
    out.input("source_digest", source_digest());
    for (k, v) in &out.inputs {
        println!("  {k:<26} {v}");
    }

    let e2e: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", stats::median(&out.setup_s)),
        ("peak_rss_mib", stats::peak_rss_mib()),
        ("op_p50_us", out.op_median(None)),
        (
            "ops_per_s",
            out.ops_per_s
                .unwrap_or_else(|| stats::ratio(out.op_us.len() as f64, out.busy_s)),
        ),
    ]);
    println!("end-to-end ({} operations):", out.op_us.len());
    for (name, unit) in END_TO_END {
        println!("  {name:<26} {:>14.3} {unit}", e2e[name]);
    }
    let failed_frac = stats::ratio(out.failed as f64, out.attempted as f64);
    out.named.push(("failed_frac".into(), "ratio", failed_frac));
    println!("  as named for this workload:");
    for (name, unit, v) in &out.named {
        println!("    {name:<24} {v:>14.3} {unit}");
    }
    println!(
        "  setup runs (s): {:?}",
        out.setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );

    if cfg.trace {
        let (untraced, traced) = (out.op_median(Some(false)), out.op_median(Some(true)));
        let overhead = (stats::ratio(traced, untraced) - 1.0) * 100.0;
        println!("tracing overhead: op_p50_us {untraced:.2} untraced vs {traced:.2} traced ({overhead:+.2}%)");
        out.layer.insert("trace.overhead_pct", overhead);
        let attr = trace::attribute(&out.spans);
        println!(
            "span attribution ({} spans, {} operations):",
            out.spans.len(),
            attr.roots()
        );
        attr.print();
        for (layer, metric) in [
            ("core", "core.self_us_per_op"),
            ("snapshot", "snapshot.self_us_per_op"),
            ("repair", "repair.self_us_per_op"),
            ("recovery", "recovery.self_us_per_op"),
            ("op", "trace.unattributed_us_per_op"),
        ] {
            out.layer.insert(metric, attr.layer_self_us_per_op(layer));
        }
        if attr.violations > 0 {
            out.check_failed(format!("{} spans exceed their parent", attr.violations));
        }
        let path = std::path::PathBuf::from(format!(
            ".bench_out/spans-{workload}-seed{}.jsonl",
            cfg.seed
        ));
        match trace::write_spans(&path, &out.spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => out.check_failed(format!("writing {}: {e}", path.display())),
        }
    }
    println!("per-layer:");
    for (name, unit, moves) in PER_LAYER {
        let v = out.layer.get(name).copied().unwrap_or(0.0);
        println!("  {name:<34} {v:>14.3} {unit:<6} -> {moves}");
    }

    let metrics: Vec<String> = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|(n, u, _)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(out.layer.get(n).copied().unwrap_or(0.0))
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(e2e[n])
                )
            })
            .collect()
    };
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
