//! Microbenchmark for the group-commit write path: concurrent committers
//! through `Database::commit` against a log with a modeled device sync
//! latency.
//!
//! Two measured properties:
//!
//! * **Flush coalescing** — N committer threads enqueue their commit LSNs
//!   on the flush coalescer; one leader performs a single sequential flush
//!   covering the batch. Reported as *flushes per commit*; the acceptance
//!   bar (and the CI gate) is < 1.0 at 4 threads, proof the coalescer
//!   engages.
//! * **Exact flush accounting** — `flush_to(lsn)` is record-boundary
//!   precise, so `log_bytes_written` grows by exactly the framed bytes a
//!   committer requested, never other transactions' unflushed tail. Checked
//!   both serially (two interleaved committers each charged only their own
//!   frames) and in aggregate at 4 threads (bytes charged == bytes logged).
//!
//! ```text
//! cargo run -p rewind-bench --release --bin commitbench [-- --quick]
//! ```

use rewind_common::{Lsn, ObjectId, PageId, TxnId};
use rewind_core::{Column, DataType, Database, DbConfig, Schema, Value};
use rewind_wal::{LogConfig, LogManager, LogPayload, LogRecord, Reach};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Modeled per-flush sync latency: a fast SSD write barrier.
const FLUSH_DELAY_US: u64 = 150;

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", DataType::U64),
            Column::new("v", DataType::Str),
        ],
        &["id"],
    )
    .unwrap()
}

fn make_db() -> Database {
    Database::create(DbConfig {
        checkpoint_interval_bytes: 0, // isolate the commit path
        log: LogConfig {
            flush_delay_us: FLUSH_DELAY_US,
            ..LogConfig::default()
        },
        ..DbConfig::default()
    })
    .expect("create db")
}

struct RunStats {
    commits: u64,
    flushes: u64,
    bytes_written: u64,
    bytes_logged: u64,
    secs: f64,
    /// Commit-latency histogram samples recorded during the run (count
    /// exactness: must equal `commits`).
    commit_samples: u64,
    /// Full engine metrics at the end of the run.
    metrics: rewind_obs::MetricsSnapshot,
}

/// `threads` committers, each committing `per_thread` single-row inserts.
fn run(threads: u64, per_thread: u64) -> RunStats {
    let db = Arc::new(make_db());
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        Ok(())
    })
    .unwrap();
    let s0 = db.log_io();
    let logged0 = db.log().total_bytes();
    let samples0 = db.obs().commit_latency().count;
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let db = db.clone();
            thread::spawn(move || {
                for i in 0..per_thread {
                    let id = t * 1_000_000 + i;
                    db.with_txn(|txn| {
                        db.insert(txn, "t", &[Value::U64(id), Value::str("commitbench")])
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let secs = start.elapsed().as_secs_f64();
    let s1 = db.log_io();
    RunStats {
        commits: threads * per_thread,
        flushes: s1.log_flushes - s0.log_flushes,
        bytes_written: s1.log_bytes_written - s0.log_bytes_written,
        bytes_logged: db.log().total_bytes() - logged0,
        secs,
        commit_samples: db.obs().commit_latency().count - samples0,
        metrics: db.metrics(),
    }
}

fn insert_rec(txn: u64, n: usize) -> LogRecord {
    LogRecord {
        lsn: Lsn::NULL,
        txn: TxnId(txn),
        prev_lsn: Lsn::NULL,
        page: PageId(1),
        prev_page_lsn: Lsn::NULL,
        object: ObjectId(1),
        undo_next: Lsn::NULL,
        flags: 0,
        payload: LogPayload::InsertRecord {
            slot: 0,
            bytes: vec![0x5A; n],
        },
    }
}

/// Serial regression for the over-charge bug: two interleaved committers
/// are each charged exactly their own frames.
fn serial_attribution_exact() -> bool {
    let log = LogManager::new(LogConfig::default());
    let a = log.append(&insert_rec(1, 100));
    let b = log.append(&insert_rec(2, 300));
    let frame_a = log.get_record_ref(a, Reach::Retained).unwrap().frame_len();
    let frame_b = log.get_record_ref(b, Reach::Retained).unwrap().frame_len();
    let s0 = log.io_stats().snapshot();
    log.flush_to(a);
    let charged_a = log.io_stats().snapshot().log_bytes_written - s0.log_bytes_written;
    log.flush_to(b);
    let charged_b = log.io_stats().snapshot().log_bytes_written - s0.log_bytes_written - charged_a;
    println!(
        "serial interleave: committer A charged {charged_a}B (own frame {frame_a}B), \
         committer B charged {charged_b}B (own frame {frame_b}B)"
    );
    charged_a == frame_a && charged_b == frame_b
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let per_thread: u64 = if quick { 100 } else { 300 };

    println!("# commit path microbenchmark: group commit");
    println!(
        "# single-row insert+commit per transaction, modeled flush latency {FLUSH_DELAY_US} us\n"
    );

    println!(
        "{:>8} | {:>10} | {:>12} | {:>16} | {:>14}",
        "threads", "commits/s", "flushes", "flushes/commit", "bytes/commit"
    );
    println!("{}", "-".repeat(72));

    let mut fpc_at_4 = f64::MAX;
    let mut aggregate_exact = true;
    let mut samples_exact = true;
    let mut commits_per_s_at_4 = 0.0;
    let mut metrics_at_4 = None;
    for threads in [1u64, 2, 4, 8] {
        let r = run(threads, per_thread);
        let fpc = r.flushes as f64 / r.commits as f64;
        if threads == 4 {
            fpc_at_4 = fpc;
            commits_per_s_at_4 = r.commits as f64 / r.secs;
            metrics_at_4 = Some(r.metrics.clone());
        }
        // Count exactness: exactly one commit-latency sample per durable
        // commit, at every thread count. Deterministic — counter events,
        // not wall clock.
        if r.commit_samples != r.commits {
            samples_exact = false;
            println!(
                "!! {} commit-latency samples for {} commits at {} threads",
                r.commit_samples, r.commits, threads
            );
        }
        // Every byte the committers logged is charged exactly once: the last
        // commit record is the last record in the log, so its flush covers
        // the whole stream — charged == logged, no double counting, no
        // bystander bytes.
        if r.bytes_written != r.bytes_logged {
            aggregate_exact = false;
            println!(
                "!! charged {}B but logged {}B at {} threads",
                r.bytes_written, r.bytes_logged, threads
            );
        }
        println!(
            "{threads:>8} | {:>10.0} | {:>12} | {:>16.3} | {:>14.1}",
            r.commits as f64 / r.secs,
            r.flushes,
            fpc,
            r.bytes_written as f64 / r.commits as f64
        );
    }
    println!();

    let serial_exact = serial_attribution_exact();
    println!();

    let mut failed = false;
    if fpc_at_4 < 1.0 {
        println!(
            "PASS: {fpc_at_4:.3} flushes per commit at 4 committer threads (< 1.0 — the \
             coalescer engages)"
        );
    } else {
        println!("FAIL: {fpc_at_4:.3} flushes per commit at 4 committer threads (>= 1.0)");
        failed = true;
    }
    if serial_exact && aggregate_exact {
        println!(
            "PASS: log_bytes_written attribution is exact (per-request frames serially, \
             charged == logged in aggregate)"
        );
    } else {
        println!("FAIL: log_bytes_written attribution is inexact");
        failed = true;
    }
    if samples_exact {
        println!("PASS: one commit-latency sample per durable commit at every thread count");
    } else {
        println!("FAIL: commit-latency histogram count diverges from the commit count");
        failed = true;
    }
    if let Some(metrics) = &metrics_at_4 {
        let p95 = metrics
            .hist("commit_latency_us")
            .map(|h| h.p95())
            .unwrap_or(0);
        match rewind_bench::report::write_bench_json(
            "commitbench",
            &[
                ("flushes_per_commit_4t", fpc_at_4),
                ("commits_per_s_4t", commits_per_s_at_4),
                ("commit_p95_us_4t", p95 as f64),
            ],
            metrics,
        ) {
            Ok(path) => println!("wrote {path}"),
            Err(e) => println!("WARN: could not write bench json: {e}"),
        }
    }
    if failed {
        std::process::exit(1);
    }
}
