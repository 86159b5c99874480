//! `oltp`: a closed-loop TPC-C mix from two clients on two warehouses.
//!
//! The commit path every application pays for: DML over B-trees and row
//! locks, WAL append, group commit behind a modeled 150 µs flush, and the
//! background checkpoint daemon with its writeback. The pool holds the
//! whole database for the entire run, and a retention window bounds the
//! in-memory log. No snapshot, flashback or restart runs here, so a change
//! to those layers should leave this workload unchanged.

use crate::meter::{layer_metrics, Meter};
use crate::mix::{db_config, run_txn, FLUSH_DELAY_US, FPI_INTERVAL};
use crate::stats::{block_rates, median, quantile, ratio, Rng};
use crate::trace::{merge, Tracer};
use crate::{repeat_setup, Outcome, RunCfg};
use rewind_core::{Database, Error};
use rewind_tpcc::{create_schema, load_initial, TpccScale};
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
/// Frames: several times the database's size at the end of a run.
const POOL_FRAMES: usize = 16_384;
const CHECKPOINT_INTERVAL_BYTES: u64 = 1 << 20;
/// Simulated time per committed transaction.
const SIM_US_PER_TXN: u64 = 10_000;
/// Log older than this (simulated, about 1,000 transactions) is truncated
/// at each checkpoint.
const RETENTION_US: u64 = 2_000_000;
const SETUPS: usize = 5;
/// `ops_per_s` is the median commit rate over blocks of this many
/// consecutive commits (about 0.2 s each): a burst of noise on a shared
/// host slows a few blocks, not the median.
const RATE_BLOCK: usize = 500;

#[derive(Default)]
struct Client {
    op_us: Vec<(f64, bool)>,
    /// When each committed transaction returned, seconds since the epoch.
    end_s: Vec<f64>,
    body_us: Vec<f64>,
    commit_us: Vec<f64>,
    rollbacks: u64,
    lock_victims: u64,
    errors: Vec<String>,
}

fn setup(scale: &TpccScale) -> Database {
    let db = Database::create(db_config(
        POOL_FRAMES,
        CHECKPOINT_INTERVAL_BYTES,
        RETENTION_US,
    ))
    .expect("create database");
    create_schema(&db).expect("create TPC-C schema");
    load_initial(&db, scale).expect("load TPC-C");
    db
}

fn client(
    db: &Database,
    scale: &TpccScale,
    w_id: u64,
    seed: u64,
    epoch: Instant,
    deadline: Instant,
    tracer: &mut Option<Tracer>,
) -> Client {
    let mut rng = Rng::new(seed ^ (w_id << 32));
    let mut c = Client::default();
    let mut n = 0u64;
    while Instant::now() < deadline {
        n += 1;
        let traced = tracer.is_some() && n.is_multiple_of(2);
        match run_txn(db, scale, w_id, &mut rng) {
            Ok(t) if t.committed => {
                db.clock().advance_micros(SIM_US_PER_TXN);
                let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
                c.op_us.push((us(t.begin, t.end), traced));
                c.end_s.push(t.end.duration_since(epoch).as_secs_f64());
                c.body_us.push(us(t.begin, t.commit_call));
                c.commit_us.push(us(t.commit_call, t.end));
                if let (true, Some(tr)) = (traced, tracer.as_mut()) {
                    let root = tr.root("op.tpcc_txn", t.begin, t.end);
                    tr.child(root, "core.txn_body", t.begin, t.commit_call);
                    tr.child(root, "core.commit", t.commit_call, t.end);
                }
            }
            Ok(_) => c.rollbacks += 1,
            Err(Error::Deadlock(_)) | Err(Error::LockTimeout(_)) => c.lock_victims += 1,
            Err(e) => c.errors.push(e.to_string()),
        }
    }
    c
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let scale = TpccScale::default();
    let mut out = Outcome::default();
    let db = repeat_setup(SETUPS, &mut out, || setup(&scale));
    let start = db.stats().expect("stats");

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(cfg.seconds);
    let mut meter = Meter::new();
    meter.start(&db);
    let results: Vec<(Client, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=CLIENTS)
            .map(|w| {
                let (db, scale) = (&db, &scale);
                s.spawn(move || {
                    let mut tracer = cfg.trace.then(|| Tracer::new(epoch, w));
                    let c = client(db, scale, w, cfg.seed, epoch, deadline, &mut tracer);
                    (c, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    out.busy_s = epoch.elapsed().as_secs_f64();
    meter.stop(&db);

    let mut tracers = Vec::new();
    let (mut body, mut commit, mut end_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rollbacks, mut victims) = (0, 0);
    let mut errors = Vec::new();
    for (c, t) in results {
        out.op_us.extend(c.op_us);
        end_s.extend(c.end_s);
        body.extend(c.body_us);
        commit.extend(c.commit_us);
        rollbacks += c.rollbacks;
        victims += c.lock_victims;
        errors.extend(c.errors);
        tracers.extend(t);
    }
    out.spans = merge(tracers);
    let rates = block_rates(&end_s, RATE_BLOCK);
    out.ops_per_s = Some(median(&rates));
    let committed = out.op_us.len() as u64;
    out.attempted = committed + rollbacks + victims + errors.len() as u64;
    out.failed = victims + errors.len() as u64;
    for e in errors.iter().take(5) {
        println!("transaction failed: {e}");
    }

    // Output checks.
    db.quiesce_checkpoints();
    for (what, e) in db.take_background_errors() {
        out.check_failed(format!("background {what}: {e}"));
    }
    if let Err(e) = db.check_consistency() {
        out.check_failed(format!("check_consistency: {e}"));
    }

    let stats = db.stats().expect("stats");
    out.input("clients", CLIENTS);
    out.input("warehouses", scale.warehouses);
    out.input("db_pages_start", start.allocated_pages);
    out.input("db_pages_end", stats.allocated_pages);
    out.input("pool_frames", POOL_FRAMES);
    out.input("pool_holds_db", stats.allocated_pages <= POOL_FRAMES);
    out.input(
        "retained_log_mib_start",
        format!("{:.2}", start.log_retained_bytes as f64 / (1 << 20) as f64),
    );
    out.input(
        "retained_log_mib_end",
        format!("{:.2}", stats.log_retained_bytes as f64 / (1 << 20) as f64),
    );
    out.input("retention_sim_s", RETENTION_US / 1_000_000);
    out.input("flush_delay_us", FLUSH_DELAY_US);
    out.input("fpi_interval", FPI_INTERVAL);
    out.input("intentional_rollbacks", rollbacks);
    out.input(
        "rate_blocks",
        format!(
            "{} x {RATE_BLOCK} commits, commits/s min {:.0} median {:.0} max {:.0}",
            rates.len(),
            quantile(&rates, 0.0),
            median(&rates),
            quantile(&rates, 1.0)
        ),
    );

    let t = &meter.total;
    layer_metrics(t, committed, &mut out.layer);
    out.layer
        .insert("core.txn_body_p50_us", quantile(&body, 0.5));
    out.layer
        .insert("core.txn_body_p99_us", quantile(&body, 0.99));
    out.layer
        .insert("core.commit_p50_us", quantile(&commit, 0.5));
    out.layer
        .insert("core.commit_p99_us", quantile(&commit, 0.99));
    out.layer.insert(
        "txn.lock_retries_per_ktxn",
        ratio(victims as f64 * 1000.0, committed as f64),
    );
    out.layer.insert(
        "wal.flushes_per_commit",
        ratio(t.log_flushes as f64, committed as f64),
    );
    out.layer
        .insert("wal.flush_stall_p99_us", t.flush_stall.p99() as f64);
    let log_bytes_per_txn = ratio(t.log_bytes_written as f64, committed as f64);
    out.layer.insert("wal.log_bytes_per_txn", log_bytes_per_txn);

    let lat: Vec<f64> = out.op_us.iter().map(|(u, _)| *u).collect();
    out.named.push(("tpcc_tps".into(), "1/s", median(&rates)));
    out.named.push((
        "tpcc_tps_whole_run".into(),
        "1/s",
        ratio(committed as f64, out.busy_s),
    ));
    out.named
        .push(("tpcc_p50_us".into(), "us", quantile(&lat, 0.5)));
    out.named
        .push(("tpcc_p99_us".into(), "us", quantile(&lat, 0.99)));
    out.named
        .push(("log_bytes_per_txn".into(), "B", log_bytes_per_txn));
    out
}
