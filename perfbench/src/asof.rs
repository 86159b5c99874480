//! `asof_near` and `asof_far`: as-of queries over a deterministic history.
//!
//! Setup loads TPC-C and then builds several simulated minutes of history
//! from one client with a fixed seed and a manual checkpoint at each
//! simulated minute, so the log and page images are identical between
//! runs. Along the way it records the live `stock_level` answer of every
//! district at instants near the start of the history and about a minute
//! before its end. One closed-loop client then runs as-of queries
//! (`create_snapshot_asof` -> `stock_level_asof` -> `drop_snapshot`) at
//! those instants and checks every answer against the live one.
//!
//! The pool is about six times smaller than the database, so queries pay
//! buffer misses and log random reads while appending nothing to the log.
//! Near against far is the rewind-distance axis: the further back the
//! target, the more records each prepared page must undo.

use crate::meter::{layer_metrics, Meter};
use crate::mix::{
    db_config, digest, run_txn, stock_level_in_key_order, FLUSH_DELAY_US, FPI_INTERVAL,
};
use crate::stats::{median, quantile, ratio, Rng};
use crate::trace::Tracer;
use crate::{repeat_setup, Outcome, RunCfg};
use rewind_core::{Database, Timestamp};
use rewind_tpcc::{create_schema, load_initial, stock_level_asof, TpccScale};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
pub enum Distance {
    Near,
    Far,
}

/// About a sixth of the database's pages.
const POOL_FRAMES: usize = 86;
const HISTORY_MIN: u64 = 6;
const TXNS_PER_MIN: u64 = 200;
const SIM_US_PER_TXN: u64 = 60_000_000 / TXNS_PER_MIN;
/// Live answers are recorded every this many transactions inside the two
/// capture windows.
const CAPTURE_EVERY: u64 = 10;
/// Capture windows in simulated seconds since the history began.
const FAR_WINDOW_S: (u64, u64) = (30, 60);
const NEAR_WINDOW_S: (u64, u64) = (285, 315);
/// The history's seed is fixed: the workload seed only orders the queries,
/// so every run rewinds the same log.
const HISTORY_SEED: u64 = 0x5EED_A50F;
const SETUPS: usize = 3;

fn scale() -> TpccScale {
    TpccScale {
        items: 2_000,
        ..TpccScale::default()
    }
}

/// One recorded live answer.
#[derive(Clone, Copy)]
struct Capture {
    at: Timestamp,
    w_id: u64,
    d_id: u64,
    threshold: i64,
    live: usize,
}

struct History {
    db: Database,
    near: Vec<Capture>,
    far: Vec<Capture>,
    end: Timestamp,
}

fn in_window(t_s: u64, w: (u64, u64)) -> bool {
    t_s >= w.0 && t_s < w.1
}

fn build(scale: &TpccScale) -> History {
    let db = Database::create(db_config(POOL_FRAMES, 0, 0)).expect("create database");
    create_schema(&db).expect("create TPC-C schema");
    load_initial(&db, scale).expect("load TPC-C");
    db.checkpoint().expect("checkpoint");
    let start = db.clock().now();
    let mut rng = Rng::new(HISTORY_SEED);
    let (mut near, mut far) = (Vec::new(), Vec::new());
    for i in 0..HISTORY_MIN * TXNS_PER_MIN {
        let t_s = db.clock().now().micros_since(start) / 1_000_000;
        let window = if in_window(t_s, FAR_WINDOW_S) {
            Some(&mut far)
        } else if in_window(t_s, NEAR_WINDOW_S) {
            Some(&mut near)
        } else {
            None
        };
        if let (Some(list), 0) = (window, i % CAPTURE_EVERY) {
            // The last commit is stamped one transaction step before now
            // and the next one will be stamped now: one microsecond back
            // sits strictly between them.
            let at = db.clock().now().minus_micros(1);
            for w_id in 1..=scale.warehouses {
                for d_id in 1..=scale.districts_per_warehouse {
                    let threshold = rng.range(50, 90) as i64;
                    let live = db
                        .with_txn(|txn| stock_level_in_key_order(&db, txn, w_id, d_id, threshold))
                        .expect("live stock_level");
                    list.push(Capture {
                        at,
                        w_id,
                        d_id,
                        threshold,
                        live,
                    });
                }
            }
        }
        let w_id = rng.range(1, scale.warehouses);
        run_txn(&db, scale, w_id, &mut rng).expect("history transaction");
        db.clock().advance_micros(SIM_US_PER_TXN);
        if (i + 1) % TXNS_PER_MIN == 0 {
            db.checkpoint().expect("checkpoint");
        }
    }
    let end = db.clock().now();
    History { db, near, far, end }
}

pub fn run(cfg: &RunCfg, distance: Distance) -> Outcome {
    let scale = scale();
    let mut out = Outcome::default();
    let mut digests = Vec::new();
    let hist = repeat_setup(SETUPS, &mut out, || {
        let h = build(&scale);
        digests.push(digest(&h.db));
        h
    });
    let db = &hist.db;
    let pages_start = db.stats().expect("stats").allocated_pages;
    if digests.iter().any(|d| *d != digests[0]) {
        out.check_failed(format!("setup is not deterministic: digests {digests:x?}"));
    }

    let mut queries = match distance {
        Distance::Near => hist.near.clone(),
        Distance::Far => hist.far.clone(),
    };
    let mut rng = Rng::new(cfg.seed);
    for i in (1..queries.len()).rev() {
        queries.swap(i, rng.range(0, i as u64) as usize);
    }

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(cfg.seconds);
    let mut tracer = cfg.trace.then(|| Tracer::new(epoch, 0));
    let mut meter = Meter::new();
    let (mut create_us, mut query_us, mut drop_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut prepared, mut undone) = (0u64, 0u64);
    let mut rewind_s = Vec::new();
    let mut first_pass = None;
    let mut n = 0usize;
    while Instant::now() < deadline {
        let q = queries[n % queries.len()];
        n += 1;
        out.attempted += 1;
        let traced = tracer.is_some() && n.is_multiple_of(2);
        meter.start(db);
        let t0 = Instant::now();
        let result = db.create_snapshot_asof("asof", q.at).and_then(|snap| {
            let t1 = Instant::now();
            let answer = stock_level_asof(&snap, q.w_id, q.d_id, q.threshold);
            let t2 = Instant::now();
            let s = snap.stats();
            drop(snap);
            db.drop_snapshot("asof")?;
            Ok((t1, t2, answer?, s))
        });
        let t3 = Instant::now();
        meter.stop(db);
        match result {
            Ok((t1, t2, answer, s)) => {
                let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
                out.op_us.push((us(t0, t3), traced));
                create_us.push(us(t0, t1));
                query_us.push(us(t1, t2));
                drop_us.push(us(t2, t3));
                prepared += s.pages_prepared;
                undone += s.records_undone;
                rewind_s.push(hist.end.micros_since(q.at) as f64 / 1e6);
                if let (true, Some(tr)) = (traced, tracer.as_mut()) {
                    let root = tr.root("op.asof_query", t0, t3);
                    tr.child(root, "snapshot.create", t0, t1);
                    tr.child(root, "snapshot.query", t1, t2);
                    tr.child(root, "snapshot.drop", t2, t3);
                }
                if answer != q.live {
                    out.check_failed(format!(
                        "as-of stock_level w{} d{} at {:?}: {answer}, live answer was {}",
                        q.w_id, q.d_id, q.at, q.live
                    ));
                }
            }
            Err(e) => {
                out.failed += 1;
                println!("as-of query failed: {e}");
            }
        }
        if n == queries.len() {
            first_pass = Some((meter.total.clone(), prepared, undone));
        }
    }
    out.busy_s = epoch.elapsed().as_secs_f64();
    out.spans = tracer.map(|t| t.spans).unwrap_or_default();
    let ops = out.op_us.len() as u64;

    let stats = db.stats().expect("stats");
    out.input("history_sim_min", HISTORY_MIN);
    out.input("history_txns", HISTORY_MIN * TXNS_PER_MIN);
    out.input("distinct_queries", queries.len());
    out.input("rewind_sim_s_median", format!("{:.1}", median(&rewind_s)));
    out.input("db_pages_start", pages_start);
    out.input("db_pages_end", stats.allocated_pages);
    out.input("pool_frames", POOL_FRAMES);
    out.input(
        "db_pages_per_frame",
        format!("{:.2}", stats.allocated_pages as f64 / POOL_FRAMES as f64),
    );
    out.input(
        "retained_log_mib",
        format!("{:.2}", stats.log_retained_bytes as f64 / (1 << 20) as f64),
    );
    out.input("flush_delay_us", FLUSH_DELAY_US);
    out.input("fpi_interval", FPI_INTERVAL);
    out.input("setup_digest", format!("{:016x}", digests[0]));
    match &first_pass {
        Some((t, p, u)) => out.input(
            "first_pass_counts",
            format!(
                "queries {} prepared {p} undone {u} log_read_ios {} log_cache_hits {} page_reads {} pool_misses {} evictions {}",
                queries.len(),
                t.log_read_ios,
                t.log_cache_hits,
                t.page_reads,
                t.pool_misses,
                t.evictions
            ),
        ),
        None => out.input("first_pass_counts", "run too short for one pass"),
    }

    layer_metrics(&meter.total, ops, &mut out.layer);
    out.layer
        .insert("snapshot.create_p50_us", median(&create_us));
    out.layer.insert("snapshot.query_p50_us", median(&query_us));
    out.layer.insert("snapshot.drop_p50_us", median(&drop_us));
    out.layer.insert(
        "snapshot.pages_prepared_per_query",
        ratio(prepared as f64, ops as f64),
    );
    out.layer.insert(
        "snapshot.records_undone_per_query",
        ratio(undone as f64, ops as f64),
    );

    let lat: Vec<f64> = out.op_us.iter().map(|(u, _)| *u).collect();
    let label = if distance == Distance::Near {
        "asof_near"
    } else {
        "asof_far"
    };
    out.named
        .push((format!("{label}_p50_us"), "us", quantile(&lat, 0.5)));
    out.named
        .push((format!("{label}_p99_us"), "us", quantile(&lat, 0.99)));
    out
}
