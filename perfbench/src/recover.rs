//! `flashback` and `restart`: the user-error workflow, one client, no
//! checkpoint daemon.
//!
//! Every cycle runs a short TPC-C burst and then damages one warehouse's
//! customers with `bad_credit_batch`.
//!
//! * `flashback`: the batch commits, a few more transactions run (some
//!   touch the damaged rows and become conflicts), and the timed operation
//!   is `flashback` of the batch with `ConflictPolicy::Skip`. Every damaged
//!   row must be back at its pre-batch image unless the report lists it as
//!   a conflict.
//! * `restart`: the batch is made durable but never commits, and the timed
//!   operation is `simulate_crash` + `Database::recover` with two redo
//!   workers. Every acknowledged commit must be readable, the batch absent,
//!   and `check_consistency` must pass.
//!
//! Both scale with retained log (harvest scans all of it; restart re-checks
//! every retained frame), so a retention window and a checkpoint at the end
//! of every cycle hold the retained log at a steady size; setup runs warm-up
//! cycles until it is there.

use crate::meter::{layer_metrics, Meter, Sample};
use crate::mix::{db_config, digest, run_txn, FLUSH_DELAY_US, FPI_INTERVAL, REDO_WORKERS};
use crate::stats::{median, quantile, Rng};
use crate::trace::Tracer;
use crate::{repeat_setup, Outcome, RunCfg};
use rewind_core::{Database, Row, TxnId, Value};
use rewind_repair::{flashback, harvest_log, ConflictPolicy, RepairConfig, RepairTarget};
use rewind_tpcc::{bad_credit_batch, create_schema, load_initial, TpccScale};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
pub enum Op {
    Flashback,
    Restart,
}

/// Frames: the pool holds the whole database.
const POOL_FRAMES: usize = 1_024;
const BURST_TXNS: u64 = 20;
/// Transactions between the committed batch and the flashback.
const AFTER_TXNS: u64 = 5;
const SIM_US_PER_TXN: u64 = 1_000_000;
/// Simulated retention window of `flashback`: about six cycles of log.
const FLASHBACK_RETENTION_US: u64 = 150_000_000;
/// Simulated retention window of `restart`. Restart keeps only the
/// checkpoints from the crash point's checkpoint on, so a window longer
/// than one cycle would never find a checkpoint old enough to truncate at;
/// a window shorter than a cycle holds the log at about one cycle.
const RESTART_RETENTION_US: u64 = 10_000_000;
/// Warm-up cycles in setup: enough to fill the retention window.
const WARMUP_CYCLES: u64 = 8;
/// The setup history's seed is fixed, so every run starts from the same
/// log and pages; the workload seed drives the measured cycles.
const SETUP_SEED: u64 = 0x5EED_F1A5;
const SETUPS: usize = 5;
/// Counts over the first this many cycles are printed: for a fixed seed
/// they repeat exactly.
const FIRST_CYCLES: usize = 20;

struct State {
    /// `None` only while a restart has the database crashed.
    db: Option<Database>,
    rng: Rng,
    cycle: u64,
}

impl State {
    fn db(&self) -> &Database {
        self.db.as_ref().expect("database is open")
    }
}

/// One cycle's committed history before the damage.
struct Before {
    w_id: u64,
    customers: Vec<Row>,
    districts: Vec<Row>,
    new_orders: Vec<(u64, u64, u64)>,
}

fn scan(db: &Database, table: &str, prefix: &[Value]) -> Vec<Row> {
    db.with_txn(|txn| db.scan_prefix(txn, table, prefix))
        .expect("scan")
}

fn burst(st: &mut State, n: u64, scale: &TpccScale, new_orders: &mut Vec<(u64, u64, u64)>) {
    let db = st.db.as_ref().expect("database is open");
    for _ in 0..n {
        let w_id = st.rng.range(1, scale.warehouses);
        let t = run_txn(db, scale, w_id, &mut st.rng)
            .expect("TPC-C transaction (one client, no conflicts)");
        new_orders.extend(t.new_order);
        db.clock().advance_micros(SIM_US_PER_TXN);
    }
}

/// The burst plus the state the cycle's checks compare against.
fn prepare(st: &mut State, scale: &TpccScale) -> Before {
    let mut new_orders = Vec::new();
    burst(st, BURST_TXNS, scale, &mut new_orders);
    let w_id = 1 + st.cycle % scale.warehouses;
    Before {
        w_id,
        customers: scan(st.db(), "customer", &[Value::U64(w_id)]),
        districts: scan(st.db(), "district", &[]),
        new_orders,
    }
}

fn commit_bad_batch(st: &mut State, w_id: u64) -> TxnId {
    let txn = st.db().begin();
    bad_credit_batch(st.db(), &txn, w_id).expect("bad batch");
    let id = txn.id();
    st.db().commit(txn).expect("commit bad batch");
    st.db().clock().advance_micros(SIM_US_PER_TXN);
    id
}

fn end_cycle(st: &mut State) {
    st.db().checkpoint().expect("checkpoint");
    st.db().enforce_retention();
    st.cycle += 1;
}

/// A whole flashback cycle, untimed (setup warm-up).
fn flashback_cycle(st: &mut State, scale: &TpccScale) {
    let b = prepare(st, scale);
    let bad = commit_bad_batch(st, b.w_id);
    burst(st, AFTER_TXNS, scale, &mut Vec::new());
    flashback(
        st.db(),
        &RepairTarget::Txns(BTreeSet::from([bad])),
        &repair_config(),
    )
    .expect("flashback");
    end_cycle(st);
}

fn repair_config() -> RepairConfig {
    RepairConfig {
        policy: ConflictPolicy::Skip,
        prefetch_workers: 1,
    }
}

fn setup(scale: &TpccScale, retention_us: u64) -> State {
    let db = Database::create(db_config(POOL_FRAMES, 0, retention_us)).expect("create database");
    create_schema(&db).expect("create TPC-C schema");
    load_initial(&db, scale).expect("load TPC-C");
    db.checkpoint().expect("checkpoint");
    let mut st = State {
        db: Some(db),
        rng: Rng::new(SETUP_SEED),
        cycle: 0,
    };
    for _ in 0..WARMUP_CYCLES {
        flashback_cycle(&mut st, scale);
    }
    st
}

/// Per-cycle results the metrics are built from.
#[derive(Default)]
struct Acc {
    harvest_ms: Vec<f64>,
    keys_examined: Vec<f64>,
    applied: Vec<f64>,
    conflicts: Vec<f64>,
    crash_ms: Vec<f64>,
    analysis_ms: Vec<f64>,
    redo_ms: Vec<f64>,
    undo_ms: Vec<f64>,
    unattributed_ms: Vec<f64>,
    scanned: Vec<f64>,
    redone: Vec<f64>,
    undone: Vec<f64>,
    retained_mib: Vec<f64>,
}

fn us(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e6
}

fn run_flashback(
    st: &mut State,
    scale: &TpccScale,
    out: &mut Outcome,
    acc: &mut Acc,
    meter: &mut Meter,
    tracer: Option<&mut Tracer>,
) -> Duration {
    let b = prepare(st, scale);
    let bad = commit_bad_batch(st, b.w_id);
    burst(st, AFTER_TXNS, scale, &mut Vec::new());
    let target = RepairTarget::Txns(BTreeSet::from([bad]));
    let db = st.db();

    // A traced operation first times `harvest` alone on the same target.
    let t_h = Instant::now();
    let harvested = tracer.is_some().then(|| harvest_log(db.log(), &target));
    let t0 = Instant::now();
    meter.start(db);
    let report = flashback(db, &target, &repair_config());
    meter.stop(db);
    let t1 = Instant::now();
    out.attempted += 1;
    let report = match (report, harvested.transpose()) {
        (Ok(r), Ok(_)) => r,
        (Err(e), _) | (_, Err(e)) => {
            out.failed += 1;
            println!("flashback failed: {e}");
            end_cycle(st);
            return Duration::ZERO;
        }
    };
    out.op_us.push((us(t0, t1), tracer.is_some()));
    if let Some(tr) = tracer {
        let root = tr.root("op.flashback", t_h, t1);
        tr.child(root, "repair.harvest", t_h, t0);
        tr.child(root, "repair.flashback", t0, t1);
        acc.harvest_ms.push(us(t_h, t0) / 1e3);
    }
    acc.keys_examined.push(report.keys_examined as f64);
    acc.applied.push(report.applied as f64);
    acc.conflicts.push(report.skipped_conflicts.len() as f64);

    // Check: every damaged row is back at its pre-batch image, except the
    // keys the report lists as conflicts.
    let t_check = Instant::now();
    let conflict_keys: Vec<Row> = report
        .skipped_conflicts
        .iter()
        .filter(|c| c.entry.table == "customer")
        .map(|c| c.entry.key.clone())
        .collect();
    for pre in &b.customers {
        let key = pre[..3].to_vec();
        if conflict_keys.contains(&key) {
            continue;
        }
        let live = db
            .with_txn(|txn| db.get(txn, "customer", &key))
            .expect("read customer");
        if live.as_ref() != Some(pre) {
            out.check_failed(format!(
                "customer {key:?} after flashback is {live:?}, before the batch it was {pre:?}"
            ));
        }
    }
    let check = t_check.elapsed();
    acc.retained_mib
        .push(db.stats().expect("stats").log_retained_bytes as f64 / (1 << 20) as f64);
    end_cycle(st);
    check
}

fn run_restart(
    st: &mut State,
    scale: &TpccScale,
    out: &mut Outcome,
    acc: &mut Acc,
    meter: &mut Meter,
    tracer: Option<&mut Tracer>,
) -> Duration {
    let b = prepare(st, scale);
    // The second bad batch: logged and durable, never committed.
    let txn = st.db().begin();
    bad_credit_batch(st.db(), &txn, b.w_id).expect("bad batch");
    st.db().log().flush_to(txn.last_lsn());
    drop(txn);
    acc.retained_mib
        .push(st.db().stats().expect("stats").log_retained_bytes as f64 / (1 << 20) as f64);

    let before = Sample::take(st.db());
    out.attempted += 1;
    let db = st.db.take().expect("database is open");
    let t0 = Instant::now();
    let artifacts = db.simulate_crash();
    let t1 = Instant::now();
    let recovered = Database::recover(artifacts);
    let t2 = Instant::now();
    match recovered {
        Ok(db) => st.db = Some(db),
        Err(e) => {
            out.failed += 1;
            println!("restart failed: {e}");
            return Duration::ZERO;
        }
    }
    meter.resume(before.with_fresh_pool());
    meter.stop(st.db());
    out.op_us.push((us(t0, t2), tracer.is_some()));
    let report = st.db().last_recovery().unwrap_or_default();
    let ms = |v: u64| v as f64 / 1e3;
    let phases_ms = ms(report.analysis_us.max(report.redo_us)) + ms(report.undo_us);
    acc.crash_ms.push(us(t0, t1) / 1e3);
    acc.analysis_ms.push(ms(report.analysis_us));
    acc.redo_ms.push(ms(report.redo_us));
    acc.undo_ms.push(ms(report.undo_us));
    acc.unattributed_ms.push(us(t1, t2) / 1e3 - phases_ms);
    acc.scanned.push(report.records_scanned as f64);
    acc.redone.push(report.records_redone as f64);
    acc.undone.push(report.records_undone as f64);
    if let Some(tr) = tracer {
        // The report gives phase durations, not offsets: analysis and redo
        // start together (they share one pipelined scan) and undo follows
        // the later of the two.
        let root = tr.root("op.restart", t0, t2);
        tr.child(root, "core.crash", t0, t1);
        let rec = tr.child(root, "core.recover", t1, t2);
        let s = tr.start_ns(rec);
        let (a, r, u) = (
            report.analysis_us * 1000,
            report.redo_us * 1000,
            report.undo_us * 1000,
        );
        tr.child_ns(rec, "recovery.analysis", s, s + a);
        tr.child_ns(rec, "recovery.redo", s, s + r);
        tr.child_ns(rec, "recovery.undo", s + a.max(r), s + a.max(r) + u);
    }

    // Checks: acknowledged commits are readable, the batch is absent, and
    // the database is consistent.
    let t_check = Instant::now();
    let db = st.db();
    if scan(db, "customer", &[Value::U64(b.w_id)]) != b.customers {
        out.check_failed(format!(
            "customers of warehouse {} differ from their committed state after restart",
            b.w_id
        ));
    }
    if scan(db, "district", &[]) != b.districts {
        out.check_failed("districts differ from their committed state after restart");
    }
    for &(w, d, o) in &b.new_orders {
        let key = [Value::U64(w), Value::U64(d), Value::U64(o)];
        if db
            .with_txn(|txn| db.get(txn, "orders", &key))
            .expect("read order")
            .is_none()
        {
            out.check_failed(format!("acknowledged order {key:?} missing after restart"));
        }
    }
    if let Err(e) = db.check_consistency() {
        out.check_failed(format!("check_consistency after restart: {e}"));
    }
    let check = t_check.elapsed();
    end_cycle(st);
    check
}

pub fn run(cfg: &RunCfg, op: Op) -> Outcome {
    let scale = TpccScale::default();
    let mut out = Outcome::default();
    let retention_us = match op {
        Op::Flashback => FLASHBACK_RETENTION_US,
        Op::Restart => RESTART_RETENTION_US,
    };
    let mut digests = Vec::new();
    let mut st = repeat_setup(SETUPS, &mut out, || {
        let st = setup(&scale, retention_us);
        digests.push(digest(st.db()));
        st
    });
    if digests.iter().any(|d| *d != digests[0]) {
        out.check_failed(format!("setup is not deterministic: digests {digests:x?}"));
    }
    st.rng = Rng::new(cfg.seed);
    let pages_start = st.db().stats().expect("stats").allocated_pages;
    let retained_start =
        st.db().stats().expect("stats").log_retained_bytes as f64 / (1 << 20) as f64;

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(cfg.seconds);
    let mut tracer = cfg.trace.then(|| Tracer::new(epoch, 0));
    let mut meter = Meter::new();
    let mut acc = Acc::default();
    let mut checks = Duration::ZERO;
    let mut n = 0u64;
    let mut first = String::from("run too short");
    while Instant::now() < deadline {
        n += 1;
        let tr = tracer.as_mut().filter(|_| n.is_multiple_of(2));
        checks += match op {
            Op::Flashback => run_flashback(&mut st, &scale, &mut out, &mut acc, &mut meter, tr),
            Op::Restart => run_restart(&mut st, &scale, &mut out, &mut acc, &mut meter, tr),
        };
        if st.db.is_none() {
            break; // the restart failed: nothing left to run against
        }
        if n == FIRST_CYCLES as u64 {
            let sum = |v: &[f64]| v.iter().sum::<f64>() as u64;
            let t = &meter.total;
            let op_counts = match op {
                Op::Flashback => format!(
                    "keys_examined {} applied {} conflicts {}",
                    sum(&acc.keys_examined),
                    sum(&acc.applied),
                    sum(&acc.conflicts)
                ),
                Op::Restart => format!(
                    "records_scanned {} redone {} undone {}",
                    sum(&acc.scanned),
                    sum(&acc.redone),
                    sum(&acc.undone)
                ),
            };
            first = format!(
                "{op_counts} log_bytes {} page_reads {} page_writes {} pool_misses {}",
                t.log_bytes_written, t.page_reads, t.page_writes, t.pool_misses
            );
        }
    }
    out.busy_s = (epoch.elapsed() - checks).as_secs_f64();
    out.spans = tracer.map(|t| t.spans).unwrap_or_default();
    let ops = out.op_us.len() as u64;

    let stats = st.db().stats().expect("stats");
    out.input("cycles", n);
    out.input("burst_txns", BURST_TXNS);
    out.input("db_pages_start", pages_start);
    out.input("db_pages_end", stats.allocated_pages);
    out.input("pool_frames", POOL_FRAMES);
    out.input("retained_log_mib_start", format!("{retained_start:.2}"));
    out.input(
        "retained_log_mib_median",
        format!("{:.2}", median(&acc.retained_mib)),
    );
    out.input("retention_sim_s", retention_us / 1_000_000);
    out.input("flush_delay_us", FLUSH_DELAY_US);
    out.input("fpi_interval", FPI_INTERVAL);
    out.input("redo_workers", REDO_WORKERS);
    out.input("setup_digest", format!("{:016x}", digests[0]));
    out.input("first_cycles", FIRST_CYCLES);
    out.input("first_cycles_counts", first);

    layer_metrics(&meter.total, ops, &mut out.layer);
    let lat: Vec<f64> = out.op_us.iter().map(|(u, _)| *u).collect();
    match op {
        Op::Flashback => {
            out.layer
                .insert("repair.harvest_ms", median(&acc.harvest_ms));
            out.layer
                .insert("repair.keys_examined", median(&acc.keys_examined));
            out.layer.insert("repair.applied", median(&acc.applied));
            out.layer.insert("repair.conflicts", median(&acc.conflicts));
            out.named.push((
                format!("flashback_ms (median of {ops})"),
                "ms",
                quantile(&lat, 0.5) / 1e3,
            ));
            out.named
                .push(("flashback_p90_ms".into(), "ms", quantile(&lat, 0.9) / 1e3));
        }
        Op::Restart => {
            out.layer.insert("core.crash_ms", median(&acc.crash_ms));
            out.layer
                .insert("recovery.analysis_ms", median(&acc.analysis_ms));
            out.layer.insert("recovery.redo_ms", median(&acc.redo_ms));
            out.layer.insert("recovery.undo_ms", median(&acc.undo_ms));
            out.layer
                .insert("recovery.unattributed_ms", median(&acc.unattributed_ms));
            out.layer
                .insert("recovery.records_scanned", median(&acc.scanned));
            out.layer
                .insert("recovery.records_redone", median(&acc.redone));
            out.layer
                .insert("recovery.records_undone", median(&acc.undone));
            out.named.push((
                format!("restart_ms (median of {ops})"),
                "ms",
                quantile(&lat, 0.5) / 1e3,
            ));
            out.named
                .push(("restart_p90_ms".into(), "ms", quantile(&lat, 0.9) / 1e3));
        }
    }
    out
}
