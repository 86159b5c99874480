//! Equivalence of the two time-travel mechanisms: for any point in time,
//! the traditional restore-and-roll-forward baseline and the as-of snapshot
//! must produce identical data. (This is what makes Figs. 7/8 an
//! apples-to-apples comparison.)

use rewind::access::value::{decode_row, encode_row};
use rewind::backup::{restore_to_point_in_time, take_full_backup};
use rewind::tpcc::{create_schema, load_initial, run_mixed, DriverConfig, TpccScale};
use rewind::wal::Reach;
use rewind::{Database, DbConfig, Result, Row, SimClock, Value};
use std::sync::Arc;

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

#[test]
fn restore_and_asof_agree_at_every_mark() -> Result<()> {
    let scale = TpccScale::tiny();
    let db = Arc::new(Database::create(DbConfig::default())?);
    create_schema(&db)?;
    load_initial(&db, &scale)?;
    let backup = take_full_backup(&db)?;

    let mut marks = Vec::new();
    for seed in 0..3u64 {
        run_mixed(
            &db,
            &scale,
            &DriverConfig {
                threads: 2,
                txns_per_thread: 40,
                us_per_txn: 250_000,
                seed,
                rollback_pct: 5,
            },
        )?;
        db.checkpoint()?;
        marks.push(db.clock().now());
        db.clock().advance_secs(1);
    }

    for (i, &t) in marks.iter().enumerate() {
        // Path A: as-of snapshot.
        let name = format!("mark{i}");
        let snap = db.create_snapshot_asof(&name, t)?;

        // Path B: restore the backup and roll forward to the same t.
        let (restored, report) = restore_to_point_in_time(
            &backup,
            db.log(),
            t,
            DbConfig::default(),
            SimClock::starting_at(t),
        )?;
        assert!(report.records_replayed > 0);

        for table in [
            "warehouse",
            "district",
            "customer",
            "orders",
            "order_line",
            "new_order",
            "stock",
        ] {
            let info = snap.table(table)?;
            let a = sorted(snap.scan_all(&info)?);
            let b = sorted(restored.with_txn(|txn| restored.scan_all(txn, table))?);
            assert_eq!(a.len(), b.len(), "{table} row count at mark {i}");
            assert_eq!(a, b, "{table} contents at mark {i}");
        }
        snap.wait_undo_complete();
        db.drop_snapshot(&name)?;
    }
    Ok(())
}

/// Every table's rows, sorted, as read through `read`.
fn all_tables(read: impl Fn(&str) -> Result<Vec<Row>>) -> Result<Vec<(&'static str, Vec<Row>)>> {
    let tables = [
        "warehouse",
        "district",
        "customer",
        "history",
        "new_order",
        "orders",
        "order_line",
        "item",
        "stock",
    ];
    tables
        .into_iter()
        .map(|t| Ok((t, sorted(read(t)?))))
        .collect()
}

/// Several transactions in flight at `t` — two on one tree leaf, a heap-row
/// update, a key-changing update (its secondary-index entry moves) and an
/// insert that splits a page — must be backed out identically by all three
/// users of the undo sweep: the as-of snapshot at `t`, restore to `t`, and
/// crash restart at `t`.
#[test]
fn restore_includes_inflight_undo() -> Result<()> {
    let db = Database::create(DbConfig::default())?;
    let scale = TpccScale::tiny();
    create_schema(&db)?;
    load_initial(&db, &scale)?;
    let backup = take_full_backup(&db)?;
    let history_row = vec![
        Value::U64(1),
        Value::U64(1),
        Value::U64(1),
        Value::U64(1),
        Value::U64(1),
        Value::U64(0),
        Value::F64(10.0),
        Value::str("committed"),
    ];
    db.with_txn(|txn| db.insert(txn, "history", &history_row))?;
    db.clock().advance_secs(5);

    // leave transactions in flight spanning the restore target
    let inflight = db.begin();
    let w = db
        .get_for_update(&inflight, "warehouse", &[Value::U64(1)])?
        .unwrap();
    db.update(
        &inflight,
        "warehouse",
        &[w[0].clone(), w[1].clone(), w[2].clone(), Value::F64(-1.0)],
    )?;

    // Two losers on the same leaf of `item`.
    let same_leaf: Vec<_> = [1u64, 2]
        .into_iter()
        .map(|i_id| -> Result<_> {
            let txn = db.begin();
            let mut item = db
                .get_for_update(&txn, "item", &[Value::U64(i_id)])?
                .unwrap();
            item[2] = Value::F64(-(i_id as f64));
            db.update(&txn, "item", &item)?;
            Ok(txn)
        })
        .collect::<Result<_>>()?;
    let leaf_of = |txn: &rewind::Txn| -> Result<_> {
        Ok(db
            .log()
            .get_record_ref(txn.last_lsn(), Reach::Retained)?
            .header()?
            .page)
    };
    assert_eq!(leaf_of(&same_leaf[0])?, leaf_of(&same_leaf[1])?);

    // A heap-row update.
    let heap_txn = db.begin();
    {
        let heap = db.table("history")?.heap()?;
        let store = db.store(&heap_txn);
        let mut found = None;
        heap.scan(&store, |rid, bytes| {
            found = Some((rid, decode_row(bytes)?));
            Ok(false)
        })?;
        let (rid, mut row) = found.unwrap();
        assert_eq!(row, history_row);
        row[6] = Value::F64(-10.0);
        heap.update(&store, rid, &encode_row(&row))?;
    }

    // A key-changing update: the customer's `customer_by_name` entry moves.
    let rename_txn = db.begin();
    let mut c = db
        .get_for_update(
            &rename_txn,
            "customer",
            &[Value::U64(1), Value::U64(1), Value::U64(1)],
        )?
        .unwrap();
    let renamed = Value::str("RENAMED");
    let old_last = std::mem::replace(&mut c[3], renamed.clone());
    db.update(&rename_txn, "customer", &c)?;

    // An insert that splits a page.
    let split_txn = db.begin();
    let ol_tree = db.table("order_line")?.tree()?;
    let pages_before = ol_tree.collect_pages(&db.store(&split_txn))?.len();
    for ol in 0..400u64 {
        let row = [1, 1, 1_000_000, ol, 1, 1]
            .map(Value::U64)
            .into_iter()
            .chain([Value::I64(0), Value::I64(5), Value::F64(1.0)])
            .collect::<Vec<_>>();
        db.insert(&split_txn, "order_line", &row)?;
    }
    assert!(ol_tree.collect_pages(&db.store(&split_txn))?.len() > pages_before);

    db.clock().advance_secs(5);
    // A later commit makes every loser record above durable.
    db.with_txn(|txn| {
        let d = db
            .get_for_update(txn, "district", &[Value::U64(1), Value::U64(1)])?
            .unwrap();
        let mut d2 = d.clone();
        d2[4] = Value::F64(123.0);
        db.update(txn, "district", &d2)
    })?;
    let t = db.clock().now();
    db.clock().advance_secs(5);
    let losers = 6;

    // 1. The as-of snapshot at t.
    let snap = db.create_snapshot_asof("at_t", t)?;
    snap.wait_undo_complete();
    let by_name = |last: &Value| [Value::U64(1), Value::U64(1), last.clone()];
    let customer_t = snap.table("customer")?;
    let snap_rows = all_tables(|t| {
        let info = snap.table(t)?;
        snap.scan_all(&info)
    })?;
    let snap_index = [&old_last, &renamed].map(|last| {
        snap.scan_index_prefix(&customer_t, "customer_by_name", &by_name(last), 100)
            .map(sorted)
    });
    let [old_hits, new_hits] = snap_index;
    let snap_index = [old_hits?, new_hits?];
    drop(snap);
    db.drop_snapshot("at_t")?;

    // 2. Restore to t.
    let (restored, report) = restore_to_point_in_time(
        &backup,
        db.log(),
        t,
        DbConfig::default(),
        SimClock::starting_at(t),
    )?;
    assert_eq!(
        report.losers_undone, losers,
        "the in-flight txns must be undone"
    );

    // 3. Crash at t and restart.
    let recovered = Database::recover(db.simulate_crash())?;
    assert_eq!(recovered.last_recovery().unwrap().losers, losers as u64);

    for (path, live) in [("restore", &restored), ("restart", &recovered)] {
        let rows = all_tables(|t| live.with_txn(|txn| live.scan_all(txn, t)))?;
        for ((table, a), (_, b)) in snap_rows.iter().zip(&rows) {
            assert_eq!(a, b, "{table}: as-of snapshot vs {path}");
        }
        let index = live.with_txn(|txn| {
            let scan = |last| {
                live.scan_index_prefix(txn, "customer", "customer_by_name", &by_name(last), 100)
                    .map(sorted)
            };
            Ok([scan(&old_last)?, scan(&renamed)?])
        })?;
        assert_eq!(
            snap_index, index,
            "customer_by_name: as-of snapshot vs {path}"
        );
    }

    let rows = |table: &str| &snap_rows.iter().find(|(t, _)| *t == table).unwrap().1;
    let wrow = rows("warehouse")
        .iter()
        .find(|w| w[0] == Value::U64(1))
        .unwrap();
    assert_ne!(
        wrow[3],
        Value::F64(-1.0),
        "uncommitted update must not survive"
    );
    let drow = rows("district")
        .iter()
        .find(|d| d[0] == Value::U64(1) && d[1] == Value::U64(1))
        .unwrap();
    assert_eq!(drow[4], Value::F64(123.0), "committed update must survive");
    assert_eq!(rows("history"), &vec![history_row], "heap update undone");
    assert!(rows("item")
        .iter()
        .all(|i| i[2] != Value::F64(-1.0) && i[2] != Value::F64(-2.0)));
    assert!(rows("customer").iter().all(|c| c[3] != renamed));
    assert!(
        rows("order_line")
            .iter()
            .all(|ol| ol[2] != Value::U64(1_000_000)),
        "split insert undone"
    );
    let [old_hits, new_hits] = snap_index;
    assert!(
        !old_hits.is_empty() && new_hits.is_empty(),
        "index entry moved back"
    );
    Ok(())
}
