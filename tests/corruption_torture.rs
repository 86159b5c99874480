//! Media-corruption torture: every fault class the hardening defends
//! against — log bit-flips, page bit rot, torn page writes, lost tail
//! sectors, corrupt checkpoint anchors, transient EIO — driven by the
//! deterministic seeded [`FaultInjector`], asserting that recovery yields
//! *exactly* the committed durable prefix (or a typed corruption error when
//! the log chain itself is damaged), that as-of snapshots and flashback
//! still work after pages were salvaged, and that the salvage/corruption/
//! retry counters in `IoStats` are deterministic.
//!
//! CI runs this suite as a hard gate (counters exact, no panics); the three
//! fixed seeds keep every randomized choice reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rewind::common::{Error, Lsn, PageId};
use rewind::pagestore::{FaultInjector, FileManager};
use rewind::repair::{flashback, ConflictPolicy, RepairConfig, RepairTarget};
use rewind::wal::{LogConfig, Reach};
use rewind::{Column, DataType, Database, DbConfig, Row, Schema, SimClock, Timestamp, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// The fixed seeds the CI `corruption-torture` step pins.
const SEEDS: [u64; 3] = [0x00C0_FFEE, 0x0DDB_17E5, 0x5EED_F00D];

/// One log frame's `[u32 length][u32 crc]` prefix; offsets into a record's
/// body start this many bytes after its LSN.
const FRAME_HEADER: u64 = 8;

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

fn to_map(rows: Vec<Row>) -> BTreeMap<u64, Row> {
    rows.into_iter()
        .map(|r| (r[0].as_u64().unwrap(), r))
        .collect()
}

/// One committed batch of randomized inserts/updates/deletes, mirrored in
/// `model`.
fn commit_batch(db: &Database, rng: &mut SmallRng, model: &mut BTreeMap<u64, Row>, round: u64) {
    for _ in 0..rng.gen_range(3..10) {
        let ops = rng.gen_range(1..8);
        db.with_txn(|txn| {
            for _ in 0..ops {
                let id = rng.gen_range(0..200u64);
                let row = vec![
                    Value::U64(id),
                    Value::Str(format!("{round}:{}", rng.gen::<u32>())),
                ];
                match model.entry(id) {
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        if rng.gen_bool(0.25) {
                            db.delete(txn, "t", &[Value::U64(id)])?;
                            model.remove(&id);
                        } else {
                            db.update(txn, "t", &row)?;
                            e.insert(row);
                        }
                    }
                    std::collections::btree_map::Entry::Vacant(e) => {
                        db.insert(txn, "t", &row)?;
                        e.insert(row);
                    }
                }
            }
            Ok(())
        })
        .unwrap();
        db.clock().advance_micros(rng.gen_range(1_000..50_000));
    }
}

fn scan_map(db: &Database) -> BTreeMap<u64, Row> {
    to_map(db.with_txn(|txn| db.scan_all(txn, "t")).unwrap())
}

/// Fresh database over a seeded fault injector. Manual checkpoints only,
/// so tests control exactly when pages reach the (faulty) media.
fn faulty_db(seed: u64) -> (Arc<FaultInjector>, Database) {
    let fi = Arc::new(FaultInjector::new(seed));
    let db = Database::create_on(
        fi.clone(),
        DbConfig {
            checkpoint_interval_bytes: 0,
            ..DbConfig::default()
        },
        SimClock::starting_at(Timestamp::from_secs(1_000)),
    )
    .unwrap();
    db.with_txn(|txn| db.create_table(txn, "t", schema()))
        .unwrap();
    (fi, db)
}

/// Fault class: a bit flip in the durable log. Recovery must stop at the
/// first bad frame and come back with exactly the batches committed before
/// it — no panic, no rows from past the damage.
#[test]
fn log_bitflip_recovers_exactly_committed_prefix() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut db = Database::create(DbConfig {
            // No checkpoints: every page stays volatile, so restart rebuilds
            // purely from the log and the cut prefix is the whole truth.
            checkpoint_interval_bytes: 0,
            ..DbConfig::default()
        })
        .unwrap();
        db.with_txn(|txn| db.create_table(txn, "t", schema()))
            .unwrap();
        let mut model = BTreeMap::new();
        // (log position, model) after each committed batch.
        let mut boundaries = Vec::new();
        for round in 0..8 {
            commit_batch(&db, &mut rng, &mut model, round);
            db.log().flush_to(db.log().tail_lsn());
            boundaries.push((db.log().tail_lsn(), model.clone()));
        }
        // Flip one bit in the body of the first frame after batch `j`.
        let j = 2 + (seed as usize % 4);
        let (cut, expect) = boundaries[j].clone();
        assert!(db.log().corrupt_byte_at(cut.0 + FRAME_HEADER + 1, 0x40));

        db = Database::recover(db.simulate_crash()).unwrap();
        assert_eq!(
            db.log_io().corruptions_detected,
            1,
            "exactly the one damaged frame is detected (seed {seed:#x})"
        );
        // Recovery itself appends (and checkpoints) past the cut, so the
        // tail only bounds it from above; the model equality below proves
        // nothing past the damage survived.
        assert!(db.log().tail_lsn() >= cut);
        assert_eq!(
            scan_map(&db),
            expect,
            "recovery must yield exactly batches 0..={j} (seed {seed:#x})"
        );
        db.check_consistency().unwrap();
        // The survivor keeps working.
        db.with_txn(|txn| db.insert(txn, "t", &[Value::U64(9_999), Value::str("after")]))
            .unwrap();
        assert!(scan_map(&db).contains_key(&9_999));
    }
}

/// Fault classes: page bit rot and lost tail sectors, injected into every
/// page image on the media. Every subsequent read must self-heal from the
/// per-page log chain (salvage + repair-on-read), with exact counters.
#[test]
fn page_bitrot_and_short_reads_salvage_every_page() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (fi, db) = faulty_db(seed);
        let mut model = BTreeMap::new();
        let mut times = Vec::new();
        for round in 0..5 {
            commit_batch(&db, &mut rng, &mut model, round);
            // Record the as-of time BEFORE advancing: the next round's
            // first commit stamps the clock's current value, so the
            // recorded instant must be strictly older than it.
            times.push((db.clock().now(), model.clone()));
            db.clock().advance_micros(10_000);
        }
        // Push every page to the media, then damage all of them at rest.
        db.checkpoint().unwrap();
        db.parts().pool.drop_cache();
        let mut damaged = 0u64;
        for pid in 0..fi.page_count() {
            let pid = PageId(pid);
            if fi.inner().raw_image(pid).is_some() {
                let hit = if rng.gen_bool(0.5) {
                    fi.flip_bit(pid)
                } else {
                    fi.zero_tail(pid)
                };
                assert!(hit);
                damaged += 1;
            }
        }
        assert!(damaged > 3, "workload must have persisted several pages");

        // Full scan + structural check: every page read heals itself.
        assert_eq!(scan_map(&db), model, "salvaged rows (seed {seed:#x})");
        db.check_consistency().unwrap();
        let io = db.data_io();
        assert!(io.page_salvages > 0, "salvage must have run");
        assert_eq!(
            io.page_salvages, io.corruptions_detected,
            "every detected page salvaged exactly once — repair-on-read \
             means no page pays twice (seed {seed:#x})"
        );
        assert!(io.page_salvages <= damaged);

        // As-of time travel still works on salvaged history.
        let (t_mid, model_mid) = times[2].clone();
        let snap = db.create_snapshot_asof("mid", t_mid).unwrap();
        let tbl = snap.table("t").unwrap();
        assert_eq!(
            to_map(snap.scan_all(&tbl).unwrap()),
            model_mid,
            "as-of snapshot after salvage (seed {seed:#x})"
        );
    }
}

/// Fault class: a torn write through the real write-back path — the armed
/// page persists only a sector prefix during checkpoint's flush.
#[test]
fn torn_writeback_detected_and_salvaged() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (fi, db) = faulty_db(seed);
        let mut model = BTreeMap::new();
        commit_batch(&db, &mut rng, &mut model, 0);
        db.checkpoint().unwrap();
        commit_batch(&db, &mut rng, &mut model, 1);
        // Arm a tear on a page the next flush will actually write.
        let victim = db
            .parts()
            .pool
            .dirty_page_table()
            .iter()
            .map(|e| e.page)
            .max()
            .expect("second batch dirtied pages");
        fi.arm_torn_write(victim);
        db.checkpoint().unwrap();

        db.parts().pool.drop_cache();
        assert_eq!(scan_map(&db), model, "seed {seed:#x}");
        db.check_consistency().unwrap();
        let io = db.data_io();
        assert_eq!(
            io.page_salvages, 1,
            "exactly the torn page (seed {seed:#x})"
        );
        assert_eq!(io.corruptions_detected, 1);
    }
}

/// Salvage on a log that archives what it truncates: the chain-tip scan
/// must start at the truncation point, since the archived history below it
/// is outside retained reach. A page born after the cut keeps its whole
/// chain in the retained log, so it heals exactly once.
#[test]
fn salvage_after_truncation_on_archiving_log() {
    for seed in SEEDS {
        let fi = Arc::new(FaultInjector::new(seed));
        let db = Database::create_on(
            fi.clone(),
            DbConfig {
                checkpoint_interval_bytes: 0,
                log: LogConfig {
                    archive_on_truncate: true,
                    ..LogConfig::default()
                },
                ..DbConfig::default()
            },
            SimClock::starting_at(Timestamp::from_secs(1_000)),
        )
        .unwrap();
        db.with_txn(|txn| db.create_table(txn, "t", schema()))
            .unwrap();
        // A few 1 MiB log segments of history, so truncation drops whole
        // segments into the archive.
        let pad = "p".repeat(1_000);
        let mut round = 0u64;
        while db.log().tail_lsn().0 < 3 << 20 {
            db.with_txn(|txn| {
                for id in 0..20u64 {
                    let row = vec![Value::U64(id), Value::Str(format!("{round}{pad}"))];
                    if round == 0 {
                        db.insert(txn, "t", &row)?;
                    } else {
                        db.update(txn, "t", &row)?;
                    }
                }
                Ok(())
            })
            .unwrap();
            round += 1;
        }
        db.checkpoint().unwrap();
        db.set_undo_interval(Duration::from_secs(1)).unwrap();
        db.clock().advance_micros(5_000_000);
        db.checkpoint().unwrap();
        db.enforce_retention();
        let log = db.log();
        assert!(
            log.earliest_available_lsn() < log.truncation_point(),
            "truncated history was archived (seed {seed:#x})"
        );

        // A table born after the cut.
        db.with_txn(|txn| db.create_table(txn, "u", schema()))
            .unwrap();
        let mut model = BTreeMap::new();
        db.with_txn(|txn| {
            for id in 0..30u64 {
                let row = vec![Value::U64(id), Value::Str(format!("{seed}:{id}"))];
                db.insert(txn, "u", &row)?;
                model.insert(id, row);
            }
            Ok(())
        })
        .unwrap();
        db.checkpoint().unwrap();
        db.parts().pool.drop_cache();
        let root = db.table("u").unwrap().tree().unwrap().root;
        assert!(fi.flip_bit(root));

        let rows = db.with_txn(|txn| db.scan_all(txn, "u")).unwrap();
        assert_eq!(to_map(rows), model, "seed {seed:#x}");
        let io = db.data_io();
        assert_eq!(
            io.page_salvages, 1,
            "exactly the damaged root (seed {seed:#x})"
        );
        assert_eq!(io.corruptions_detected, 1);
    }
}

/// Flashback (the paper's headline repair primitive) must keep working on
/// a database whose pages went through salvage.
#[test]
fn flashback_works_after_salvage() {
    let (fi, db) = faulty_db(SEEDS[0]);
    let mut rng = SmallRng::seed_from_u64(SEEDS[0]);
    let mut model = BTreeMap::new();
    commit_batch(&db, &mut rng, &mut model, 0);
    db.clock().advance_secs(5);

    // The erroneous transaction to surgically revert later.
    let bad_txn = {
        let txn = db.begin();
        db.insert(&txn, "t", &[Value::U64(5_000), Value::str("erroneous")])
            .unwrap();
        let id = txn.id();
        db.commit(txn).unwrap();
        id
    };
    db.clock().advance_secs(5);

    // Media damage + self-heal in between.
    db.checkpoint().unwrap();
    db.parts().pool.drop_cache();
    let mut hit = 0;
    for pid in 0..fi.page_count() {
        if fi.flip_bit(PageId(pid)) {
            hit += 1;
        }
    }
    assert!(hit > 0);
    assert_eq!(
        scan_map(&db),
        {
            let mut m = model.clone();
            m.insert(5_000, vec![Value::U64(5_000), Value::str("erroneous")]);
            m
        },
        "salvaged state includes the bad row"
    );
    assert!(db.data_io().page_salvages > 0);

    let report = flashback(
        &db,
        &RepairTarget::Txns(BTreeSet::from([bad_txn])),
        &RepairConfig {
            policy: ConflictPolicy::Skip,
            prefetch_workers: 1,
        },
    )
    .unwrap();
    assert_eq!(report.applied, 1, "the bad insert is reverted");
    assert_eq!(scan_map(&db), model, "flashback lands on salvaged pages");
    db.check_consistency().unwrap();
}

/// Fault class: corrupt checkpoint anchors. A bad newest anchor falls back
/// to the older slot; two bad anchors degrade to a full scan. Either way
/// recovery returns every durable commit.
#[test]
fn anchor_corruption_falls_back_and_recovers_fully() {
    let mut rng = SmallRng::seed_from_u64(SEEDS[1]);
    let mut db = Database::create(DbConfig {
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    })
    .unwrap();
    db.with_txn(|txn| db.create_table(txn, "t", schema()))
        .unwrap();
    let mut model = BTreeMap::new();
    commit_batch(&db, &mut rng, &mut model, 0);
    db.checkpoint().unwrap();
    commit_batch(&db, &mut rng, &mut model, 1);
    db.checkpoint().unwrap();
    commit_batch(&db, &mut rng, &mut model, 2);
    db.log().flush_to(db.log().tail_lsn());

    // Newest anchor corrupt: the older one carries recovery.
    let newest = db.log().newest_anchor_slot().unwrap();
    assert!(db.log().corrupt_anchor_slot(newest));
    db = Database::recover(db.simulate_crash()).unwrap();
    // Both discard passes (crash + restart) see the same bad slot.
    assert_eq!(db.log_io().corruptions_detected, 2);
    assert_eq!(scan_map(&db), model, "older anchor recovers everything");
    db.check_consistency().unwrap();

    // Both anchors corrupt: analysis degrades to a scan, same answer.
    // Two fresh checkpoints first, so both slots hold valid anchors (the
    // slot corruption is an XOR — re-corrupting phase 1's slot would undo
    // it) and some committed work follows the newest one.
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    commit_batch(&db, &mut rng, &mut model, 3);
    db.log().flush_to(db.log().tail_lsn());
    assert!(db.log().corrupt_anchor_slot(0));
    assert!(db.log().corrupt_anchor_slot(1));
    let before = db.log_io().corruptions_detected;
    db = Database::recover(db.simulate_crash()).unwrap();
    // Both bad slots detected on both discard passes (crash + restart);
    // the post-recovery checkpoint then lays down a fresh valid anchor.
    assert_eq!(db.log_io().corruptions_detected - before, 4);
    assert_eq!(scan_map(&db), model, "scan fallback recovers everything");
    db.check_consistency().unwrap();
}

/// Fault class: transient EIO. Bounded retry absorbs short outages with
/// exact retry accounting; a persistent outage surfaces as a typed,
/// retryable I/O error — never a panic, never wrong rows.
#[test]
fn transient_eio_bounded_retry_and_typed_exhaustion() {
    let mut rng = SmallRng::seed_from_u64(SEEDS[2]);
    let (fi, db) = faulty_db(SEEDS[2]);
    let mut model = BTreeMap::new();
    commit_batch(&db, &mut rng, &mut model, 0);

    // Three write hiccups during checkpoint's flush: absorbed, counted.
    fi.arm_eio_writes(3);
    db.checkpoint().unwrap();
    assert_eq!(db.data_io().io_retries, 3);

    // Two read hiccups during the post-drop re-read: absorbed, counted.
    fi.arm_eio_reads(2);
    db.parts().pool.drop_cache();
    assert_eq!(scan_map(&db), model);
    assert_eq!(db.data_io().io_retries, 5);

    // A persistent outage exhausts the retry budget and surfaces typed.
    fi.arm_eio_reads(1_000);
    db.parts().pool.drop_cache();
    let err = db.with_txn(|txn| db.scan_all(txn, "t")).unwrap_err();
    assert!(matches!(err, Error::Io(_)), "typed transient error: {err}");
    assert!(err.is_transient(), "callers may retry the whole operation");

    // Device recovers: the same database serves the same rows.
    fi.arm_eio_reads(0);
    assert_eq!(scan_map(&db), model);
    db.check_consistency().unwrap();
}

/// Salvage is honest about its limits: when the per-page log chain itself
/// is damaged, the page read fails with a typed corruption error rather
/// than fabricating rows.
#[test]
fn salvage_fails_typed_when_log_chain_damaged() {
    let mut rng = SmallRng::seed_from_u64(SEEDS[0]);
    let (fi, db) = faulty_db(SEEDS[0]);
    let mut model = BTreeMap::new();
    for round in 0..3 {
        commit_batch(&db, &mut rng, &mut model, round);
    }
    db.checkpoint().unwrap();
    db.parts().pool.drop_cache();

    // Find a data page with real history and damage BOTH the page and a
    // mid-chain log record it needs for reconstruction.
    let mut victim = None;
    db.log()
        .scan_refs(Lsn::FIRST, Lsn::MAX, Reach::Retained, |rec| {
            let h = rec.header()?;
            if h.page.0 > 1 && h.kind.is_page_op() {
                victim = Some((h.page, h.lsn));
            }
            Ok(true)
        })
        .unwrap();
    let (pid, chain_lsn) = victim.expect("workload logged page ops");
    assert!(db
        .log()
        .corrupt_byte_at(chain_lsn.0 + FRAME_HEADER + 1, 0x08));
    assert!(fi.flip_bit(pid));

    let err = db.with_txn(|txn| db.scan_all(txn, "t")).unwrap_err();
    assert!(
        err.corruption_kind().is_some(),
        "typed corruption, no panic: {err}"
    );
    assert!(
        err.to_string().contains("unsalvageable"),
        "failure names the salvage limit: {err}"
    );
    assert_eq!(db.data_io().page_salvages, 0, "no fabricated salvage");
}

/// Media errors hit by *background* maintenance (the checkpoint daemon
/// kicked by commits) are deferred and surface through
/// `take_background_errors`, typed.
#[test]
fn background_checkpoint_media_errors_surface_typed() {
    let fi = Arc::new(FaultInjector::new(SEEDS[1]));
    let db = Database::create_on(
        fi.clone(),
        DbConfig {
            // Checkpoint after every commit: maintenance runs hot.
            checkpoint_interval_bytes: 1,
            ..DbConfig::default()
        },
        SimClock::starting_at(Timestamp::from_secs(1_000)),
    )
    .unwrap();
    db.with_txn(|txn| db.create_table(txn, "t", schema()))
        .unwrap();
    // Let the checkpoint kicked by the healthy commit finish before the
    // faults arm, so the outage hits exactly the next one.
    db.quiesce_checkpoints();
    assert!(db.take_background_errors().is_empty());

    // A persistent write outage: the kicked checkpoint exhausts its retry
    // budget, but the commit itself (log-only) succeeds.
    fi.arm_eio_writes(1_000);
    db.with_txn(|txn| db.insert(txn, "t", &[Value::U64(1), Value::str("v")]))
        .unwrap();
    db.quiesce_checkpoints();
    let errs = db.take_background_errors();
    assert!(
        errs.iter()
            .any(|(what, e)| what.contains("checkpoint") && matches!(e, Error::Io(_))),
        "deferred background error must be typed: {errs:?}"
    );

    // Device recovers; maintenance heals.
    fi.arm_eio_writes(0);
    db.checkpoint().unwrap();
    assert!(scan_map(&db).contains_key(&1));
    db.check_consistency().unwrap();
}

/// Fault class: transient EIO striking individual pages *inside* vectored
/// batches. A per-page fault must fail only its own slot — the batch's
/// clean segments still coalesce and succeed — and the pool's per-page
/// retry protocol absorbs each faulted slot with exactly one counted
/// retry, on both the batched read path (restart's staged redo prefetch)
/// and the batched write path (the checkpoint writeback pool).
#[test]
fn mid_batch_faults_fail_only_their_page() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (fi, db) = faulty_db(seed);
        let mut model = BTreeMap::new();
        for round in 0..4 {
            commit_batch(&db, &mut rng, &mut model, round);
        }

        // Batched writes: faults land mid-batch inside the writeback
        // pool's `write_pages`; only the faulted slots retry (scalar), the
        // checkpoint still succeeds, and each fault costs exactly one
        // retry.
        let before = db.data_io();
        fi.arm_eio_writes(3);
        db.checkpoint().unwrap();
        let after = db.data_io();
        assert_eq!(
            after.io_retries - before.io_retries,
            3,
            "each faulted write slot retries exactly once (seed {seed:#x})"
        );
        assert!(
            after.batched_write_ops > before.batched_write_ops,
            "checkpoint flush must go through batched writes (seed {seed:#x})"
        );

        // Batched reads: more committed work, then crash. Restart's redo
        // prefetch stages page runs through `read_pages`; the armed faults
        // fail individual slots mid-batch, each resuming the scalar retry
        // protocol at its own miss.
        for round in 4..6 {
            commit_batch(&db, &mut rng, &mut model, round);
        }
        let arts = db.simulate_crash();
        fi.arm_eio_reads(3);
        let db = Database::recover(arts).unwrap();
        let io = db.data_io();
        assert_eq!(
            io.io_retries - after.io_retries,
            3,
            "each faulted read slot retries exactly once (seed {seed:#x})"
        );
        assert_eq!(
            scan_map(&db),
            model,
            "every committed row survives mid-batch faults (seed {seed:#x})"
        );
        assert_eq!(
            db.data_io().corruptions_detected,
            0,
            "transient EIO is not corruption"
        );
        db.check_consistency().unwrap();
    }
}
