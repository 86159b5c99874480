//! The TPC-C mix (45/43/4/4/4 NewOrder/Payment/OrderStatus/Delivery/
//! StockLevel), one transaction at a time through `rewind_tpcc`'s public
//! transaction functions (StockLevel excepted, see
//! [`stock_level_in_key_order`]), with the timestamps the metrics need.
//!
//! Each client has a home warehouse and touches no other (NewOrder draws
//! no remote supply warehouse), so clients never wait on each other's row
//! locks and no transaction becomes a deadlock victim.

use crate::stats::Rng;
use rewind_core::{Database, DbConfig, Error, Result, Txn, Value};
use rewind_tpcc::schema::last_name;
use rewind_tpcc::txns::CustomerSelector;
use rewind_tpcc::{delivery, new_order, order_status, payment, NewOrderLine, TpccScale};
use rewind_wal::LogConfig;
use std::collections::BTreeSet;
use std::time::Instant;

/// Modeled device sync per log flush, the same as `commitbench`.
pub const FLUSH_DELAY_US: u64 = 150;
/// Full-page-image interval.
pub const FPI_INTERVAL: u32 = 16;
/// Redo workers for crash restart.
pub const REDO_WORKERS: usize = 2;

/// The engine configuration every workload shares; only the pool size,
/// the checkpoint daemon and the retention window differ.
pub fn db_config(
    buffer_pages: usize,
    checkpoint_interval_bytes: u64,
    retention_micros: u64,
) -> DbConfig {
    DbConfig {
        buffer_pages,
        fpi_interval: FPI_INTERVAL,
        checkpoint_interval_bytes,
        redo_workers: REDO_WORKERS,
        retention_micros,
        log: LogConfig {
            flush_delay_us: FLUSH_DELAY_US,
            ..LogConfig::default()
        },
        ..DbConfig::default()
    }
}

/// How one transaction ended.
pub struct TxnTimes {
    pub begin: Instant,
    /// When `Database::commit` was called (or the rollback began).
    pub commit_call: Instant,
    pub end: Instant,
    /// False for TPC-C's intentional 1% NewOrder rollback.
    pub committed: bool,
    /// `(w_id, d_id, o_id)` of a committed NewOrder.
    pub new_order: Option<(u64, u64, u64)>,
}

enum Input {
    NewOrder {
        d_id: u64,
        c_id: u64,
        lines: Vec<NewOrderLine>,
        poison: bool,
    },
    Payment {
        d_id: u64,
        by_name: Option<String>,
        c_id: u64,
        amount: f64,
    },
    OrderStatus {
        d_id: u64,
        c_id: u64,
    },
    Delivery {
        carrier: i64,
    },
    StockLevel {
        d_id: u64,
        threshold: i64,
    },
}

fn draw(scale: &TpccScale, w_id: u64, rng: &mut Rng) -> Input {
    let d_id = rng.range(1, scale.districts_per_warehouse);
    let c_id = rng.range(1, scale.customers_per_district);
    match rng.range(0, 99) {
        0..=44 => {
            let n = rng.range(5, 15) as usize;
            let poison = rng.range(0, 99) == 0;
            let lines = (0..n)
                .map(|i| NewOrderLine {
                    item_id: if poison && i == n - 1 {
                        u64::MAX
                    } else {
                        rng.range(1, scale.items)
                    },
                    supply_w_id: w_id,
                    quantity: rng.range(1, 10) as i64,
                })
                .collect();
            Input::NewOrder {
                d_id,
                c_id,
                lines,
                poison,
            }
        }
        45..=87 => {
            let by_name = (rng.range(0, 99) < 60)
                .then(|| last_name(rng.range(0, scale.customers_per_district - 1)));
            let amount = rng.range(100, 5000) as f64 / 100.0;
            Input::Payment {
                d_id,
                by_name,
                c_id,
                amount,
            }
        }
        88..=91 => Input::OrderStatus { d_id, c_id },
        92..=95 => Input::Delivery {
            carrier: rng.range(1, 10) as i64,
        },
        _ => Input::StockLevel {
            d_id,
            threshold: rng.range(10, 20) as i64,
        },
    }
}

/// Run one transaction of the mix against warehouse `w_id`. Errors other
/// than the intentional rollback are returned after rolling back.
pub fn run_txn(db: &Database, scale: &TpccScale, w_id: u64, rng: &mut Rng) -> Result<TxnTimes> {
    let input = draw(scale, w_id, rng);
    let begin = Instant::now();
    let txn = db.begin();
    let body = match &input {
        Input::NewOrder {
            d_id, c_id, lines, ..
        } => new_order(db, &txn, w_id, *d_id, *c_id, lines).map(|o| Some((w_id, *d_id, o))),
        Input::Payment {
            d_id,
            by_name,
            c_id,
            amount,
        } => {
            let who = match by_name {
                Some(name) => CustomerSelector::ByLastName(name),
                None => CustomerSelector::ById(*c_id),
            };
            payment(db, &txn, w_id, *d_id, who, *amount).map(|_| None)
        }
        Input::OrderStatus { d_id, c_id } => {
            order_status(db, &txn, w_id, *d_id, CustomerSelector::ById(*c_id)).map(|_| None)
        }
        Input::Delivery { carrier } => {
            delivery(db, &txn, w_id, *carrier, scale.districts_per_warehouse).map(|_| None)
        }
        Input::StockLevel { d_id, threshold } => {
            stock_level_in_key_order(db, &txn, w_id, *d_id, *threshold).map(|_| None)
        }
    };
    let commit_call = Instant::now();
    match body {
        Ok(new_order) => {
            db.commit(txn)?;
            Ok(TxnTimes {
                begin,
                commit_call,
                end: Instant::now(),
                committed: true,
                new_order,
            })
        }
        Err(Error::KeyNotFound) if matches!(input, Input::NewOrder { poison: true, .. }) => {
            db.rollback(txn)?;
            Ok(TxnTimes {
                begin,
                commit_call,
                end: Instant::now(),
                committed: false,
                new_order: None,
            })
        }
        Err(e) => {
            let _ = db.rollback(txn);
            Err(e)
        }
    }
}

/// TPC-C StockLevel with the same answer as `rewind_tpcc::stock_level`,
/// reading the stock rows in item order. The crate's version walks a
/// `HashSet`, whose order changes from run to run; with a pool smaller
/// than the database that order decides which pages are evicted, and so
/// when pages are written and which full-page images the log gets.
pub fn stock_level_in_key_order(
    db: &Database,
    txn: &Txn,
    w_id: u64,
    d_id: u64,
    threshold: i64,
) -> Result<usize> {
    let district = db
        .get(txn, "district", &[Value::U64(w_id), Value::U64(d_id)])?
        .ok_or(Error::KeyNotFound)?;
    let next_o_id = district[5].as_u64()?;
    let lines = db.scan_between(
        txn,
        "order_line",
        &[
            Value::U64(w_id),
            Value::U64(d_id),
            Value::U64(next_o_id.saturating_sub(20)),
        ],
        &[Value::U64(w_id), Value::U64(d_id), Value::U64(next_o_id)],
    )?;
    let items: BTreeSet<u64> = lines.iter().map(|l| l[4].as_u64()).collect::<Result<_>>()?;
    let mut low = 0;
    for i_id in items {
        let stock = db
            .get(txn, "stock", &[Value::U64(w_id), Value::U64(i_id)])?
            .ok_or(Error::KeyNotFound)?;
        if stock[2].as_i64()? < threshold {
            low += 1;
        }
    }
    Ok(low)
}

/// FNV-1a over the log's length and every page of the data file: equal
/// digests mean the same history, page for page.
pub fn digest(db: &Database) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    };
    db.log()
        .tail_lsn()
        .0
        .to_le_bytes()
        .into_iter()
        .for_each(&mut eat);
    for page in db.mem_file().expect("in-memory database").clone_contents() {
        match page {
            Some(img) => img.iter().for_each(|&b| eat(b)),
            None => eat(0xFF),
        }
    }
    h
}
