//! The five TPC-C transactions.
//!
//! Each function runs inside a caller-provided transaction handle; callers
//! commit/rollback and retry on deadlock. `stock_level` is the paper's
//! measurement query (§6.2) and has an as-of twin running against a
//! [`SnapshotDb`].

use rewind_core::{Database, Error, Result, SnapshotDb, Txn, Value};
use std::collections::BTreeSet;

/// One requested line of a NewOrder.
#[derive(Clone, Copy, Debug)]
pub struct NewOrderLine {
    /// Item ordered. An invalid id makes the whole transaction roll back
    /// (TPC-C's 1% "unused item" rule — it exercises the rollback path).
    pub item_id: u64,
    /// Supplying warehouse (usually the home warehouse).
    pub supply_w_id: u64,
    /// Quantity.
    pub quantity: i64,
}

/// TPC-C NewOrder. Returns the order id.
pub fn new_order(
    db: &Database,
    txn: &Txn,
    w_id: u64,
    d_id: u64,
    c_id: u64,
    lines: &[NewOrderLine],
) -> Result<u64> {
    // district: read-modify-write next_o_id
    let district = db
        .get_for_update(txn, "district", &[Value::U64(w_id), Value::U64(d_id)])?
        .ok_or(Error::KeyNotFound)?;
    let o_id = district[5].as_u64()?;
    let mut d = district.clone();
    d[5] = Value::U64(o_id + 1);
    db.update(txn, "district", &d)?;

    db.insert(
        txn,
        "orders",
        &[
            Value::U64(w_id),
            Value::U64(d_id),
            Value::U64(o_id),
            Value::U64(c_id),
            Value::U64(db.clock().now().as_micros()),
            Value::I64(-1),
            Value::U64(lines.len() as u64),
        ],
    )?;
    db.insert(
        txn,
        "new_order",
        &[Value::U64(w_id), Value::U64(d_id), Value::U64(o_id)],
    )?;

    for (n, line) in lines.iter().enumerate() {
        // invalid item => whole transaction aborts (caller rolls back)
        let item = db
            .get(txn, "item", &[Value::U64(line.item_id)])?
            .ok_or(Error::KeyNotFound)?;
        let price = item[2].as_f64()?;
        let stock = db
            .get_for_update(
                txn,
                "stock",
                &[Value::U64(line.supply_w_id), Value::U64(line.item_id)],
            )?
            .ok_or(Error::KeyNotFound)?;
        let mut s = stock.clone();
        let qty = s[2].as_i64()?;
        s[2] = Value::I64(if qty >= line.quantity + 10 {
            qty - line.quantity
        } else {
            qty - line.quantity + 91
        });
        s[3] = Value::F64(s[3].as_f64()? + line.quantity as f64);
        s[4] = Value::U64(s[4].as_u64()? + 1);
        if line.supply_w_id != w_id {
            s[5] = Value::U64(s[5].as_u64()? + 1);
        }
        db.update(txn, "stock", &s)?;
        db.insert(
            txn,
            "order_line",
            &[
                Value::U64(w_id),
                Value::U64(d_id),
                Value::U64(o_id),
                Value::U64((n + 1) as u64),
                Value::U64(line.item_id),
                Value::U64(line.supply_w_id),
                Value::I64(0),
                Value::I64(line.quantity),
                Value::F64(price * line.quantity as f64),
            ],
        )?;
    }
    Ok(o_id)
}

/// TPC-C Payment. `by_last_name` selects the customer by name (60% case).
pub fn payment(
    db: &Database,
    txn: &Txn,
    w_id: u64,
    d_id: u64,
    customer: CustomerSelector<'_>,
    amount: f64,
) -> Result<()> {
    let wh = db
        .get_for_update(txn, "warehouse", &[Value::U64(w_id)])?
        .ok_or(Error::KeyNotFound)?;
    let mut w = wh.clone();
    w[3] = Value::F64(w[3].as_f64()? + amount);
    db.update(txn, "warehouse", &w)?;

    let district = db
        .get_for_update(txn, "district", &[Value::U64(w_id), Value::U64(d_id)])?
        .ok_or(Error::KeyNotFound)?;
    let mut d = district.clone();
    d[4] = Value::F64(d[4].as_f64()? + amount);
    db.update(txn, "district", &d)?;

    let cust = match customer {
        CustomerSelector::ById(c_id) => db
            .get_for_update(
                txn,
                "customer",
                &[Value::U64(w_id), Value::U64(d_id), Value::U64(c_id)],
            )?
            .ok_or(Error::KeyNotFound)?,
        CustomerSelector::ByLastName(name) => {
            // TPC-C: take the middle matching customer, ordered by first name;
            // we order by c_id (our index suffix) which preserves the shape.
            let matches = db.scan_index_prefix(
                txn,
                "customer",
                "customer_by_name",
                &[Value::U64(w_id), Value::U64(d_id), Value::str(name)],
                1000,
            )?;
            if matches.is_empty() {
                return Err(Error::KeyNotFound);
            }
            let row = matches[matches.len() / 2].clone();
            // upgrade to X
            db.get_for_update(
                txn,
                "customer",
                &[row[0].clone(), row[1].clone(), row[2].clone()],
            )?
            .ok_or(Error::KeyNotFound)?
        }
    };
    let mut c = cust.clone();
    c[5] = Value::F64(c[5].as_f64()? - amount);
    c[6] = Value::F64(c[6].as_f64()? + amount);
    c[7] = Value::U64(c[7].as_u64()? + 1);
    db.update(txn, "customer", &c)?;

    db.insert(
        txn,
        "history",
        &[
            c[2].clone(),
            c[1].clone(),
            c[0].clone(),
            Value::U64(d_id),
            Value::U64(w_id),
            Value::U64(db.clock().now().as_micros()),
            Value::F64(amount),
            Value::Str(format!("payment w{w_id} d{d_id}")),
        ],
    )?;
    Ok(())
}

/// How Payment / OrderStatus pick their customer.
#[derive(Clone, Copy, Debug)]
pub enum CustomerSelector<'a> {
    /// Directly by id.
    ById(u64),
    /// By last name (the 60% TPC-C case).
    ByLastName(&'a str),
}

/// TPC-C OrderStatus: the customer's most recent order and its lines.
/// Returns (order id, line count).
pub fn order_status(
    db: &Database,
    txn: &Txn,
    w_id: u64,
    d_id: u64,
    customer: CustomerSelector<'_>,
) -> Result<Option<(u64, usize)>> {
    let c_id = match customer {
        CustomerSelector::ById(c_id) => {
            db.get(
                txn,
                "customer",
                &[Value::U64(w_id), Value::U64(d_id), Value::U64(c_id)],
            )?
            .ok_or(Error::KeyNotFound)?;
            c_id
        }
        CustomerSelector::ByLastName(name) => {
            let matches = db.scan_index_prefix(
                txn,
                "customer",
                "customer_by_name",
                &[Value::U64(w_id), Value::U64(d_id), Value::str(name)],
                1000,
            )?;
            if matches.is_empty() {
                return Err(Error::KeyNotFound);
            }
            matches[matches.len() / 2][2].as_u64()?
        }
    };
    let last = db.last_by_index_prefix(
        txn,
        "orders",
        "orders_by_customer",
        &[Value::U64(w_id), Value::U64(d_id), Value::U64(c_id)],
    )?;
    match last {
        Some(order) => {
            let o_id = order[2].as_u64()?;
            let lines = db.scan_prefix(
                txn,
                "order_line",
                &[Value::U64(w_id), Value::U64(d_id), Value::U64(o_id)],
            )?;
            Ok(Some((o_id, lines.len())))
        }
        None => Ok(None),
    }
}

/// TPC-C Delivery: deliver the oldest undelivered order of each district.
/// Returns the number of orders delivered.
pub fn delivery(
    db: &Database,
    txn: &Txn,
    w_id: u64,
    carrier_id: i64,
    districts: u64,
) -> Result<usize> {
    let mut delivered = 0usize;
    for d_id in 1..=districts {
        let pending = db.scan_prefix(txn, "new_order", &[Value::U64(w_id), Value::U64(d_id)])?;
        let Some(oldest) = pending.first() else {
            continue;
        };
        let o_id = oldest[2].as_u64()?;
        db.delete(
            txn,
            "new_order",
            &[Value::U64(w_id), Value::U64(d_id), Value::U64(o_id)],
        )?;

        let order = db
            .get_for_update(
                txn,
                "orders",
                &[Value::U64(w_id), Value::U64(d_id), Value::U64(o_id)],
            )?
            .ok_or(Error::KeyNotFound)?;
        let c_id = order[3].as_u64()?;
        let mut o = order.clone();
        o[5] = Value::I64(carrier_id);
        db.update(txn, "orders", &o)?;

        let lines = db.scan_prefix(
            txn,
            "order_line",
            &[Value::U64(w_id), Value::U64(d_id), Value::U64(o_id)],
        )?;
        let mut total = 0.0;
        let now = db.clock().now().as_micros() as i64;
        for line in &lines {
            total += line[8].as_f64()?;
            let mut l = line.clone();
            l[6] = Value::I64(now);
            db.update(txn, "order_line", &l)?;
        }

        let cust = db
            .get_for_update(
                txn,
                "customer",
                &[Value::U64(w_id), Value::U64(d_id), Value::U64(c_id)],
            )?
            .ok_or(Error::KeyNotFound)?;
        let mut c = cust.clone();
        c[5] = Value::F64(c[5].as_f64()? + total);
        c[8] = Value::U64(c[8].as_u64()? + 1);
        db.update(txn, "customer", &c)?;
        delivered += 1;
    }
    Ok(delivered)
}

/// TPC-C StockLevel against the live database: how many distinct items in
/// the district's last 20 orders have stock below `threshold`.
pub fn stock_level(
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
    let lo = next_o_id.saturating_sub(20);
    let lines = db.scan_between(
        txn,
        "order_line",
        &[Value::U64(w_id), Value::U64(d_id), Value::U64(lo)],
        &[Value::U64(w_id), Value::U64(d_id), Value::U64(next_o_id)],
    )?;
    // Key order, so page accesses repeat from run to run.
    let items: BTreeSet<u64> = lines.iter().map(|l| l[4].as_u64()).collect::<Result<_>>()?;
    let mut low = 0usize;
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

/// The paper's §1 "application error", batch-job flavour: a promotion
/// script meant to credit one district's customers is run with a missing
/// predicate and instead walks **every** customer of the warehouse,
/// zeroing balances and stamping its marker into `c_data`. Run it inside
/// the caller's transaction so the whole batch commits as one unit — the
/// exact shape the flashback engine repairs by `TxnId`. Returns the number
/// of rows damaged.
pub fn bad_credit_batch(db: &Database, txn: &Txn, w_id: u64) -> Result<u64> {
    let customers = db.scan_prefix(txn, "customer", &[Value::U64(w_id)])?;
    let mut damaged = 0u64;
    for mut c in customers {
        c[5] = Value::F64(0.0); // c_balance wiped
        c[6] = Value::F64(0.0); // c_ytd_payment wiped
        c[9] = Value::str("PROMO-APPLIED"); // c_data clobbered
        db.update(txn, "customer", &c)?;
        damaged += 1;
    }
    Ok(damaged)
}

/// The paper's as-of query (§6.2): StockLevel against an as-of snapshot —
/// same logic, read through the snapshot's page-access protocol.
pub fn stock_level_asof(snap: &SnapshotDb, w_id: u64, d_id: u64, threshold: i64) -> Result<usize> {
    let district_t = snap.table("district")?;
    let order_line_t = snap.table("order_line")?;
    let stock_t = snap.table("stock")?;

    let district = snap
        .get(&district_t, &[Value::U64(w_id), Value::U64(d_id)])?
        .ok_or(Error::KeyNotFound)?;
    let next_o_id = district[5].as_u64()?;
    let lo = next_o_id.saturating_sub(20);
    let lines = snap.scan_between(
        &order_line_t,
        &[Value::U64(w_id), Value::U64(d_id), Value::U64(lo)],
        &[Value::U64(w_id), Value::U64(d_id), Value::U64(next_o_id)],
    )?;
    // Key order, so page accesses repeat from run to run.
    let items: BTreeSet<u64> = lines.iter().map(|l| l[4].as_u64()).collect::<Result<_>>()?;
    let mut low = 0usize;
    for i_id in items {
        let stock = snap
            .get(&stock_t, &[Value::U64(w_id), Value::U64(i_id)])?
            .ok_or(Error::KeyNotFound)?;
        if stock[2].as_i64()? < threshold {
            low += 1;
        }
    }
    Ok(low)
}
