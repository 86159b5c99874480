//! Querying an as-of snapshot — and recovering data from it.
//!
//! [`SnapshotDb`] gives an as-of snapshot the same query surface as the live
//! database (paper §5: "presented to the user as a transactionally
//! consistent read-only database that supports arbitrary queries"). All
//! reads run through the snapshot's page-access protocol, so prior versions
//! are produced only for the data actually touched. Primary-page reads go
//! through the (sharded) buffer manager with a shared latch, so concurrent
//! as-of queries scale with live traffic instead of serializing behind a
//! global page-table lock.
//!
//! Reads gate on the locks reacquired for transactions in flight at the
//! SplitLSN (§5.2): a read that would observe such a row blocks until the
//! background undo releases the lock, then retries.
//!
//! [`restore_table_from_snapshot`] implements the paper's §1 recovery
//! workflow: read the dropped/damaged table's schema from the snapshot
//! catalog, recreate it in the live database, and `INSERT … SELECT` the
//! rows across.

use crate::catalog::{self, SysTrees, TableInfo, TableKind};
use crate::database::Database;
use parking_lot::RwLock;
use rewind_access::keys::{encode_key, prefix_upper_bound};
use rewind_access::value::decode_row;
use rewind_access::{Row, Value};
use rewind_buffer::ScanPartition;
use rewind_common::{Error, Lsn, ObjectId, PageId, Result, Timestamp};
use rewind_snapshot::{AsOfSnapshot, SnapshotStats};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

/// A queryable handle over an as-of (or regular) snapshot.
#[derive(Clone)]
pub struct SnapshotDb {
    snap: Arc<AsOfSnapshot>,
    sys: SysTrees,
    cache: Arc<RwLock<HashMap<String, Arc<TableInfo>>>>,
    /// Worker threads used to prepare a table's leaf pages ahead of range
    /// scans (1 = serial, the default).
    prefetch_workers: usize,
    /// Frame budget for the scan partition bulk preparations run in
    /// (0 = the snapshot's default). Bulk as-of streams larger than the
    /// primary's buffer pool disturb at most this many of its frames.
    scan_budget: usize,
}

impl SnapshotDb {
    /// Wrap an [`AsOfSnapshot`], resolving its (as-of) catalog roots.
    pub fn open(snap: Arc<AsOfSnapshot>) -> Result<SnapshotDb> {
        let sys = SysTrees::load(&snap.store())?;
        Ok(SnapshotDb {
            snap,
            sys,
            cache: Arc::new(RwLock::new(HashMap::new())),
            prefetch_workers: 1,
            scan_budget: 0,
        })
    }

    /// Return a handle whose range scans fan out page preparation across
    /// `workers` threads (ROADMAP perf item (c)). With `workers <= 1` the
    /// scan path is exactly the serial protocol.
    pub fn with_prefetch_workers(mut self, workers: usize) -> SnapshotDb {
        self.prefetch_workers = workers.max(1);
        self
    }

    /// Return a handle whose bulk preparations run inside a scan partition
    /// of `budget` pool frames (ROADMAP perf item (h); 0 restores the
    /// default of [`AsOfSnapshot::default_scan_budget`]; the effective
    /// budget is floored at two frames per prepare worker and capped at
    /// half the pool).
    pub fn with_scan_budget(mut self, budget: usize) -> SnapshotDb {
        self.scan_budget = budget;
        self
    }

    /// One scan partition for one bulk operation: the configured budget
    /// (or the snapshot default), floored at two frames per worker so ring
    /// reuse never stalls on the fan-out's own transient pins. Everything a
    /// bulk operation reads — leaf discovery, prefetch fan-out, straggler
    /// scan reads — must share ONE partition, or each piece would claim
    /// its own budget from the pool and the configured bound would be a
    /// multiple of itself.
    fn scan_partition_for(&self, workers: usize) -> ScanPartition {
        let budget = if self.scan_budget > 0 {
            self.scan_budget
        } else {
            self.snap.default_scan_budget(workers)
        };
        self.snap.scan_partition(budget.max(2 * workers.max(1)))
    }

    /// Concurrently prepare every leaf page of `table` into the side file,
    /// returning the number of pages newly prepared. Internal pages are
    /// prepared serially by the structural walk that discovers the leaves;
    /// the leaves themselves — the bulk of any real table — prepare in
    /// parallel. All of it runs through one pin-limited scan partition, so
    /// a table larger than the buffer pool cannot evict the live working
    /// set. Subsequent reads of those pages are zero-copy side-file hits.
    ///
    /// With `workers <= 1` this is a no-op *unless* a scan budget was
    /// explicitly configured ([`SnapshotDb::with_scan_budget`] /
    /// `DbConfig::asof_scan_budget`): a configured budget is a promise
    /// that bulk as-of streams stay inside it, so serial full-table scans
    /// must take the partitioned path too, not just parallel prefetches.
    pub fn prefetch_table(&self, table: &TableInfo, workers: usize) -> Result<u64> {
        if table.kind != TableKind::Tree || (workers <= 1 && self.scan_budget == 0) {
            return Ok(0);
        }
        self.prefetch_table_in(table, workers, &self.scan_partition_for(workers))
    }

    fn prefetch_table_in(
        &self,
        table: &TableInfo,
        workers: usize,
        part: &ScanPartition,
    ) -> Result<u64> {
        // Discovery reads internal pages — part of the cold stream, so it
        // runs inside the partition too.
        let store = self.snap.store_partitioned(part);
        let leaves = table.tree()?.unread_leaf_pages(&store)?;
        if leaves.len() < 2 {
            return Ok(0);
        }
        Ok(self
            .snap
            .prepare_pages_in(&leaves, workers, part)?
            .prepared())
    }

    /// Concurrently prepare only the leaf pages that hold `keys`
    /// (already-encoded key bytes) — the point-read counterpart of
    /// [`SnapshotDb::prefetch_table`]. Each key's leaf is located by
    /// reading internal pages only, so preparation work stays proportional
    /// to the keys actually touched, never to table size.
    pub fn prefetch_leaves_for_keys(
        &self,
        table: &TableInfo,
        keys: &[&[u8]],
        workers: usize,
    ) -> Result<u64> {
        // Point-read prefetches are the snapshot's working set, not a cold
        // stream: a configured budget does not force them through the
        // partition, so the serial path stays a no-op here.
        if table.kind != TableKind::Tree || workers <= 1 {
            return Ok(0);
        }
        let store = self.snap.store();
        let tree = table.tree()?;
        let mut leaves: Vec<PageId> = Vec::new();
        for key in keys {
            if let Some(pid) = tree.leaf_for_key_unread(&store, key)? {
                if !leaves.contains(&pid) {
                    leaves.push(pid);
                }
            }
        }
        if leaves.len() < 2 {
            return Ok(0);
        }
        let part = self.scan_partition_for(workers);
        Ok(self
            .snap
            .prepare_pages_in(&leaves, workers, &part)?
            .prepared())
    }

    /// The underlying snapshot.
    pub fn raw(&self) -> &Arc<AsOfSnapshot> {
        &self.snap
    }

    /// Snapshot name.
    pub fn name(&self) -> &str {
        &self.snap.name
    }

    /// The wall-clock time this snapshot represents.
    pub fn as_of(&self) -> Timestamp {
        self.snap.as_of
    }

    /// The SplitLSN.
    pub fn split_lsn(&self) -> Lsn {
        self.snap.split_lsn
    }

    /// Instrumentation counters (pages prepared, records undone, …).
    pub fn stats(&self) -> rewind_snapshot::stats::SnapshotStatsView {
        self.snap.stats()
    }

    /// Suppress unused-import warning helper (stats type is re-exported).
    fn _stats_ty(_: &SnapshotStats) {}

    /// Pages currently cached in the side file.
    pub fn side_pages(&self) -> usize {
        self.snap.side_pages()
    }

    /// Per-page prepare-gate entries currently live (bounded by in-flight
    /// preparations; 0 when quiescent — the gate-leak regression guard).
    pub fn prepare_gate_entries(&self) -> usize {
        self.snap.prepare_gate_entries()
    }

    /// Whether background undo has completed.
    pub fn undo_complete(&self) -> bool {
        self.snap.undo_complete()
    }

    /// Block until background undo completes.
    pub fn wait_undo_complete(&self) {
        self.snap.wait_undo_complete()
    }

    // ---- metadata (the §1 workflow starts here) ------------------------------

    /// Look up a table *as of the snapshot time*. This is how a user
    /// confirms a dropped table existed at the chosen time (§1).
    pub fn table(&self, name: &str) -> Result<Arc<TableInfo>> {
        if let Some(info) = self.cache.read().get(name) {
            return Ok(info.clone());
        }
        let store = self.snap.store();
        loop {
            let epoch = self.snap.undo_epoch();
            match catalog::read_table_by_name(&store, &self.sys, name)? {
                Some(info) => {
                    // Gate on the catalog row: an in-flight DDL transaction
                    // at the split may still own it.
                    if self
                        .snap
                        .gate_row(ObjectId::SYS_TABLES, &catalog::table_key(info.id))?
                        || self.snap.undo_epoch() != epoch
                    {
                        continue; // waited: re-read
                    }
                    let info = Arc::new(info);
                    self.cache.write().insert(name.to_string(), info.clone());
                    return Ok(info);
                }
                None => {
                    // Absence is only trustworthy once no in-flight DDL locks
                    // remain on the catalog.
                    if !self.snap.undo_complete() {
                        self.snap
                            .locks
                            .wait_until_object_free(ObjectId::SYS_TABLES)?;
                        if catalog::read_table_by_name(&store, &self.sys, name)?.is_some() {
                            continue;
                        }
                    }
                    return Err(Error::TableNotFound(name.to_string()));
                }
            }
        }
    }

    /// All tables as of the snapshot time.
    pub fn list_tables(&self) -> Result<Vec<TableInfo>> {
        let store = self.snap.store();
        loop {
            let epoch = self.snap.undo_epoch();
            let tables = catalog::list_tables(&store, &self.sys)?;
            let mut waited = false;
            for t in &tables {
                waited |= self
                    .snap
                    .gate_row(ObjectId::SYS_TABLES, &catalog::table_key(t.id))?;
            }
            if !waited && self.snap.undo_epoch() == epoch {
                return Ok(tables);
            }
        }
    }

    // ---- queries ----------------------------------------------------------------

    /// Point lookup as of the snapshot time.
    pub fn get(&self, table: &TableInfo, key: &[Value]) -> Result<Option<Row>> {
        let refs: Vec<&Value> = key.iter().collect();
        let key_bytes = encode_key(&refs)?;
        let store = self.snap.store();
        loop {
            let epoch = self.snap.undo_epoch();
            let found = table.tree()?.get(&store, &key_bytes)?;
            if self.snap.gate_row(table.id, &key_bytes)? || self.snap.undo_epoch() != epoch {
                continue; // waited for in-flight txn: re-read
            }
            return match found {
                Some(v) => Ok(Some(decode_row(&v)?)),
                None => Ok(None),
            };
        }
    }

    /// Point lookup by already-encoded key bytes, returning the stored row
    /// bytes. The repair engine diffs witness against live at the byte
    /// level, so decoding is skipped (and unnecessary key decoding — the
    /// log only yields encoded keys — is avoided entirely).
    pub fn get_value_bytes(&self, table: &TableInfo, key_bytes: &[u8]) -> Result<Option<Vec<u8>>> {
        let store = self.snap.store();
        loop {
            let epoch = self.snap.undo_epoch();
            let found = table.tree()?.get(&store, key_bytes)?;
            if self.snap.gate_row(table.id, key_bytes)? || self.snap.undo_epoch() != epoch {
                continue; // waited for in-flight txn: re-read
            }
            return Ok(found);
        }
    }

    fn scan_gated(
        &self,
        table: &TableInfo,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        limit: usize,
    ) -> Result<Vec<Row>> {
        // Fan preparation out only when the scan will visit the whole
        // table anyway; a bounded scan's working set is its range, and
        // preparing beyond it would break the touched-pages-only economy.
        // A configured budget bounds *every* bulk tree stream, bounded
        // ranges included — and the prefetch, the leaf discovery and the
        // scan's own straggler reads all share ONE partition, so the total
        // pool damage stays within a single budget.
        let full_scan =
            matches!((lo, hi), (Bound::Unbounded, Bound::Unbounded)) && limit == usize::MAX;
        let part = (self.scan_budget > 0 || (full_scan && self.prefetch_workers > 1))
            .then(|| self.scan_partition_for(self.prefetch_workers));
        if full_scan && table.kind == TableKind::Tree {
            if let Some(p) = &part {
                self.prefetch_table_in(table, self.prefetch_workers, p)?;
            }
        }
        let store = match &part {
            Some(p) => self.snap.store_partitioned(p),
            None => self.snap.store(),
        };
        loop {
            let epoch = self.snap.undo_epoch();
            let mut rows: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            table.tree()?.scan(&store, lo, hi, |k, v| {
                rows.push((k.to_vec(), v.to_vec()));
                Ok(rows.len() < limit)
            })?;
            let mut waited = false;
            if !self.snap.undo_complete() {
                for (k, _) in &rows {
                    waited |= self.snap.gate_row(table.id, k)?;
                }
            }
            if waited || self.snap.undo_epoch() != epoch {
                continue;
            }
            return rows.into_iter().map(|(_, v)| decode_row(&v)).collect();
        }
    }

    /// Rows whose key starts with `prefix`, as of the snapshot time.
    pub fn scan_prefix(&self, table: &TableInfo, prefix: &[Value]) -> Result<Vec<Row>> {
        let refs: Vec<&Value> = prefix.iter().collect();
        if refs.is_empty() {
            return self.scan_all(table);
        }
        let lo = encode_key(&refs)?;
        let hi = prefix_upper_bound(&lo);
        self.scan_gated(
            table,
            Bound::Included(&lo),
            Bound::Excluded(&hi),
            usize::MAX,
        )
    }

    /// Rows with `lo <= key <= hi` (values for a prefix of the key).
    pub fn scan_between(&self, table: &TableInfo, lo: &[Value], hi: &[Value]) -> Result<Vec<Row>> {
        let lo_refs: Vec<&Value> = lo.iter().collect();
        let hi_refs: Vec<&Value> = hi.iter().collect();
        let lo_b = encode_key(&lo_refs)?;
        let hi_b = prefix_upper_bound(&encode_key(&hi_refs)?);
        self.scan_gated(
            table,
            Bound::Included(&lo_b),
            Bound::Excluded(&hi_b),
            usize::MAX,
        )
    }

    /// Every row of the table as of the snapshot time.
    pub fn scan_all(&self, table: &TableInfo) -> Result<Vec<Row>> {
        match table.kind {
            TableKind::Tree => {
                self.scan_gated(table, Bound::Unbounded, Bound::Unbounded, usize::MAX)
            }
            TableKind::Heap => {
                // Heap chains discover each page from the previous one, so
                // there is nothing to prefetch — a configured scan budget
                // instead routes the cold stream itself through a
                // partition, keeping a heap larger than the pool from
                // evicting the live working set.
                let part = (self.scan_budget > 0).then(|| self.scan_partition_for(1));
                let store = match &part {
                    Some(p) => self.snap.store_partitioned(p),
                    None => self.snap.store(),
                };
                loop {
                    let epoch = self.snap.undo_epoch();
                    let mut rows = Vec::new();
                    table.heap()?.scan(&store, |_, bytes| {
                        rows.push(decode_row(bytes)?);
                        Ok(true)
                    })?;
                    if self.snap.gate_table(table.id)? || self.snap.undo_epoch() != epoch {
                        continue;
                    }
                    return Ok(rows);
                }
            }
        }
    }

    /// Row count as of the snapshot time.
    pub fn count(&self, table: &TableInfo) -> Result<usize> {
        Ok(self.scan_all(table)?.len())
    }

    /// Rows matched through a secondary index (as of the snapshot time) by
    /// prefix of the indexed columns — exercises rewinding of index pages.
    pub fn scan_index_prefix(
        &self,
        table: &TableInfo,
        index: &str,
        prefix: &[Value],
        limit: usize,
    ) -> Result<Vec<Row>> {
        let idx = table.index(index)?;
        let refs: Vec<&Value> = prefix.iter().collect();
        let lo = encode_key(&refs)?;
        let hi = prefix_upper_bound(&lo);
        // Index lookups resolve to point reads of the base table — the
        // snapshot's working set, not a cold stream — so they deliberately
        // stay off the scan partition.
        let store = self.snap.store();
        loop {
            let epoch = self.snap.undo_epoch();
            let mut pks: Vec<Vec<u8>> = Vec::new();
            idx.tree().scan(
                &store,
                Bound::Included(&lo),
                Bound::Excluded(&hi),
                |_, pk| {
                    pks.push(pk.to_vec());
                    Ok(pks.len() < limit)
                },
            )?;
            let mut rows = Vec::with_capacity(pks.len());
            let mut waited = false;
            for pk in &pks {
                waited |= self.snap.gate_row(table.id, pk)?;
                if let Some(v) = table.tree()?.get(&store, pk)? {
                    rows.push(decode_row(&v)?);
                }
            }
            if waited || self.snap.undo_epoch() != epoch {
                continue;
            }
            return Ok(rows);
        }
    }
}

/// Check that a live table's schema still matches the snapshot's before
/// rows are copied across. A drifted schema (columns added/dropped, a type
/// changed, the key re-shaped) would let `INSERT … SELECT` write mis-shaped
/// rows; refuse with a typed error instead.
fn check_restore_schema(snap_info: &TableInfo, live: &TableInfo) -> Result<()> {
    let drift = |detail: String| Error::SchemaDrift {
        table: live.name.clone(),
        snapshot_columns: snap_info.schema.columns.len(),
        live_columns: live.schema.columns.len(),
        detail,
    };
    if live.kind != snap_info.kind {
        return Err(drift(format!(
            "table kind changed ({:?} -> {:?})",
            snap_info.kind, live.kind
        )));
    }
    if live.schema.columns.len() != snap_info.schema.columns.len() {
        return Err(drift("column count changed".into()));
    }
    for (a, b) in snap_info.schema.columns.iter().zip(&live.schema.columns) {
        if a.ty != b.ty {
            return Err(drift(format!(
                "column '{}' changed type ({:?} -> {:?})",
                a.name, a.ty, b.ty
            )));
        }
        if a.name != b.name {
            return Err(drift(format!(
                "column '{}' renamed to '{}'",
                a.name, b.name
            )));
        }
    }
    if live.schema.key != snap_info.schema.key {
        return Err(drift("primary key shape changed".into()));
    }
    // Anything the specific checks above miss: full structural equality is
    // the actual requirement (it is also what the repair planner demands).
    if live.schema != snap_info.schema {
        return Err(drift("schema drifted".into()));
    }
    Ok(())
}

/// The paper's §1 recovery flow: extract `src_table` from the snapshot and
/// materialize it in the live database as `dest_name` (schema, rows, and
/// secondary indexes). Returns the number of rows copied.
///
/// When `dest_name` already exists (restoring *into a live table*), the live
/// schema must still match the snapshot's — a drifted schema fails with
/// [`Error::SchemaDrift`] before any row is written. Matching-schema
/// restores reconcile row-by-row: missing keys are inserted, diverged rows
/// are updated, identical rows are left alone.
pub fn restore_table_from_snapshot(
    db: &Database,
    snap: &SnapshotDb,
    src_table: &str,
    dest_name: &str,
) -> Result<usize> {
    let info = snap.table(src_table)?;
    let rows = snap.scan_all(&info)?;
    let live = match db.table(dest_name) {
        Ok(live) => Some(live),
        Err(Error::TableNotFound(_)) => None,
        Err(e) => return Err(e),
    };
    db.with_txn(|txn| match live {
        Some(live) => {
            check_restore_schema(&info, &live)?;
            if live.kind != TableKind::Tree {
                return Err(Error::InvalidArg(
                    "restoring into a live heap table is not supported; \
                     restore into a fresh name instead"
                        .into(),
                ));
            }
            let mut copied = 0usize;
            for row in &rows {
                let key: Vec<Value> = info.schema.key_values(row)?.into_iter().cloned().collect();
                match db.get_for_update(txn, dest_name, &key)? {
                    Some(existing) if &existing == row => {}
                    Some(_) => {
                        db.update(txn, dest_name, row)?;
                        copied += 1;
                    }
                    None => {
                        db.insert(txn, dest_name, row)?;
                        copied += 1;
                    }
                }
            }
            Ok(copied)
        }
        None => {
            match info.kind {
                TableKind::Tree => db.create_table(txn, dest_name, info.schema.clone())?,
                TableKind::Heap => db.create_heap_table(txn, dest_name, info.schema.clone())?,
            };
            for row in &rows {
                db.insert(txn, dest_name, row)?;
            }
            for idx in &info.indexes {
                let col_names: Vec<&str> = idx
                    .cols
                    .iter()
                    .map(|&c| info.schema.columns[c].name.as_str())
                    .collect();
                db.create_index(txn, dest_name, &idx.name, &col_names)?;
            }
            Ok(rows.len())
        }
    })
}
