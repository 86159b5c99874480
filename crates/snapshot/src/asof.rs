//! As-of snapshot creation and recovery (paper §5.1–5.2).

use crate::stats::SnapshotStatsView;
use crate::store::{SnapInner, SnapshotMutator, SnapshotStore};
use parking_lot::{Condvar, Mutex};
use rewind_buffer::ScanPartition;
use rewind_common::{Error, Lsn, ObjectId, PageId, Result, Timestamp};
use rewind_obs::EventKind;
use rewind_pagestore::Page;
use rewind_recovery::rollback::{undo_record_view, undo_sweep};
use rewind_recovery::{analyze, AccessKind, CowSink, EngineParts, LoserTxn};
use rewind_txn::{LockManager, LockMode, ObjectLatches};
use rewind_wal::{find_split_lsn, Reach};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Facts recorded at snapshot creation (reported by benchmarks).
#[derive(Clone, Copy, Debug)]
pub struct CreationInfo {
    /// The SplitLSN the wall-clock time resolved to.
    pub split_lsn: Lsn,
    /// Where the analysis scan started (checkpoint begin before the split).
    pub analysis_start: Lsn,
    /// Log bytes scanned by analysis (creation cost is bounded by this,
    /// §6.2: "the cost of database snapshot creation depends on the amount
    /// of log scanned").
    pub analysis_bytes: u64,
    /// Transactions found in flight at the split.
    pub loser_count: usize,
    /// Row/table locks reacquired for them.
    pub locks_reacquired: usize,
}

/// Prepare work done by one fan-out worker of
/// [`AsOfSnapshot::prepare_pages`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PrefetchWorkerStats {
    /// Page ids this worker pulled off the shared cursor.
    pub pages: u64,
    /// Pages this worker actually prepared (side-file misses).
    pub prepared: u64,
    /// Log records undone across those preparations.
    pub records_undone: u64,
    /// FPI-chain records inspected across those preparations.
    pub fpi_chain_reads: u64,
}

impl PrefetchWorkerStats {
    /// Random log-record fetches this worker performed (potential stalls).
    pub fn log_reads(&self) -> u64 {
        self.records_undone + self.fpi_chain_reads
    }
}

/// Outcome of one concurrent multi-page prepare.
#[derive(Clone, Debug, Default)]
pub struct PrefetchOutcome {
    /// One entry per worker thread.
    pub per_worker: Vec<PrefetchWorkerStats>,
}

impl PrefetchOutcome {
    /// Pages newly prepared by this fan-out (side-file misses).
    pub fn prepared(&self) -> u64 {
        self.per_worker.iter().map(|w| w.prepared).sum()
    }

    /// Total random log reads across all workers.
    pub fn log_reads(&self) -> u64 {
        self.per_worker.iter().map(|w| w.log_reads()).sum()
    }

    /// The busiest worker's random log reads — the quantity that bounds
    /// parallel wall-clock time on stall-dominated media.
    pub fn max_worker_log_reads(&self) -> u64 {
        self.per_worker
            .iter()
            .map(|w| w.log_reads())
            .max()
            .unwrap_or(0)
    }
}

/// A read-only database as of a point in time in the past.
pub struct AsOfSnapshot {
    /// Snapshot name (as in `CREATE DATABASE ... AS SNAPSHOT OF ...`).
    pub name: String,
    /// The wall-clock time requested.
    pub as_of: Timestamp,
    /// The SplitLSN: the snapshot contains exactly the records ≤ this LSN.
    pub split_lsn: Lsn,
    /// Creation facts.
    pub creation: CreationInfo,
    inner: Arc<SnapInner>,
    latches: ObjectLatches,
    /// Reacquired locks of in-flight transactions; queries gate on these.
    pub locks: Arc<LockManager>,
    losers: Vec<LoserTxn>,
    undo_done: AtomicBool,
    /// Transactions fully undone so far; see [`AsOfSnapshot::undo_epoch`].
    undo_epoch: AtomicU64,
    undo_signal: (Mutex<bool>, Condvar),
    cow_token: Option<u64>,
}

impl AsOfSnapshot {
    /// Create an as-of snapshot of the database behind `parts` at wall-clock
    /// time `t` (paper §5.1).
    pub fn create(name: &str, parts: &EngineParts, t: Timestamp) -> Result<Arc<AsOfSnapshot>> {
        let split = find_split_lsn(&parts.log, t)?;
        Self::build(name, parts, t, split, false)
    }

    /// Create an as-of snapshot split at an **exact LSN** rather than a
    /// wall-clock time. This is the repair engine's witness: flashback wants
    /// the state *just before a particular transaction's first log record*,
    /// a point that no commit timestamp addresses. `t` labels the snapshot
    /// for retention errors and reporting; correctness depends only on
    /// `split`.
    pub fn create_at_lsn(
        name: &str,
        parts: &EngineParts,
        t: Timestamp,
        split: Lsn,
    ) -> Result<Arc<AsOfSnapshot>> {
        Self::build(name, parts, t, split, false)
    }

    /// Create a regular (copy-on-write) snapshot of the current state
    /// (paper §2.2): split at "now" under the modification gate, then
    /// register a COW sink so future modifications push pre-images.
    pub fn create_regular(
        name: &str,
        parts: &EngineParts,
        now: Timestamp,
    ) -> Result<Arc<AsOfSnapshot>> {
        let _gate = parts.mod_gate.write();
        // With the gate held no modification can race: flush everything,
        // pin the split just below the tail, and activate COW atomically.
        let split = Lsn(parts.log.tail_lsn().0.saturating_sub(1));
        Self::build(name, parts, now, split, true)
    }

    fn build(
        name: &str,
        parts: &EngineParts,
        t: Timestamp,
        split: Lsn,
        cow: bool,
    ) -> Result<Arc<AsOfSnapshot>> {
        // Creation checkpoint (§5.1): every page change ≤ split becomes
        // durable in the primary file, so the snapshot can always read the
        // primary file and roll backward.
        parts.pool.flush_all()?;
        // The split is a record *boundary*: everything strictly before it
        // must be durable; the record at the split is not part of the
        // snapshot.
        parts.log.flush_up_to(split);

        let io0 = parts.log.io_stats().snapshot();
        let analysis = analyze(&parts.log, split).map_err(retention_of(&parts.log, t))?;
        let analysis_bytes = parts.log.io_stats().snapshot().delta(io0).log_bytes_scanned;

        // Lock reacquisition (§5.2): "the redo pass reacquires the locks
        // that were held by the transactions that were in-flight as of the
        // SplitLSN". No pages are read.
        let locks = Arc::new(LockManager::new(Duration::from_secs(30)));
        let mut reacquired = 0usize;
        for loser in &analysis.losers {
            for (key, mode) in &loser.locks {
                locks.force_grant(loser.id, key, *mode);
                reacquired += 1;
            }
        }

        let inner = Arc::new(SnapInner::new(parts.pool.clone(), parts.log.clone(), split));
        let cow_token = if cow {
            Some(parts.register_cow(Arc::new(CowPusher {
                inner: inner.clone(),
            })))
        } else {
            None
        };

        let snap = Arc::new(AsOfSnapshot {
            name: name.to_string(),
            as_of: t,
            split_lsn: split,
            creation: CreationInfo {
                split_lsn: split,
                analysis_start: analysis.scan_start,
                analysis_bytes,
                loser_count: analysis.losers.len(),
                locks_reacquired: reacquired,
            },
            inner,
            latches: ObjectLatches::new(),
            locks,
            losers: analysis.losers,
            undo_done: AtomicBool::new(false),
            undo_epoch: AtomicU64::new(0),
            undo_signal: (Mutex::new(false), Condvar::new()),
            cow_token,
        });
        if snap.losers.is_empty() {
            snap.mark_undo_done();
        }
        Ok(snap)
    }

    /// The read-only store queries use (the snapshot "appears like a regular
    /// read-only database", §2.2).
    pub fn store(&self) -> SnapshotStore<'_> {
        SnapshotStore {
            inner: &self.inner,
            latches: &self.latches,
            scan: None,
        }
    }

    /// A store whose cold §5.3 step (b) reads run inside `part` — for bulk
    /// streams that discover their pages as they read them (heap chains)
    /// and therefore cannot go through [`AsOfSnapshot::prepare_pages`].
    pub fn store_partitioned<'a>(&'a self, part: &'a ScanPartition) -> SnapshotStore<'a> {
        SnapshotStore {
            inner: &self.inner,
            latches: &self.latches,
            scan: Some(part),
        }
    }

    /// Create a pin-limited scan partition over the primary's pool (budget
    /// floored at two frames so serial ring reuse can always proceed).
    pub fn scan_partition(&self, budget: usize) -> ScanPartition {
        self.inner.pool.scan_partition(budget.max(2))
    }

    fn mutator(&self) -> SnapshotMutator<'_> {
        SnapshotMutator {
            inner: &self.inner,
            latches: &self.latches,
        }
    }

    /// Run the logical-undo phase of snapshot recovery (§5.2), backing out
    /// every transaction in flight at the SplitLSN. Runs as a merged
    /// descending-LSN sweep across all losers so structure-modification
    /// ordering is honoured; each transaction's reacquired locks are
    /// released as it completes. Normally run in the background via
    /// [`AsOfSnapshot::spawn_undo`]; queries are admitted concurrently.
    pub fn run_undo(&self, resolver: &dyn Fn(ObjectId) -> Result<AccessKind>) -> Result<u64> {
        if self.undo_done.load(Ordering::Acquire) {
            return Ok(0);
        }
        let mutator = self.mutator();
        let processed = undo_sweep(
            &self.inner.log,
            Reach::Retained,
            self.losers.iter().map(|l| (l.last_lsn, l.id)),
            |_, header, view| undo_record_view(&mutator, header, view, resolver),
            |txn| {
                // transaction fully undone: count it, then release its
                // reacquired locks (a reader that finds a lock free must
                // also see the count move)
                self.undo_epoch.fetch_add(1, Ordering::Release);
                self.locks.release_all(txn);
            },
        )?;
        self.mark_undo_done();
        Ok(processed)
    }

    /// Spawn [`AsOfSnapshot::run_undo`] on a background thread, opening the
    /// snapshot for queries immediately (the paper's trade-off in §6.2).
    pub fn spawn_undo(
        self: &Arc<Self>,
        resolver: Box<dyn Fn(ObjectId) -> Result<AccessKind> + Send>,
    ) -> std::thread::JoinHandle<Result<u64>> {
        let snap = self.clone();
        std::thread::spawn(move || snap.run_undo(&*resolver))
    }

    fn mark_undo_done(&self) {
        self.undo_done.store(true, Ordering::Release);
        let (lock, cv) = &self.undo_signal;
        *lock.lock() = true;
        cv.notify_all();
    }

    /// Undo progress: the number of in-flight transactions fully undone so
    /// far, bumped just before each one's locks are released. A gated read
    /// takes it before reading and re-reads if it moved by the time the
    /// read's rows are gated: a transaction that finished in between may
    /// have released a row the read saw before its undo, which no gate
    /// would then report.
    pub fn undo_epoch(&self) -> u64 {
        self.undo_epoch.load(Ordering::Acquire)
    }

    /// Whether background undo has finished.
    pub fn undo_complete(&self) -> bool {
        self.undo_done.load(Ordering::Acquire)
    }

    /// Block until background undo finishes.
    pub fn wait_undo_complete(&self) {
        let (lock, cv) = &self.undo_signal;
        let mut done = lock.lock();
        while !*done {
            cv.wait(&mut done);
        }
    }

    /// Gate a row read against the reacquired locks of in-flight
    /// transactions: blocks until the row's lock is compatible with a read.
    /// Returns `true` if the caller should re-read (it may have observed
    /// pre-undo data).
    pub fn gate_row(&self, object: ObjectId, key: &[u8]) -> Result<bool> {
        if self.undo_done.load(Ordering::Acquire) {
            return Ok(false);
        }
        let lk = rewind_txn::LockKey::row(object, key);
        let tk = rewind_txn::LockKey::table(object);
        let blocked =
            self.locks.would_block(&lk, LockMode::S) || self.locks.would_block(&tk, LockMode::IS);
        if blocked {
            self.locks.wait_until_free(&lk, LockMode::S)?;
            self.locks.wait_until_free(&tk, LockMode::IS)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Gate a whole-table read (heap scans).
    pub fn gate_table(&self, object: ObjectId) -> Result<bool> {
        if self.undo_done.load(Ordering::Acquire) {
            return Ok(false);
        }
        let tk = rewind_txn::LockKey::table(object);
        if self.locks.would_block(&tk, LockMode::S) {
            self.locks.wait_until_free(&tk, LockMode::S)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Prepare `pids` concurrently on a bounded pool of `workers` threads
    /// (ROADMAP perf item (c): concurrent `PreparePageAsOf` fan-out),
    /// **scan-resistantly** (ROADMAP item (h)): the whole fan-out shares
    /// one pin-limited [`rewind_buffer::ScanPartition`], so its cold §5.3
    /// step (b) reads reuse a bounded ring of pool frames instead of
    /// marching the clock over the live working set. The budget defaults to
    /// [`AsOfSnapshot::default_scan_budget`]; use
    /// [`AsOfSnapshot::prepare_pages_budgeted`] to pick one explicitly.
    ///
    /// Distinct pages prepare fully in parallel — the §5.3 protocol already
    /// serializes only *same-page* first-preparations through the per-page
    /// gate, and the side file accepts concurrent puts of distinct pages.
    /// Pages already resident in the side file are counted as hits and cost
    /// nothing.
    ///
    /// Work is split by static interleave over chunks of the pool's I/O
    /// batch size: worker `w` prepares chunks `w, w+N, w+2N, …` (at batch
    /// size 1, pids `w, w+N, …` — the historical stride). On
    /// stall-dominated media a dynamic queue would converge to the same
    /// even split (every fetch blocks its worker for a media round-trip, so
    /// claims alternate); the static partition gives identical balance
    /// deterministically — including on machines whose core count would let
    /// one worker drain a shared queue before the others are scheduled.
    /// Owning whole chunks also lets each worker vector-read its cold
    /// primaries: one `read_pages` device op per contiguous run per chunk.
    ///
    /// Returns per-worker aggregates so callers (repairbench) can model the
    /// parallel stall time as the max over workers rather than the sum.
    pub fn prepare_pages(&self, pids: &[PageId], workers: usize) -> Result<PrefetchOutcome> {
        let budget = self.default_scan_budget(workers);
        self.prepare_pages_budgeted(pids, workers, budget)
    }

    /// The default frame budget for a bulk preparation: an eighth of the
    /// pool, but at least two frames per worker (so ring reuse never stalls
    /// the fan-out on its own transient pins) and never more than half the
    /// pool (a scan must not monopolize the cache it is guarding).
    pub fn default_scan_budget(&self, workers: usize) -> usize {
        let cap = self.inner.pool.capacity();
        (cap / 8).max(2 * workers.max(1)).clamp(1, (cap / 2).max(1))
    }

    /// [`AsOfSnapshot::prepare_pages`] with an explicit frame budget for
    /// the shared scan partition. A bulk preparation touching more pages
    /// than the primary's buffer pool holds will disturb at most `budget`
    /// frames of it.
    ///
    /// The effective budget is raised to two frames per worker (and capped
    /// at half the pool): with fewer, concurrent workers could keep every
    /// ring entry transiently pinned, forcing ring reuse to fall back to
    /// the global clock on each miss — which would quietly void the damage
    /// bound the budget exists to provide.
    pub fn prepare_pages_budgeted(
        &self,
        pids: &[PageId],
        workers: usize,
        budget: usize,
    ) -> Result<PrefetchOutcome> {
        let capped = workers.clamp(1, pids.len().max(1));
        let part = self.inner.pool.scan_partition(budget.max(2 * capped));
        self.prepare_pages_in(pids, workers, &part)
    }

    /// [`AsOfSnapshot::prepare_pages`] inside a caller-owned partition, so
    /// one bounded budget can cover a whole operation — leaf discovery,
    /// prefetch fan-out and the scan's own straggler reads share a single
    /// set of frames instead of each claiming their own.
    pub fn prepare_pages_in(
        &self,
        pids: &[PageId],
        workers: usize,
        part: &ScanPartition,
    ) -> Result<PrefetchOutcome> {
        let workers = workers.clamp(1, pids.len().max(1));
        if pids.is_empty() {
            return Ok(PrefetchOutcome::default());
        }
        let inner = &self.inner;
        // Work is split by static interleave over *chunks* of the pool's
        // I/O batch size: worker `w` prepares chunks `w, w+N, w+2N, …`. At
        // batch size 1 this is exactly the historical per-page stride; at
        // larger sizes a worker owns whole pid runs, so its step-(b) misses
        // coalesce into vectored device reads (one `read_pages` per chunk).
        let chunk = inner.pool.io_batch_pages();
        let results: Vec<Result<PrefetchWorkerStats>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let batch_started = inner.obs.now_us();
                        let mut stats = PrefetchWorkerStats::default();
                        for run in pids.chunks(chunk).skip(w).step_by(workers) {
                            // Vector-read this chunk's cold primaries up
                            // front: only side-file misses can reach step
                            // (b), and `stage_read_run` skips pool-resident
                            // pids (those would have been hits). Serially
                            // this stages exactly the pages the loop below
                            // would read one by one.
                            let wanted: Vec<PageId> = run
                                .iter()
                                .copied()
                                .filter(|&pid| inner.side.get(pid).is_none())
                                .collect();
                            let mut staged = inner.pool.stage_read_run(&wanted);
                            for &pid in run {
                                let pre = staged
                                    .iter()
                                    .position(|(p, _)| *p == pid)
                                    .map(|i| staged.remove(i).1);
                                let (_, prep) =
                                    inner.fetch_traced_staged_in(pid, Some(part), pre)?;
                                stats.pages += 1;
                                if let Some(p) = prep {
                                    stats.prepared += 1;
                                    stats.records_undone += p.records_undone;
                                    stats.fpi_chain_reads += p.fpi_chain_reads;
                                }
                            }
                        }
                        // One scan batch per worker: its whole stride of
                        // the bulk preparation.
                        let dur = inner.obs.now_us().saturating_sub(batch_started);
                        inner.obs.scan_batch_us(dur);
                        inner.obs.record(EventKind::ScanBatch, 0, stats.pages, dur);
                        Ok(stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(_) => Err(Error::Internal("prefetch worker panicked".into())),
                })
                .collect()
        });
        let mut out = PrefetchOutcome::default();
        for r in results {
            out.per_worker.push(r?);
        }
        Ok(out)
    }

    /// Deregister the COW sink (regular snapshots) — call when dropping the
    /// snapshot.
    pub fn detach(&self, parts: &EngineParts) {
        if let Some(token) = self.cow_token {
            parts.deregister_cow(token);
        }
    }

    /// Number of page versions currently held by the side file.
    pub fn side_pages(&self) -> usize {
        self.inner.side_len()
    }

    /// Page ids currently held by the side file (diagnostics: the warm set
    /// a zero-copy hit test or benchmark can replay).
    pub fn side_page_ids(&self) -> Vec<PageId> {
        self.inner.side.page_ids()
    }

    /// Per-page prepare-gate entries currently live. Bounded by the number
    /// of preparations in flight *right now* — a quiescent snapshot reports
    /// 0 no matter how many pages it has prepared (the gate-leak
    /// regression guard).
    pub fn prepare_gate_entries(&self) -> usize {
        self.inner.gate_entries()
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> SnapshotStatsView {
        self.inner.stats_view()
    }

    /// The earliest LSN this snapshot still needs (log truncation must not
    /// pass it while the snapshot is open).
    pub fn min_needed_lsn(&self) -> Lsn {
        self.creation.analysis_start
    }
}

impl SnapInner {
    fn side_len(&self) -> usize {
        self.side.len()
    }

    fn stats_view(&self) -> SnapshotStatsView {
        self.stats.snapshot()
    }
}

/// Copy-on-write sink for regular snapshots: stores the pre-image of the
/// first post-snapshot modification of each page (paper §2.2).
pub struct CowPusher {
    inner: Arc<SnapInner>,
}

impl CowSink for CowPusher {
    fn before_modify(&self, pid: PageId, current: &Page) {
        self.inner.cow_push(pid, current);
    }
}

impl SnapInner {
    fn cow_push(&self, pid: PageId, current: &Page) {
        self.side.put_if_absent(pid, current);
    }
}

fn retention_of<'a>(log: &'a rewind_wal::LogManager, t: Timestamp) -> impl Fn(Error) -> Error + 'a {
    move |e| match e {
        Error::LogTruncated(_) => Error::RetentionExceeded {
            requested: t,
            earliest: log.earliest_retained_time().unwrap_or(Timestamp::ZERO),
        },
        other => other,
    }
}
