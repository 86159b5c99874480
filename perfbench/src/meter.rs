//! Engine counters read from outside through the public accessors, summed
//! over the intervals the benchmark attributes to its operations (output
//! checks are left out).

use rewind_core::{Database, IoSnapshot};
use rewind_obs::HistogramSnapshot;

/// One reading of every exported counter the per-layer metrics use.
#[derive(Clone)]
pub struct Sample {
    data: IoSnapshot,
    log: IoSnapshot,
    pool: rewind_buffer::PoolStatsView,
    flush_stall: HistogramSnapshot,
}

impl Sample {
    pub fn take(db: &Database) -> Sample {
        Sample {
            data: db.data_io(),
            log: db.log_io(),
            pool: db.pool_stats(),
            flush_stall: db.obs().flush_stall(),
        }
    }

    /// The same reading with the counters of a freshly opened buffer pool:
    /// the log, the data file and the obs handle survive a restart, the
    /// pool does not.
    pub fn with_fresh_pool(&self) -> Sample {
        Sample {
            pool: Default::default(),
            ..self.clone()
        }
    }
}

/// Counter sums over the measured intervals.
#[derive(Clone)]
pub struct Totals {
    pub page_reads: u64,
    pub page_writes: u64,
    pub vectored_read_ops: u64,
    pub batched_write_ops: u64,
    pub log_read_ios: u64,
    pub log_cache_hits: u64,
    pub log_bytes_written: u64,
    pub log_flushes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub evictions: u64,
    pub flush_stall: HistogramSnapshot,
}

impl Totals {
    fn add(&mut self, now: &Sample, then: &Sample) {
        let (d, l, p) = (
            now.data.delta(then.data),
            now.log.delta(then.log),
            now.pool.delta(then.pool),
        );
        self.page_reads += d.page_reads;
        self.page_writes += d.page_writes;
        self.vectored_read_ops += d.vectored_read_ops;
        self.batched_write_ops += d.batched_write_ops;
        self.log_read_ios += l.log_read_ios;
        self.log_cache_hits += l.log_cache_hits;
        self.log_bytes_written += l.log_bytes_written;
        self.log_flushes += l.log_flushes;
        self.pool_hits += p.hits;
        self.pool_misses += p.misses;
        self.evictions += p.evictions;
        self.flush_stall = self
            .flush_stall
            .merge(&now.flush_stall.delta(&then.flush_stall));
    }
}

/// Sums counter deltas over the measured intervals.
pub struct Meter {
    pub total: Totals,
    open: Option<Sample>,
}

impl Meter {
    pub fn new() -> Meter {
        Meter {
            total: Totals {
                page_reads: 0,
                page_writes: 0,
                vectored_read_ops: 0,
                batched_write_ops: 0,
                log_read_ios: 0,
                log_cache_hits: 0,
                log_bytes_written: 0,
                log_flushes: 0,
                pool_hits: 0,
                pool_misses: 0,
                evictions: 0,
                flush_stall: HistogramSnapshot::empty(),
            },
            open: None,
        }
    }

    /// Start counting from `at`.
    pub fn resume(&mut self, at: Sample) {
        self.open = Some(at);
    }

    pub fn start(&mut self, db: &Database) {
        self.resume(Sample::take(db));
    }

    /// Stop counting at `at`; returns the reading for a later `resume`.
    pub fn stop_at(&mut self, at: Sample) -> Sample {
        if let Some(open) = self.open.take() {
            self.total.add(&at, &open);
        }
        at
    }

    pub fn stop(&mut self, db: &Database) -> Sample {
        self.stop_at(Sample::take(db))
    }
}

/// The counter-derived per-layer metrics, normalised by `ops`, the
/// workload's operation count ("query" and "txn" in the names).
pub fn layer_metrics(
    t: &Totals,
    ops: u64,
    layer: &mut std::collections::BTreeMap<&'static str, f64>,
) {
    use crate::stats::ratio;
    let ops = ops as f64;
    let per_k = |n: u64| ratio(n as f64 * 1000.0, ops);
    layer.insert(
        "wal.log_read_ios_per_query",
        ratio(t.log_read_ios as f64, ops),
    );
    layer.insert(
        "wal.log_cache_hit_ratio",
        ratio(
            t.log_cache_hits as f64,
            (t.log_cache_hits + t.log_read_ios) as f64,
        ),
    );
    layer.insert(
        "buffer.hit_ratio",
        ratio(t.pool_hits as f64, (t.pool_hits + t.pool_misses) as f64),
    );
    layer.insert("buffer.evictions_per_query", ratio(t.evictions as f64, ops));
    layer.insert(
        "pagestore.page_reads_per_query",
        ratio(t.page_reads as f64, ops),
    );
    layer.insert("pagestore.vectored_read_ops", per_k(t.vectored_read_ops));
    layer.insert("pagestore.page_writes_per_ktxn", per_k(t.page_writes));
    layer.insert("pagestore.batched_write_ops", per_k(t.batched_write_ops));
}
