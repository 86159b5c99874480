//! Page salvage: rebuild a checksum-bad page from its per-page log chain.
//!
//! When a page image fails verification at buffer-pool miss time (bit rot,
//! torn write), the on-media copy is worthless — but the log retains every
//! modification the page ever took within the retention window, threaded on
//! the `prev_page_lsn` chain the paper's `PreparePageAsOf` walks (§4). The
//! salvage path runs that machinery *forward* at "now" instead of backward
//! to a point in time:
//!
//! 1. scan the retained log for the newest record touching the page (the
//!    chain tip — the on-media copy can never be newer than the durable
//!    log, because the WAL rule flushes the log before every page write);
//! 2. walk `prev_page_lsn` backward to a rebuild origin: the newest full
//!    page image, or the page's birth (`Format`/`Preformat`,
//!    `prev_page_lsn = NULL`) if no FPI survives;
//! 3. redo the chain forward from a zeroed frame.
//!
//! The result is exactly the durable prefix of the page — the same state
//! crash recovery would produce. Salvage fails (typed
//! [`Error::Corruption`]) only when the chain itself is damaged: truncated
//! below the rebuild origin, or the log frames are themselves corrupt.

use rewind_common::{CorruptionKind, Error, Lsn, PageId, Result};
use rewind_pagestore::Page;
use rewind_wal::{LogManager, LogPayloadView, Reach};

/// Rebuild `pid` to its durable tip purely from the log. `cause` is the
/// verification error that triggered the salvage, carried into the failure
/// detail when the chain cannot deliver.
pub fn salvage_page(log: &LogManager, pid: PageId, cause: &Error) -> Result<Page> {
    let fail = |why: String| {
        Error::page_corruption(
            cause
                .corruption_kind()
                .unwrap_or(CorruptionKind::PageChecksum),
            pid,
            format!("page unsalvageable ({why}); original damage: {cause}"),
        )
    };

    // 1. Chain tip: newest page-op for `pid` in the retained, durable log.
    // Only flushed records participate — an unflushed tail record never
    // reached any on-media page image (WAL rule), and after a crash it is
    // discarded anyway. The scan starts at the truncation point, not at the
    // oldest archived record: archived history is outside `Reach::Retained`.
    let mut tip = Lsn::NULL;
    let (from, to) = (log.truncation_point(), log.flushed_lsn());
    log.scan_refs(from, to, Reach::Retained, |rec| {
        let h = rec.header()?;
        if h.page == pid && h.kind.is_page_op() {
            tip = h.lsn;
        }
        Ok(true)
    })
    .map_err(|e| fail(format!("log scan failed: {e}")))?;
    if !tip.is_valid() {
        return Err(fail("no log history for page in retention window".into()));
    }

    // 2. Walk backward to the rebuild origin, retaining each record ref —
    // the forward pass replays the retained refs instead of re-fetching
    // every chain LSN from the log (one log read per chain record, not
    // two; the refs pin their frames' bytes, so the rebuild window is read
    // in a single batch-shaped pass).
    let mut chain = Vec::new();
    let mut cur = tip;
    loop {
        let rec = log
            .get_record_ref(cur, Reach::Retained)
            .map_err(|e| fail(format!("page chain damaged at {cur}: {e}")))?;
        let (header, view) = rec
            .view()
            .map_err(|e| fail(format!("page chain damaged at {cur}: {e}")))?;
        if header.page != pid {
            return Err(fail(format!(
                "page chain reached record for {:?} at {cur}",
                header.page
            )));
        }
        let origin = matches!(view, LogPayloadView::FullPageImage { .. }) // newest FPI: everything older is redundant
            || !header.prev_page_lsn.is_valid(); // page birth: complete from a zeroed frame
        let prev = header.prev_page_lsn;
        chain.push((cur, rec));
        if origin {
            break;
        }
        cur = prev;
    }

    // 3. Redo forward from a zeroed frame (or the FPI, which is itself
    // restored by its own redo).
    let mut page = Page::zeroed();
    for (lsn, rec) in chain.iter().rev() {
        let view = rec
            .view()
            .map_err(|e| fail(format!("page chain damaged at {lsn}: {e}")))?
            .1;
        view.redo(&mut page, pid, *lsn)
            .map_err(|e| fail(format!("redo of {lsn} failed: {e}")))?;
    }
    Ok(page)
}
