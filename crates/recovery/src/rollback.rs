//! Transaction rollback with compensation log records.
//!
//! [`undo_sweep`] is the one undo discipline behind restart, rollback, as-of
//! snapshot recovery (§5.2) and point-in-time restore: it backs out a set of
//! transactions in a single merged descending-LSN sweep over their backward
//! chains (`prev_lsn`), jumping each CLR to its `undo_next`. Each record is
//! undone by [`undo_record_view`], logically for B-Tree row changes (the row
//! may have been moved by later structure modifications, so it is located by
//! key — the reason the paper rejects blanket transaction-oriented undo for
//! *as-of* queries in §4.1 applies in reverse here) and physically for
//! everything whose location is stable: heap rows (RID-stable by design),
//! allocation bits, boot-page bytes, sibling pointers and partial structure
//! modifications.
//!
//! Every compensation is logged as a CLR carrying full undo information —
//! the paper's §4.2-2 extension — so `PreparePageAsOf` can walk straight
//! through rollbacks. Completed SMOs are skipped via their closing CLR's
//! `undo_next`.

use rewind_access::store::{ModKind, Store};
use rewind_access::{BTree, Heap};
use rewind_common::{Error, Lsn, ObjectId, Result, TxnId};
use rewind_wal::{LogManager, LogPayload, LogPayloadView, LogRecordHeader, Reach, REC_FLAG_SYSTEM};
use std::collections::BinaryHeap;

/// How an object stores rows — resolved from the catalog during rollback.
#[derive(Clone, Copy, Debug)]
pub enum AccessKind {
    /// Rows live in a clustered B-Tree.
    Tree(BTree),
    /// Rows live in a heap.
    Heap(Heap),
}

/// Undo one record from its header and borrowed payload view, logging
/// CLR(s). Returns `Ok(())` even when the logical target no longer exists
/// (idempotent crash-resume). The zero-copy workhorse: undo walks hand
/// payloads straight from the log segment; bytes are copied only into the
/// CLRs actually written.
///
/// Public because every [`undo_sweep`] caller undoes through it on its own
/// store.
pub fn undo_record_view<S: Store>(
    s: &S,
    header: &LogRecordHeader,
    payload: &LogPayloadView<'_>,
    resolver: &dyn Fn(ObjectId) -> Result<AccessKind>,
) -> Result<()> {
    let undo_next = header.prev_lsn;
    // Physical compensation applies to: partial SMO records, and payload
    // types whose location is intrinsically stable.
    let physical = header.flags & REC_FLAG_SYSTEM != 0
        || matches!(
            payload,
            LogPayloadView::AllocSet { .. }
                | LogPayloadView::BootWrite { .. }
                | LogPayloadView::SetNextPage { .. }
                | LogPayloadView::SetPrevPage { .. }
                | LogPayloadView::RestoreImage { .. }
                | LogPayloadView::Format { .. }
                | LogPayloadView::Preformat { .. }
                | LogPayloadView::Reformat { .. }
                | LogPayloadView::FullPageImage { .. }
        );
    if physical {
        match payload {
            LogPayloadView::Format { .. } | LogPayloadView::Preformat { .. } => {
                // Forward effect is erased/nil; once the allocation bit is
                // compensated the page is free again. Nothing to log.
                return Ok(());
            }
            LogPayloadView::Reformat { prev_image, .. } => {
                // Restore the pre-reformat image (partial root split).
                let current = s.with_page(header.page, |p| Ok(Box::new(*p.image())))?;
                s.modify(
                    header.page,
                    LogPayload::RestoreImage {
                        old: current,
                        new: Box::new(**prev_image),
                    },
                    ModKind::Clr { undo_next },
                )?;
                return Ok(());
            }
            LogPayloadView::FullPageImage { .. } => return Ok(()),
            payload => {
                if let Some(comp) = payload.compensation() {
                    s.modify(header.page, comp, ModKind::Clr { undo_next })?;
                }
                return Ok(());
            }
        }
    }
    // Logical compensation for user row changes.
    match *payload {
        LogPayloadView::InsertRecord { slot, bytes } => match resolver(header.object)? {
            AccessKind::Tree(t) => {
                let (key, _) = rewind_access::btree::decode_leaf(bytes);
                t.rollback_insert(s, key, undo_next)?;
            }
            AccessKind::Heap(h) => {
                // Heap insert: tombstone the slot (RIDs are stable).
                let rid = rewind_access::heap::Rid {
                    page: header.page,
                    slot,
                };
                let _ = h;
                s.modify_flagged(
                    rid.page,
                    LogPayload::UpdateRecord {
                        slot: rid.slot,
                        old: bytes.to_vec(),
                        new: vec![],
                    },
                    ModKind::Clr { undo_next },
                    rewind_wal::REC_FLAG_HEAP,
                )?;
            }
        },
        LogPayloadView::DeleteRecord { old, .. } => match resolver(header.object)? {
            AccessKind::Tree(t) => t.rollback_delete(s, old, undo_next)?,
            AccessKind::Heap(_) => {
                return Err(Error::Internal("heap deletes are logged as updates".into()));
            }
        },
        LogPayloadView::UpdateRecord { slot, old, .. } => match resolver(header.object)? {
            AccessKind::Tree(t) => t.rollback_update(s, old, undo_next)?,
            AccessKind::Heap(_) => {
                // Restore the previous row bytes in place (covers tombstone
                // deletes and in-place updates alike).
                let new_now =
                    s.with_page(header.page, |p| Ok(p.record(slot as usize)?.to_vec()))?;
                s.modify_flagged(
                    header.page,
                    LogPayload::UpdateRecord {
                        slot,
                        old: new_now,
                        new: old.to_vec(),
                    },
                    ModKind::Clr { undo_next },
                    rewind_wal::REC_FLAG_HEAP,
                )?;
            }
        },
        LogPayloadView::Commit { .. } => {
            return Err(Error::Internal(
                "cannot roll back a committed transaction".into(),
            ));
        }
        // Markers carry no state.
        LogPayloadView::Abort | LogPayloadView::End => {}
        ref other => {
            return Err(Error::Internal(format!(
                "unexpected payload in rollback: {other:?}"
            )));
        }
    }
    Ok(())
}

/// Back out every transaction in `heads` — `(most recent LSN, id)` pairs —
/// in one merged sweep over their chains in descending LSN order, so
/// structure-modification ordering is honoured across transactions.
///
/// CLRs encountered jump via `undo_next` (so completed structure
/// modifications and already-compensated work are skipped) after a
/// header-only decode — their payloads are never materialized; every other
/// record is handed to `undo` straight from its borrowed payload view.
/// `on_txn_done` runs once per transaction, as soon as its chain is
/// exhausted. Returns the number of records handed to `undo`.
pub fn undo_sweep(
    log: &LogManager,
    reach: Reach,
    heads: impl IntoIterator<Item = (Lsn, TxnId)>,
    mut undo: impl FnMut(TxnId, &LogRecordHeader, &LogPayloadView<'_>) -> Result<()>,
    mut on_txn_done: impl FnMut(TxnId),
) -> Result<u64> {
    let mut heap: BinaryHeap<(Lsn, TxnId)> = heads.into_iter().collect();
    let mut undone = 0u64;
    while let Some((lsn, txn)) = heap.pop() {
        let rec = log.get_record_ref(lsn, reach)?;
        let header = rec.header()?;
        let next = if header.is_clr() {
            header.undo_next
        } else {
            let (_, view) = rec.view()?;
            undo(txn, &header, &view)?;
            undone += 1;
            header.prev_lsn
        };
        if next.is_valid() {
            heap.push((next, txn));
        } else {
            on_txn_done(txn);
        }
    }
    Ok(undone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_common::PageId;
    use rewind_wal::{LogConfig, LogRecord, REC_FLAG_CLR};

    fn append(log: &LogManager, txn: TxnId, prev_lsn: Lsn, undo_next: Lsn) -> Lsn {
        let clr = undo_next.is_valid();
        log.append(&LogRecord {
            lsn: Lsn::NULL,
            txn,
            prev_lsn,
            page: PageId(5),
            prev_page_lsn: Lsn::NULL,
            object: ObjectId(501),
            undo_next,
            flags: if clr { REC_FLAG_CLR } else { 0 },
            payload: LogPayload::UpdateRecord {
                slot: 0,
                old: b"old".to_vec(),
                new: b"new".to_vec(),
            },
        })
    }

    /// Two interleaved losers; `b`'s CLR closes `b2..b3` (a completed
    /// structure modification) and jumps straight to `b1`.
    #[test]
    fn sweep_merges_descending_and_skips_clr_targets() {
        let log = LogManager::new(LogConfig::default());
        let (a, b) = (TxnId(1), TxnId(2));
        let a1 = append(&log, a, Lsn::NULL, Lsn::NULL);
        let b1 = append(&log, b, Lsn::NULL, Lsn::NULL);
        let a2 = append(&log, a, a1, Lsn::NULL);
        let b2 = append(&log, b, b1, Lsn::NULL);
        let a3 = append(&log, a, a2, Lsn::NULL);
        let b3 = append(&log, b, b2, Lsn::NULL);
        let b_clr = append(&log, b, b3, b1);
        let a4 = append(&log, a, a3, Lsn::NULL);

        let mut visited = Vec::new();
        let mut done = Vec::new();
        let undone = undo_sweep(
            &log,
            Reach::Retained,
            [(a4, a), (b_clr, b)],
            |txn, header, _| {
                assert_eq!(header.txn, txn, "hook sees the sweep's own txn");
                visited.push((header.lsn, txn));
                Ok(())
            },
            |txn| done.push(txn),
        )
        .unwrap();

        assert_eq!(
            visited,
            vec![(a4, a), (a3, a), (a2, a), (b1, b), (a1, a)],
            "one merged sweep in descending LSN order"
        );
        let lsns: Vec<Lsn> = visited.iter().map(|&(lsn, _)| lsn).collect();
        assert!(lsns.windows(2).all(|w| w[0] > w[1]), "strictly descending");
        assert!(
            [b2, b3, b_clr].iter().all(|l| !lsns.contains(l)),
            "a CLR and the records it closes are never undone"
        );
        assert_eq!(undone, visited.len() as u64);
        assert_eq!(done, vec![b, a], "each txn done once, as it finishes");
    }
}
