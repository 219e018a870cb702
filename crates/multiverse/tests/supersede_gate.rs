//! Regression test for superseded-version reclamation (ROADMAP reclamation
//! invariant, introduced by PR 2).
//!
//! Under the strict `< read-clock` acceptance rule, a versioned reader whose
//! read clock is `<=` a commit timestamp `T` *skips* every version stamped
//! `T` and keeps walking to the next older node. A versioned attempt owns
//! its read clock (its own clock increment at begin, after pinning), so
//! such a reader began before the commit stamped `T` read the clock, and was
//! pinned before the superseded node was retired: EBR's grace period keeps
//! the node alive under it. On top of that, a superseded version stamped
//! `T` is EBR-retired only once the global clock *exceeds* `T`
//! (`MultiverseTx::flush_superseded`). Reverting both — retiring at
//! supersede time *and* loading the read clock, the seed behaviour that PR 2
//! found to be a latent use-after-free — lets a late reader at the same
//! quiescent clock walk past an at-clock version into a recycled node.
//!
//! The test manufactures the walk-past deterministically: phases of
//! back-to-back lockstep commits (`y == 2x`) with versioned read-only
//! transactions interleaved. Inside each reader, between its reads of `x`
//! and `y`, the writer commits one more lockstep pair. Commits do not
//! advance the deferred clock, so that pair is stamped exactly the reader's
//! read clock, and the reader must walk past it onto the previous `y` — a
//! node that is *superseded and queued* under the clock gate. The repeated
//! pin/unpin cycles drive EBR collection, so a premature retirement would
//! actually get recycled. A fault surfaces as the debug poison assertion in
//! `VersionList::traverse`, a torn `y != 2x` pair, a versioned abort, or a
//! crash on a recycled link word.

use multiverse::{MultiverseConfig, MultiverseRuntime};
use tm_api::{Abort, TVar, TmHandle, TmRuntime, Transaction, TxKind};

/// Lockstep commits per phase, besides the one inside each reader. Two
/// superseded nodes are queued per commit (one per variable); the total per
/// phase, inner commits included (90 nodes), stays below the queue's
/// forced-flush threshold (96) so the gate — not the overflow fallback — is
/// what keeps the nodes alive.
const COMMITS_PER_PHASE: usize = 30;
/// Versioned reads interleaved with each phase's commits.
const READS_PER_PHASE: usize = 15;
const PHASES: usize = 50;

#[test]
fn reader_pinned_at_superseding_commit_ts_traverses_safely() {
    let rt = MultiverseRuntime::start(MultiverseConfig {
        // Every read-only attempt runs versioned, straight into `traverse`.
        k1_versioned_after: 0,
        ..MultiverseConfig::small_mode_u_only()
    });
    let x = TVar::new(1u64);
    let y = TVar::new(2u64);
    let mut writer = rt.register();
    let mut reader = rt.register();

    let mut v = 1u64;
    let mut versioned_reads = 0u64;
    for _ in 0..PHASES {
        // One phase: back-to-back lockstep commits, each superseding the
        // previous version pair. The deferred clock does not advance on
        // commits; only the readers' begins advance it within a phase.
        for k in 0..COMMITS_PER_PHASE {
            v += 1;
            writer.txn(TxKind::ReadWrite, |tx| {
                tx.write_var(&x, v)?;
                tx.write_var(&y, v * 2)
            });
            // Interleave readers *within* the phase. The repeated pin/unpin
            // cycles are also what drives EBR collection, so a premature
            // retirement would actually get recycled here.
            if k % (COMMITS_PER_PHASE / READS_PER_PHASE) == 0 {
                let mut inner = true;
                let (a, b) = reader.txn(TxKind::ReadOnly, |tx| {
                    let a = tx.read_var(&x)?;
                    // A commit stamped exactly this reader's read clock: the
                    // read of `y` walks past it onto the superseded node.
                    if std::mem::take(&mut inner) {
                        v += 1;
                        writer.txn(TxKind::ReadWrite, |tx| {
                            tx.write_var(&x, v)?;
                            tx.write_var(&y, v * 2)
                        });
                    }
                    let b = tx.read_var(&y)?;
                    Ok((a, b))
                });
                assert_eq!(b, a * 2, "reader observed a torn lockstep pair");
                assert_eq!(a + 1, v, "reader serialized before the inner commit");
                versioned_reads += 1;
            }
        }
        // End of phase: tick the clock (aborts advance it) so the queued
        // superseded nodes become flushable and the next phase starts fresh.
        let gave_up = writer.txn_budget(TxKind::ReadWrite, 1, |tx| {
            let _ = tx.read_var(&x)?;
            Err::<(), _>(Abort)
        });
        assert!(!gave_up.is_committed());
    }

    assert!(versioned_reads >= (PHASES * READS_PER_PHASE / 2) as u64);
    let stats = rt.stats();
    assert!(
        stats.versioned_commits > 0,
        "readers must have exercised the versioned path"
    );
    assert_eq!(
        stats.versioned_aborts, 0,
        "a walk past an at-clock commit never aborts"
    );
    assert!(
        stats.pool_retires > 0,
        "phases must have queued and flushed superseded nodes"
    );
    assert_eq!(x.load_direct() * 2, y.load_direct());
    rt.shutdown();
}
