//! Recovery: newest valid checkpoint + deterministic WAL-suffix replay.
//!
//! The recovered image is exactly a committed prefix of the crashed run:
//!
//! 1. Load the newest checkpoint that decodes (older ones are fallbacks,
//!    `.tmp` files are ignored). Its image holds every committed write with
//!    `commit_ts < rv` — the Mode-V snapshot cut is exact.
//! 2. Decode every segment; a torn or corrupt tail truncates that segment
//!    at its last valid record (counted in `truncated_records`).
//! 3. Sort records by `seq` and walk the contiguous run from 1. The
//!    group-commit thread writes strictly contiguous sequence numbers, so
//!    the first gap can only be a torn tail — everything past it is
//!    discarded (`stop_at_gap`, the sound default).
//! 4. Replay, in `seq` order, the records with `commit_ts >= rv` onto the
//!    checkpoint image. Records below `rv` are already inside the image;
//!    re-applying them could clobber a newer checkpointed value, so the
//!    replay cut and the snapshot cut must agree — and they do, both being
//!    defined by `rv`.
//!
//! The result is the committed state as of sequence `durable_seq`: no
//! committed transaction covered by an fsync is lost, and no uncommitted or
//! unfsynced write appears. The deliberately unsound [`RecoverOpts`] modes
//! exist so the crash harness can prove the checker detects violations of
//! exactly those two promises.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use crate::frame::{decode_stream, DecodeOpts, Record};
use crate::session::{checkpoint_paths, segment_paths};

/// Recovery policy. Defaults are the sound mode; the other settings
/// deliberately re-introduce the failure classes the checker must catch.
#[derive(Debug, Clone, Copy)]
pub struct RecoverOpts {
    /// Verify frame checksums (sound default `true`). `false` accepts
    /// corrupt frames — ghost values the checker must flag.
    pub validate_checksums: bool,
    /// Skip structurally complete but invalid frames instead of truncating
    /// (unsound: resurrects data behind corruption).
    pub skip_invalid_frames: bool,
    /// Stop replay at the first sequence gap (sound default `true`).
    /// `false` replays past gaps — an unfsynced suffix the checker must
    /// flag as a non-prefix recovery.
    pub stop_at_gap: bool,
}

impl Default for RecoverOpts {
    fn default() -> Self {
        Self {
            validate_checksums: true,
            skip_invalid_frames: false,
            stop_at_gap: true,
        }
    }
}

/// The outcome of [`recover`].
#[derive(Debug, Default)]
pub struct Recovered {
    /// Read clock of the checkpoint the image started from (0 = none).
    pub checkpoint_rv: u64,
    /// The recovered `addr -> value` image.
    pub values: HashMap<u64, u64>,
    /// Records replayed onto the checkpoint image.
    pub applied_records: u64,
    /// Highest sequence number accepted by the contiguity walk.
    pub durable_seq: u64,
    /// Invalid frames encountered (torn tails, corruption) across segments
    /// and checkpoints — also folded into the stats registry.
    pub truncated_records: u64,
    /// Segment files read.
    pub segments_read: u64,
}

/// Recover the committed image from the WAL directory `dir`.
pub fn recover(dir: &Path, opts: &RecoverOpts) -> io::Result<Recovered> {
    let mut out = Recovered::default();

    // Newest structurally valid checkpoint wins; damaged ones fall through
    // to older images (losing a checkpoint costs replay time, not data —
    // segments are not pruned).
    for (rv, path) in checkpoint_paths(dir)? {
        let bytes = std::fs::read(&path)?;
        match crate::checkpoint::decode_checkpoint(&bytes) {
            Some((decoded_rv, entries)) => {
                debug_assert_eq!(decoded_rv, rv);
                out.checkpoint_rv = decoded_rv;
                out.values = entries.into_iter().collect();
                break;
            }
            None => out.truncated_records += 1,
        }
    }

    let decode_opts = DecodeOpts {
        validate_checksums: opts.validate_checksums,
        skip_invalid_frames: opts.skip_invalid_frames,
    };
    let mut records: Vec<Record> = Vec::new();
    for (_, path) in segment_paths(dir)? {
        let bytes = std::fs::read(&path)?;
        let decoded = decode_stream(&bytes, &decode_opts);
        out.truncated_records += decoded.invalid_frames;
        records.extend(decoded.records);
        out.segments_read += 1;
    }
    records.sort_by_key(|r| r.seq);

    let mut expected = 1u64;
    for record in &records {
        if record.seq != expected {
            if opts.stop_at_gap {
                break;
            }
        } else {
            expected += 1;
        }
        out.durable_seq = record.seq;
        if record.commit_ts >= out.checkpoint_rv {
            for &(addr, value) in &record.writes {
                out.values.insert(addr, value);
            }
            out.applied_records += 1;
        }
    }

    tm_api::stats::process_stats()
        .recovery_truncated_records
        .add(out.truncated_records);
    Ok(out)
}
