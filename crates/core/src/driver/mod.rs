//! Kernel-side (driver) state of one host.
//!
//! The Open-MX driver owns everything that happens below the event
//! ring: the BH receive callback (`recv`), the large-message pull
//! engine (`pull`), in-driver matching (`kmatch`), the one-copy
//! shared-memory path (`shm`) and the receive-copy path all of them
//! share — offload decision, channel health, submission, CPU copy and
//! drain (`copy`). Those submodules implement methods on
//! [`crate::cluster::Cluster`]; this module holds the data.

pub mod copy;
pub mod kmatch;
pub mod pull;
pub mod recv;
pub mod shm;

use crate::{EpAddr, EpIdx, ReqId};
use omx_hw::ioat::CopySegment;
use omx_sim::sanitize::{Kind, SimSanitizer, Token};
use omx_sim::Ps;
use std::collections::{BTreeMap, VecDeque};

pub use copy::PendingCopy;

/// Pooled per-node scratch for the driver's hot paths.
///
/// Every buffer a BH or syscall path needs transiently — fragment
/// dedup bitmaps, pull block accounting, pending-copy lists, chained
/// batch segments — is recycled here instead of round-tripping through
/// the allocator, extending the engine's zero-steady-state-allocation
/// guarantee to the send/recv/pull driver paths (pinned by lint D5 and
/// the driver-path case in the allocation-counting suite). Pools are
/// bounded: a burst can still allocate, but the steady state never
/// does.
#[derive(Debug, Default)]
pub struct DriverScratch {
    /// Recycled fragment bitmaps (medium dedup, pull `frag_seen`).
    bitmaps: Vec<Vec<bool>>,
    /// Recycled block-remaining vectors (pull protocol).
    blocks: Vec<Vec<u32>>,
    /// Recycled pending-copy vectors (pulls, kernel-matched messages,
    /// synchronous copies).
    pending: Vec<Vec<PendingCopy>>,
    /// Reusable chained-batch segment list (cleared between uses).
    pub segments: Vec<CopySegment>,
}

impl DriverScratch {
    /// Pool-size bound: beyond this, returned buffers are dropped. Far
    /// above any steady-state working set (one bitmap per in-flight
    /// medium/large message), it only caps what a pathological burst
    /// can pin.
    const POOL_CAP: usize = 64;

    /// A cleared `len`-entry bitmap, recycled when possible.
    pub fn take_bitmap(&mut self, len: usize) -> Vec<bool> {
        match self.bitmaps.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len, false);
                v
            }
            // omx-lint: allow(hot-path-alloc) pool miss: only the first messages of a run grow the pool; a warmed loop always recycles [test: crates/sim/tests/alloc_count.rs::warmed_medium_pingpong_allocates_nothing]
            None => vec![false; len],
        }
    }

    /// Return a bitmap to the pool.
    pub fn put_bitmap(&mut self, v: Vec<bool>) {
        if self.bitmaps.len() < Self::POOL_CAP {
            self.bitmaps.push(v);
        }
    }

    /// An empty block-remaining vector, recycled when possible.
    pub fn take_blocks(&mut self) -> Vec<u32> {
        self.blocks.pop().unwrap_or_default()
    }

    /// Return a block-remaining vector to the pool.
    pub fn put_blocks(&mut self, mut v: Vec<u32>) {
        if self.blocks.len() < Self::POOL_CAP {
            v.clear();
            self.blocks.push(v);
        }
    }

    /// An empty pending-copy vector, recycled when possible.
    pub fn take_pending(&mut self) -> Vec<PendingCopy> {
        self.pending.pop().unwrap_or_default()
    }

    /// Return a pending-copy vector to the pool.
    pub fn put_pending(&mut self, mut v: Vec<PendingCopy>) {
        if self.pending.len() < Self::POOL_CAP {
            v.clear();
            self.pending.push(v);
        }
    }

    /// Recycle every reusable buffer of a retired pull.
    pub fn recycle_pull(&mut self, pull: PullState) {
        let PullState {
            frag_seen,
            block_remaining,
            pending_copies,
            ..
        } = pull;
        self.put_bitmap(frag_seen);
        self.put_blocks(block_remaining);
        self.put_pending(pending_copies);
    }
}

/// Receiver-side state of one in-progress large-message pull.
#[derive(Debug)]
pub struct PullState {
    /// Receiving endpoint.
    pub ep: EpIdx,
    /// The receive request being filled.
    pub req: ReqId,
    /// The sending endpoint.
    pub src: EpAddr,
    /// Sender-side handle quoted in pull requests.
    pub sender_handle: u32,
    /// Message sequence number (duplicate suppression).
    pub msg_seq: u32,
    /// Total message length.
    pub msg_len: u64,
    /// Total fragment count.
    pub frags_total: u32,
    /// Per-fragment arrival flags.
    pub frag_seen: Vec<bool>,
    /// Remaining fragments per block.
    pub block_remaining: Vec<u32>,
    /// Next block index to request.
    pub next_block: u32,
    /// Bytes landed so far.
    pub bytes_done: u64,
    /// I/OAT channel assigned to this message (one channel per
    /// message, §V).
    pub channel: usize,
    /// Outstanding asynchronous copies.
    pub pending_copies: Vec<PendingCopy>,
    /// Last time any fragment arrived (retransmission watchdog).
    pub last_progress: Ps,
    /// Generation stamp distinguishing this pull from earlier users of
    /// the same (reused) handle — stale watchdogs no-op on mismatch.
    pub generation: u64,
    /// Current adaptive watchdog timeout (exponential backoff while
    /// the pull is stalled, reset to `cfg.retransmit_timeout` on
    /// progress).
    pub rto: Ps,
    /// Blocks granted to this pull from the node-wide credit pool and
    /// not yet fully received (always 0 with credits disabled).
    pub credits_held: u32,
    /// Whether this pull is currently queued in
    /// [`CreditState::waiters`] — the flag keeps the FIFO free of
    /// duplicate entries and lets the pump skip stale handles.
    pub credit_queued: bool,
    /// Lifecycle sanitizer token: submitted at construction,
    /// completed and released by `finish_pull`, released by the
    /// abandoning watchdog (zero-sized in release builds).
    san: Token,
}

impl PullState {
    /// The checked constructor: a pull starts with no fragments seen,
    /// no bytes landed and no pending copies, and its lifecycle token
    /// is minted (and submitted — the pull is immediately in flight)
    /// with the caller as the allocation site. Its accounting buffers
    /// come from `scratch` so a steady state of pulls never allocates;
    /// retire them with [`DriverScratch::recycle_pull`].
    #[allow(clippy::too_many_arguments)]
    #[track_caller]
    pub fn new(
        ep: EpIdx,
        req: ReqId,
        src: EpAddr,
        sender_handle: u32,
        msg_seq: u32,
        msg_len: u64,
        frags_total: u32,
        block_remaining: Vec<u32>,
        next_block: u32,
        channel: usize,
        last_progress: Ps,
        generation: u64,
        rto: Ps,
        scratch: &mut DriverScratch,
    ) -> PullState {
        let san = SimSanitizer::alloc(Kind::PullHandle);
        SimSanitizer::submit(san);
        PullState {
            ep,
            req,
            src,
            sender_handle,
            msg_seq,
            msg_len,
            frags_total,
            frag_seen: scratch.take_bitmap(frags_total as usize),
            block_remaining,
            next_block,
            bytes_done: 0,
            channel,
            pending_copies: scratch.take_pending(),
            last_progress,
            generation,
            rto,
            credits_held: 0,
            credit_queued: false,
            san,
        }
    }

    /// The lifecycle token.
    pub fn token(&self) -> Token {
        self.san
    }

    /// Whether `frag_idx` has not landed yet. Out-of-range indices —
    /// possible when a stale fragment reaches a recycled handle —
    /// read as already-seen, so callers drop them as duplicates
    /// instead of indexing out of bounds.
    pub fn frag_is_new(&self, frag_idx: u32) -> bool {
        matches!(self.frag_seen.get(frag_idx as usize), Some(false))
    }

    /// Record the arrival of fragment `frag_idx` (blocks of `bf`
    /// fragments): mark it seen and decrement its block's remaining
    /// count. Idempotent by construction — a duplicate, stale or
    /// out-of-range index returns `None` and touches nothing, so a
    /// block re-requested by the watchdog just as its last fragment
    /// lands can never double-complete (or underflow the remaining
    /// count) no matter how many copies of each fragment arrive.
    pub fn note_frag(&mut self, frag_idx: u32, bf: u32) -> Option<FragProgress> {
        let seen = self.frag_seen.get_mut(frag_idx as usize)?;
        if *seen {
            return None;
        }
        *seen = true;
        let b = (frag_idx / bf) as usize;
        let rem = &mut self.block_remaining[b];
        debug_assert!(*rem > 0, "unseen fragment in a completed block");
        *rem = rem.saturating_sub(1);
        Some(FragProgress {
            block_done: *rem == 0,
            all_arrived: self.frag_seen.iter().all(|&s| s),
        })
    }
}

/// What one freshly landed fragment did to its pull's progress
/// accounting (returned by [`PullState::note_frag`]).
#[derive(Debug, Clone, Copy)]
pub struct FragProgress {
    /// The fragment completed its block.
    pub block_done: bool,
    /// The fragment was the last of the whole message.
    pub all_arrived: bool,
}

/// Node-wide, receiver-side credit pool for the pull protocol: the
/// congestion-control state behind `OmxConfig::pull_credits`. Every
/// pull's block requests draw from one shared adaptive `budget`
/// instead of a fixed per-pull window, FIFO across pulls, so N
/// concurrent senders can no longer each push a full window into one
/// host's RX rings. The default state is inert — nothing here is read
/// or written while credits are disabled.
#[derive(Debug, Default)]
pub struct CreditState {
    /// Adaptive budget: the maximum total granted-but-incomplete
    /// blocks across all pulls of this node.
    pub budget: u32,
    /// Blocks currently granted and not yet fully received.
    pub outstanding: u32,
    /// Pull handles waiting for a block grant, in arrival order.
    pub waiters: VecDeque<u32>,
    /// Instant of the last multiplicative decrease (also rate-limits
    /// shed-load NACKs).
    pub last_shrink: Ps,
    /// Instant of the last additive regrowth.
    pub last_regrow: Ps,
}

/// Sender-side state of one large message being pulled by the remote
/// host.
#[derive(Debug, Clone, Copy)]
pub struct TxLargeState {
    /// Sending endpoint on this host.
    pub ep: EpIdx,
    /// The send request.
    pub req: ReqId,
    /// Destination endpoint.
    pub dest: EpAddr,
}

/// Per-host driver state.
#[derive(Debug, Default)]
pub struct Driver {
    /// Receiver-side pulls by receiver handle.
    pub pulls: BTreeMap<u32, PullState>,
    /// Sender-side large sends by sender handle.
    pub tx_large: BTreeMap<u32, TxLargeState>,
    /// Next receiver pull handle.
    pub next_pull_handle: u32,
    /// Monotone generation counter stamped onto every new pull, so a
    /// watchdog armed for a dead pull can detect that its handle was
    /// recycled (never wraps in practice: u64).
    pub next_pull_generation: u64,
    /// Next sender large handle.
    pub next_tx_handle: u32,
    /// Skbuffs currently held by pending asynchronous copies (the
    /// resource the §III-B cleanup bounds).
    pub skbuffs_held: u64,
    /// High-water mark of `skbuffs_held`.
    pub skbuffs_held_max: u64,
    /// Outstanding asynchronous fragment copies of kernel-matched
    /// medium messages (extension; a pooled [`DriverScratch`] list
    /// each), keyed by (receiving endpoint, sender, sequence). The
    /// message itself reassembles in the endpoint.
    pub kmatch: BTreeMap<(EpIdx, EpAddr, u32), Vec<PendingCopy>>,
    /// Receiver-driven credit pool (inert unless
    /// `OmxConfig::pull_credits`).
    pub credits: CreditState,
    /// Pooled hot-path scratch buffers (zero steady-state allocation).
    pub scratch: DriverScratch,
}

impl Driver {
    /// A fresh driver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a receiver-side pull handle. Handles are a small
    /// wrapping namespace (as in the real driver) — reuse is expected
    /// and generations disambiguate.
    pub fn alloc_pull_handle(&mut self) -> u32 {
        self.next_pull_handle = self.next_pull_handle.wrapping_add(1);
        self.next_pull_handle
    }

    /// Allocate a pull generation stamp (never reused).
    pub fn alloc_pull_generation(&mut self) -> u64 {
        self.next_pull_generation += 1;
        self.next_pull_generation
    }

    /// Allocate a sender-side large handle.
    pub fn alloc_tx_handle(&mut self) -> u32 {
        self.next_tx_handle += 1;
        self.next_tx_handle
    }

    /// Account for skbuffs captured by a pending asynchronous copy.
    pub fn hold_skbuffs(&mut self, n: u64) {
        self.skbuffs_held += n;
        self.skbuffs_held_max = self.skbuffs_held_max.max(self.skbuffs_held);
    }

    /// Account for skbuffs released by the cleanup routine.
    pub fn release_skbuffs(&mut self, n: u64) {
        debug_assert!(self.skbuffs_held >= n, "releasing more skbuffs than held");
        self.skbuffs_held = self.skbuffs_held.saturating_sub(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_unique() {
        let mut d = Driver::new();
        let a = d.alloc_pull_handle();
        let b = d.alloc_pull_handle();
        assert_ne!(a, b);
        let c = d.alloc_tx_handle();
        let e = d.alloc_tx_handle();
        assert_ne!(c, e);
    }

    #[test]
    fn skbuff_accounting_tracks_high_water() {
        let mut d = Driver::new();
        d.hold_skbuffs(3);
        d.hold_skbuffs(4);
        assert_eq!(d.skbuffs_held, 7);
        d.release_skbuffs(5);
        assert_eq!(d.skbuffs_held, 2);
        assert_eq!(d.skbuffs_held_max, 7);
    }

    #[test]
    fn pull_handles_wrap_and_generations_do_not() {
        let mut d = Driver::new();
        d.next_pull_handle = u32::MAX - 1;
        let a = d.alloc_pull_handle();
        let b = d.alloc_pull_handle();
        let c = d.alloc_pull_handle();
        assert_eq!(a, u32::MAX);
        assert_eq!(b, 0, "handle namespace wraps");
        assert_eq!(c, 1);
        assert_eq!(d.alloc_pull_generation(), 1);
        assert_eq!(d.alloc_pull_generation(), 2);
    }
}
