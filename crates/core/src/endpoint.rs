//! Endpoint state: the user-space library side of one Open-MX (or
//! MXoE) endpoint, plus its per-request bookkeeping.
//!
//! An endpoint bundles the matcher, the driver→library event ring, the
//! statically pinned receive slots, the registration table and the
//! outstanding send/receive requests of one application process. The
//! cluster world owns the endpoints and drives them; this module is
//! the data model.

use crate::config::MsgClass;
use crate::counters::Counters;
use crate::events::{EventRing, SlotPool};
use crate::matching::{Matcher, Unexpected};
use crate::region::{Region, RegionTable};
use crate::{EpAddr, ReqId};
use omx_hw::CoreId;
use std::collections::{BTreeMap, BTreeSet};

/// An outstanding send request.
#[derive(Debug)]
pub struct SendState {
    /// Request id.
    pub req: ReqId,
    /// Destination endpoint.
    pub dest: EpAddr,
    /// Match information carried on the wire.
    pub match_info: u64,
    /// Per-partner message sequence number.
    pub msg_seq: u32,
    /// Message class (decided at post time).
    pub class: MsgClass,
    /// Payload, retained until acknowledged for retransmission.
    /// `Bytes` so fragments slice it zero-copy (the simulation-host
    /// analogue of the stack's zero-copy page attach).
    pub data: bytes::Bytes,
    /// Stable buffer identity for the registration cache / cache
    /// model; `None` for one-shot buffers.
    pub tag: Option<u64>,
    /// Acknowledged (eager) — retransmission stops.
    pub acked: bool,
    /// Completion already delivered to the application.
    pub completed: bool,
    /// Sender-side large handle (rendezvous), if any.
    pub sender_handle: Option<u32>,
    /// Pinned region backing a large send.
    pub region: Option<Region>,
    /// Retransmission attempts so far.
    pub retx_attempts: u32,
    /// Last proof of life from the receiver for this request (pull
    /// requests reset it); the retransmission timer keys off this.
    pub last_activity: omx_sim::Ps,
    /// Current adaptive retransmission timeout: starts at
    /// `cfg.retransmit_timeout`, doubles (with jitter) on every
    /// retransmission up to `cfg.rto_max`, resets on peer liveness.
    pub rto: omx_sim::Ps,
}

/// Land `data` at `offset` of a receive buffer, clipped to the buffer:
/// the byte move of every receive copy.
pub(crate) fn land(buf: &mut [u8], offset: usize, data: &[u8]) {
    let start = offset.min(buf.len());
    let n = data.len().min(buf.len() - start);
    if let (Some(dst), Some(src)) = (buf.get_mut(start..start + n), data.get(..n)) {
        dst.copy_from_slice(src);
    }
}

/// An outstanding receive request.
#[derive(Debug)]
pub struct RecvState {
    /// Request id.
    pub req: ReqId,
    /// Posted match information.
    pub match_info: u64,
    /// Posted match mask.
    pub mask: u64,
    /// Destination buffer (filled in place).
    pub buf: Vec<u8>,
    /// Total expected once matched (0 until known).
    pub total: u64,
    /// Match information of the message that matched (for the
    /// completion record).
    pub matched_info: Option<u64>,
    /// Stable buffer identity.
    pub tag: Option<u64>,
    /// Pinned region backing a large receive.
    pub region: Option<Region>,
    /// Segment size of a vectorial destination buffer (`None` =
    /// contiguous). Scattered buffers split every receive copy into
    /// per-segment chunks — the "highly-vectorial buffers" case of
    /// §IV-A that the fragment threshold protects against.
    pub seg_size: Option<u64>,
}

/// Where an eager message's bytes land: straight in the matched
/// receive's buffer, or in a buffer of its own while it waits in the
/// matcher's unexpected queue.
#[derive(Debug)]
pub enum Sink {
    /// The receive it was matched to.
    Recv(ReqId),
    /// The unexpected-message buffer (the full message image).
    Buffer(Vec<u8>),
}

/// The reassembly record of one eager message — tiny, small or
/// medium, under library matching, kernel matching or MXoE — from its
/// first fragment on. An unmatched message waits in the matcher's
/// arrival-ordered unexpected queue, complete or not; a matched one
/// that is still arriving waits in [`Endpoint::assemblies`].
#[derive(Debug)]
pub struct Assembly {
    /// Sender address.
    pub src: EpAddr,
    /// Per-partner message sequence (with `src`, the reassembly key).
    pub msg_seq: u32,
    /// Match information.
    pub match_info: u64,
    /// Where the bytes land.
    pub sink: Sink,
    /// Bytes arrived (the driver drops every duplicate fragment before
    /// it gets here).
    pub arrived: u64,
    /// Total message length.
    pub total: u64,
}

impl Assembly {
    /// Whether every byte arrived.
    pub fn is_complete(&self) -> bool {
        self.arrived >= self.total
    }

    /// Land `data` at `offset` of the sink and count it.
    fn fill(&mut self, recvs: &mut BTreeMap<ReqId, RecvState>, offset: u64, data: &[u8]) -> Landed {
        let req = match &mut self.sink {
            Sink::Recv(req) => {
                if let Some(rs) = recvs.get_mut(req) {
                    land(&mut rs.buf, offset as usize, data);
                }
                Some(*req)
            }
            Sink::Buffer(buf) => {
                land(buf, offset as usize, data);
                None
            }
        };
        self.arrived += data.len() as u64;
        Landed {
            req,
            complete: self.is_complete(),
        }
    }
}

/// The bytes of one eager fragment: inline (a tiny event, an MXoE or
/// kernel-matched frame) or in a pinned ring slot, which is released
/// once landed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Frag<'a> {
    /// Bytes the caller holds.
    Inline(&'a [u8]),
    /// `len` bytes in ring slot `slot`.
    Slot { slot: usize, len: usize },
}

impl Frag<'_> {
    /// Fragment length in bytes.
    pub(crate) fn len(&self) -> u64 {
        match *self {
            Frag::Inline(d) => d.len() as u64,
            Frag::Slot { len, .. } => len as u64,
        }
    }
}

/// What landing one eager fragment did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Landed {
    /// The receive the message is matched to (`None`: unexpected).
    pub req: Option<ReqId>,
    /// Whether this was the message's last byte.
    pub complete: bool,
}

impl Landed {
    /// The matched receive, once its message is complete.
    pub(crate) fn completed_recv(&self) -> Option<ReqId> {
        self.req.filter(|_| self.complete)
    }
}

/// One endpoint (library side).
#[derive(Debug)]
pub struct Endpoint {
    /// Global address.
    pub addr: EpAddr,
    /// Core the owning process (application + library) is pinned to.
    pub core: CoreId,
    /// Matching engine.
    pub matcher: Matcher,
    /// Driver→library event ring.
    pub events: EventRing,
    /// Statically pinned receive data slots.
    pub slots: SlotPool,
    /// Registered regions (+ registration cache).
    pub regions: RegionTable,
    /// Outstanding sends.
    pub sends: BTreeMap<ReqId, SendState>,
    /// Outstanding receives.
    pub recvs: BTreeMap<ReqId, RecvState>,
    /// Matched eager messages still arriving, keyed by (source,
    /// sequence). Unmatched ones wait in the matcher instead.
    pub assemblies: BTreeMap<(EpAddr, u32), Assembly>,
    /// Next message sequence per destination partner.
    pub seq_tx: BTreeMap<EpAddr, u32>,
    /// Application driving this endpoint (index into the cluster's app
    /// table).
    pub app: usize,
    /// Whether a library poll event is already scheduled.
    pub poll_scheduled: bool,
    /// Driver-side duplicate suppression: message sequences already
    /// fully received per partner.
    pub completed_seqs: BTreeMap<EpAddr, SeqWindow>,
    /// Driver-side medium reassembly progress (for ack generation):
    /// (src, seq) → fragments seen bitmap.
    pub drv_medium: BTreeMap<(EpAddr, u32), Vec<bool>>,
    /// Rendezvous announcements delivered but not yet matched to a
    /// pull: duplicates (sender retransmissions racing the library)
    /// must be dropped while the original sits in the event ring or
    /// the unexpected queue.
    pub rndv_pending: BTreeSet<(EpAddr, u32)>,
    /// Per-endpoint performance counters (the `omx_counters`
    /// equivalent).
    pub counters: Counters,
    /// Next request-id counter (the low 32 bits of this endpoint's
    /// [`ReqId`]s; the address provides the high bits). Per-endpoint
    /// so id allocation is independent of every other endpoint — and
    /// therefore of how the cluster is partitioned.
    pub(crate) next_req: u64,
}

impl Endpoint {
    /// A fresh endpoint.
    pub fn new(
        addr: EpAddr,
        core: CoreId,
        app: usize,
        recvq_slots: usize,
        slot_bytes: usize,
        regcache: bool,
    ) -> Self {
        Endpoint {
            addr,
            core,
            matcher: Matcher::new(),
            events: EventRing::new(),
            slots: SlotPool::new(recvq_slots, slot_bytes),
            regions: RegionTable::new(regcache),
            sends: BTreeMap::new(),
            recvs: BTreeMap::new(),
            assemblies: BTreeMap::new(),
            seq_tx: BTreeMap::new(),
            app,
            poll_scheduled: false,
            completed_seqs: BTreeMap::new(),
            drv_medium: BTreeMap::new(),
            rndv_pending: BTreeSet::new(),
            counters: Counters::default(),
            next_req: 1,
        }
    }

    /// Allocate the next message sequence number toward `dest`.
    pub fn next_seq(&mut self, dest: EpAddr) -> u32 {
        let c = self.seq_tx.entry(dest).or_insert(0);
        let s = *c;
        *c += 1;
        s
    }

    /// Record a fully received message sequence from `src`; returns
    /// `false` when it was already recorded (a duplicate delivery).
    pub fn record_completed_seq(&mut self, src: EpAddr, seq: u32) -> bool {
        self.completed_seqs.entry(src).or_default().record(seq)
    }

    /// Whether `seq` from `src` was already fully received.
    pub fn seq_completed(&self, src: EpAddr, seq: u32) -> bool {
        self.completed_seqs
            .get(&src)
            .is_some_and(|s| s.contains(seq))
    }

    /// Land one fragment of an eager message: the one eager receive
    /// path of library matching, kernel matching and MXoE. The first
    /// fragment to arrive matches the message against the posted
    /// receives; an unmatched message joins the matcher's
    /// arrival-ordered unexpected queue with a buffer of its own, where
    /// a later receive adopts it at any point of its arrival. The
    /// caller charges its path's costs and completes a matched message
    /// once it is `complete`.
    pub(crate) fn land_eager(
        &mut self,
        src: EpAddr,
        match_info: u64,
        msg_seq: u32,
        total: u64,
        offset: u64,
        frag: Frag<'_>,
    ) -> Landed {
        let data = match frag {
            Frag::Inline(d) => d,
            Frag::Slot { slot, len } => self.slots.read(slot, len),
        };
        let key = (src, msg_seq);
        let landed = if let Some(asm) = self.assemblies.get_mut(&key) {
            let landed = asm.fill(&mut self.recvs, offset, data);
            if landed.complete {
                self.assemblies.remove(&key);
            }
            landed
        } else if let Some(asm) = self.matcher.unexpected_eager_mut(src, msg_seq) {
            asm.fill(&mut self.recvs, offset, data)
        } else {
            let sink = match self.matcher.match_incoming(match_info) {
                Some(posted) => {
                    if let Some(rs) = self.recvs.get_mut(&posted.req) {
                        rs.total = total;
                        rs.matched_info = Some(match_info);
                    }
                    Sink::Recv(posted.req)
                }
                None => {
                    self.counters.unexpected += 1;
                    // omx-lint: allow(hot-path-alloc) unexpected-message buffer: only taken when no receive was posted, never in a pre-posted steady loop [test: crates/sim/tests/alloc_count.rs::warmed_medium_pingpong_allocates_nothing]
                    Sink::Buffer(vec![0u8; total as usize])
                }
            };
            let mut asm = Assembly {
                src,
                msg_seq,
                match_info,
                sink,
                arrived: 0,
                total,
            };
            let landed = asm.fill(&mut self.recvs, offset, data);
            match asm.sink {
                Sink::Buffer(_) => self.matcher.push_unexpected(Unexpected::Eager(asm)),
                Sink::Recv(_) if !landed.complete => {
                    self.assemblies.insert(key, asm);
                }
                Sink::Recv(_) => {}
            }
            landed
        };
        if let Frag::Slot { slot, .. } = frag {
            self.slots.release(slot);
        }
        landed
    }
}

/// Sliding-window duplicate suppressor for one partner's message
/// sequences.
///
/// Replaces the old per-partner `BTreeSet<u32>`: sequences arrive
/// (near-)monotonically, so a fixed bitmap over the last
/// [`SeqWindow::SPAN`] sequences answers membership with one bit test
/// and — unlike a B-tree, whose leaf splits allocated roughly once
/// every dozen messages — never touches the allocator after the
/// per-partner setup. Only recent sequences can ever be retransmitted
/// (the sender gives up after a bounded number of attempts), so
/// anything that has fallen below the window is reported as already
/// completed rather than remembered individually.
#[derive(Debug, Default)]
pub struct SeqWindow {
    /// Lowest sequence the bitmap still tracks; everything below it is
    /// treated as completed (an ancient duplicate, never a live
    /// message).
    base: u32,
    /// Bit `i` tracks sequence `base + i`. Allocated to
    /// `SPAN / 64` words on first use, never resized.
    bits: Vec<u64>,
}

impl SeqWindow {
    /// Sequences retained per partner: twice the old pruning window,
    /// so the window holds strictly more history than the set it
    /// replaced ever did.
    pub const SPAN: u32 = 8192;
    const WORDS: usize = (Self::SPAN as usize) / 64;

    /// Record `seq`; returns `false` when it was already recorded.
    pub fn record(&mut self, seq: u32) -> bool {
        if self.bits.is_empty() {
            // One-time setup per partner (1 KiB), amortized over the
            // whole conversation.
            // omx-lint: allow(hot-path-alloc) one-time 1 KiB window per partner, never touched again in steady state [test: crates/sim/tests/alloc_count.rs::warmed_tiny_pingpong_allocates_nothing]
            self.bits = vec![0u64; Self::WORDS];
        }
        if seq < self.base {
            return false;
        }
        if seq - self.base >= 2 * Self::SPAN {
            // A jump far beyond the window (fresh partner after reuse,
            // or a test fabricating sequences): restart the window at
            // the word holding `seq` instead of shifting through the
            // gap word by word.
            self.bits.iter_mut().for_each(|w| *w = 0);
            self.base = seq & !63;
        }
        while seq - self.base >= Self::SPAN {
            self.advance_word();
        }
        let idx = (seq - self.base) as usize;
        let mask = 1u64 << (idx % 64);
        let fresh = self.bits[idx / 64] & mask == 0;
        self.bits[idx / 64] |= mask;
        fresh
    }

    /// Whether `seq` was already recorded (sequences below the window
    /// count as recorded: they can only be ancient retransmissions).
    pub fn contains(&self, seq: u32) -> bool {
        if self.bits.is_empty() || seq >= self.base + Self::SPAN {
            return false;
        }
        if seq < self.base {
            return true;
        }
        let idx = (seq - self.base) as usize;
        self.bits[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Slide the window up by one 64-bit word (in-place shift; no
    /// reallocation).
    fn advance_word(&mut self) {
        self.bits.copy_within(1.., 0);
        *self.bits.last_mut().expect("fixed-size bitmap") = 0;
        self.base += 64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpIdx, NodeId};

    fn addr(n: u32, e: u8) -> EpAddr {
        EpAddr {
            node: NodeId(n),
            ep: EpIdx(e),
        }
    }

    fn ep() -> Endpoint {
        Endpoint::new(addr(0, 0), CoreId(1), 0, 16, 4096, true)
    }

    #[test]
    fn sequence_numbers_are_per_partner() {
        let mut e = ep();
        let a = addr(1, 0);
        let b = addr(1, 1);
        assert_eq!(e.next_seq(a), 0);
        assert_eq!(e.next_seq(a), 1);
        assert_eq!(e.next_seq(b), 0, "independent stream per partner");
        assert_eq!(e.next_seq(a), 2);
    }

    #[test]
    fn completed_seq_dedup() {
        let mut e = ep();
        let a = addr(1, 0);
        assert!(!e.seq_completed(a, 5));
        assert!(e.record_completed_seq(a, 5), "first recording");
        assert!(e.seq_completed(a, 5));
        assert!(!e.record_completed_seq(a, 5), "duplicate detected");
        assert!(!e.seq_completed(addr(1, 1), 5), "per-partner isolation");
    }

    /// The bitmap window slides without forgetting recent history and
    /// treats anything below the window as an ancient duplicate.
    #[test]
    fn seq_window_slides_monotonically() {
        let mut w = SeqWindow::default();
        for s in 0..3 * SeqWindow::SPAN {
            assert!(w.record(s), "fresh sequence {s}");
            assert!(w.contains(s));
            assert!(!w.record(s), "immediate duplicate {s}");
        }
        // Recent history survives the slides.
        let newest = 3 * SeqWindow::SPAN - 1;
        assert!(w.contains(newest - 100));
        // Sequences that fell below the window are duplicates, not
        // fresh messages.
        assert!(w.contains(0));
        assert!(!w.record(0));
        // A far-future jump restarts the window cleanly.
        let far = u32::MAX - SeqWindow::SPAN;
        assert!(w.record(far));
        assert!(w.contains(far));
        assert!(!w.record(far));
        assert!(w.contains(3), "ancient sequence reads as completed");
    }

    /// The window never reallocates after its per-partner setup.
    #[test]
    fn seq_window_bitmap_is_fixed_size() {
        let mut w = SeqWindow::default();
        w.record(0);
        let cap = w.bits.capacity();
        for s in 0..4 * SeqWindow::SPAN {
            w.record(s);
        }
        assert_eq!(w.bits.capacity(), cap, "bitmap must not grow");
    }

    #[test]
    fn endpoint_starts_idle() {
        let e = ep();
        assert!(e.events.is_empty());
        assert_eq!(e.slots.free_slots(), 16);
        assert!(e.sends.is_empty());
        assert!(e.recvs.is_empty());
        assert!(!e.poll_scheduled);
    }
}
