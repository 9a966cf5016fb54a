//! The receive-copy path (§III-B, §III-C, §VI): every copy of
//! received payload the driver makes — async offload of large pull and
//! kernel-matched medium fragments, sync offload of medium ring-slot
//! fragments and of the shared-memory pull, and the CPU memcpy any of
//! them falls back to. One predicate decides ([`CopySite::offloads`]),
//! one gate probes channel health before every submission
//! ([`Cluster::copy_gate`]), and one stuck-copy rule rescues pending
//! copies whichever way they are retired ([`Cluster::reap_copies`] for
//! the async cleanup poll, [`Cluster::wait_copies`] for a busy-poll
//! wait). Sites keep only their channel choice and protocol
//! bookkeeping.
//!
//! Counting rule: `copies_offloaded`/`bytes_offloaded` count copies
//! submitted to the engine (a rescued copy stays counted there),
//! `copies_memcpy`/`bytes_memcpy` copies the CPU made in place of a
//! submission, and `copies_fallback` gate demotions plus rescues.

use crate::cluster::Cluster;
use crate::config::OmxConfig;
use crate::counters::Counters;
use crate::{EpAddr, NodeId};
use omx_hw::cpu::category;
use omx_hw::ioat::{ChannelProbe, CopyHandle, CopySegment};
use omx_hw::mem::{CopyContext, MemModel};
use omx_hw::{CoreId, Distance, IoatEngine};
use omx_sim::sanitize::SimSanitizer;
use omx_sim::Ps;

/// One submitted receive copy the driver has not retired yet: its
/// completion handle, the skbuffs it pins and the bytes it moves
/// (needed to re-do the copy on the CPU if the channel is stuck).
#[derive(Debug, Clone, Copy)]
pub struct PendingCopy {
    /// I/OAT completion handle.
    pub handle: CopyHandle,
    /// Ring skbuffs held until the copy retires.
    pub skbs: u64,
    /// Payload bytes the copy moves.
    pub bytes: u64,
}

/// The site-specific facts the offload decision needs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CopySite {
    /// A `len`-byte large pull fragment of a `msg_len`-byte message
    /// landing at message `offset`, copied in `chunk`-byte destination
    /// pieces.
    Pull {
        msg_len: u64,
        chunk: u64,
        offset: u64,
        len: u64,
    },
    /// A `len`-byte medium fragment at message `offset`, copied
    /// synchronously into a ring slot.
    MediumSync { offset: u64, len: u64 },
    /// A kernel-matched medium fragment; `matched` = a posted receive
    /// owns the destination (unexpected data lands in the unexpected
    /// message's own buffer).
    KernelMatch {
        offset: u64,
        len: u64,
        matched: bool,
    },
    /// The shared-memory one-copy pull of a `len`-byte message.
    Shm { len: u64 },
}

impl CopySite {
    /// Whether this copy goes to the DMA engine — the one offload
    /// predicate. `ioat_enabled` is the master switch for every site;
    /// the BH sites also honor the Fig 3 counterfactual
    /// (`ignore_bh_copy` leaves no copy to offload).
    pub(crate) fn offloads(self, cfg: &OmxConfig) -> bool {
        if !cfg.ioat_enabled {
            return false;
        }
        match self {
            // §IV-A: message ≥ 64 kB and chunk ≥ 1 kB; a warm message
            // head stays on the CPU.
            CopySite::Pull {
                msg_len,
                chunk,
                offset,
                ..
            } => {
                !cfg.ignore_bh_copy
                    && msg_len >= cfg.ioat_net_msg_threshold
                    && chunk >= cfg.ioat_frag_threshold
                    && offset >= cfg.warm_copy_head_bytes
            }
            CopySite::MediumSync { len, .. } => {
                cfg.ioat_medium_sync && !cfg.ignore_bh_copy && len >= cfg.ioat_frag_threshold
            }
            CopySite::KernelMatch { len, matched, .. } => {
                matched && !cfg.ignore_bh_copy && len >= cfg.ioat_frag_threshold
            }
            CopySite::Shm { len } => len >= cfg.ioat_shm_threshold,
        }
    }
}

/// How a CPU copy is costed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CpuCopy {
    /// The BH copies out of skbuffs into `chunk`-byte destination
    /// pieces (clamped to the page size).
    Bh { chunk: u64 },
    /// The driver copies between two processes of one host: costed by
    /// placement and cache state.
    Shm {
        src_core: CoreId,
        src_tag: Option<u64>,
        dst_tag: Option<u64>,
    },
}

/// Where a site's copies run and how their CPU copies are costed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CopyCtx {
    /// Receiving endpoint (whose counters the copies feed).
    pub me: EpAddr,
    /// Core the driver runs on: the BH core or the receiver's core.
    pub core: CoreId,
    /// CPU accounting category (BH or syscall-context driver).
    pub cat: &'static str,
    /// CPU copy cost model.
    pub cpu: CpuCopy,
}

impl CopyCtx {
    /// A BH site copying into `chunk`-byte destination pieces.
    pub(crate) fn bh(me: EpAddr, core: CoreId, chunk: u64) -> CopyCtx {
        CopyCtx {
            me,
            core,
            cat: category::BH,
            cpu: CpuCopy::Bh { chunk },
        }
    }
}

impl Cluster {
    /// Probe an I/OAT channel's health on `node`, counting quarantine
    /// releases into the run stats. `true` = usable.
    fn ioat_channel_usable(&mut self, node: NodeId, channel: usize, now: Ps) -> bool {
        match self.node_mut(node).ioat.probe_channel(channel, now) {
            ChannelProbe::Healthy => true,
            ChannelProbe::Reprobed => {
                self.stats.ioat_reprobes += 1;
                true
            }
            ChannelProbe::Quarantined => false,
        }
    }

    /// Round-robin pick skipping quarantined channels. When every
    /// channel is quarantined the plain round-robin pick is returned —
    /// [`Self::copy_gate`] then demotes the copy, so an all-dead engine
    /// degrades to pure memcpy.
    pub(crate) fn pick_healthy_channel(&mut self, node: NodeId, now: Ps) -> usize {
        let n = self.node(node).ioat.num_channels();
        for _ in 0..n {
            let ch = self.node_mut(node).ioat.pick_channel_rr();
            if self.ioat_channel_usable(node, ch, now) {
                return ch;
            }
        }
        self.node_mut(node).ioat.pick_channel_rr()
    }

    /// Blacklist `channel` on `node` until `until`, counting the event
    /// if the channel was not already quarantined.
    fn quarantine_channel(&mut self, node: NodeId, channel: usize, until: Ps) {
        if self.node_mut(node).ioat.quarantine(channel, until) {
            self.stats.ioat_quarantines += 1;
        }
    }

    /// Count one offload-to-memcpy fallback of `bytes` bytes.
    fn record_ioat_fallback(&mut self, me: EpAddr, at: Ps, bytes: u64) {
        self.stats.ioat_fallback_copies += 1;
        if let Some(c) = self.copy_counters(me) {
            c.copies_fallback += 1;
        }
        self.metrics.count(me.node.0, "ioat.fallback_bytes", bytes);
        self.metrics
            .trace(at, me.node.0, "ioat", "memcpy_fallback", bytes, 0);
    }

    /// The health gate before every submission: probe each channel the
    /// copy would use at `now`. If any is quarantined the copy is
    /// demoted — one fallback of `bytes` — and the caller takes the
    /// memcpy path. `true` = submit.
    pub(crate) fn copy_gate(
        &mut self,
        me: EpAddr,
        channels: impl IntoIterator<Item = usize>,
        now: Ps,
        bytes: u64,
    ) -> bool {
        let mut usable = true;
        for ch in channels {
            usable &= self.ioat_channel_usable(me.node, ch, now);
        }
        if !usable {
            self.record_ioat_fallback(me, now, bytes);
        }
        usable
    }

    /// Descriptors needed for an I/OAT copy into `[offset, offset+len)`
    /// of a page-aligned destination region ("one or two chunks per
    /// page": one per destination page touched, none for an empty copy,
    /// as in `IoatEngine::descriptors_for`).
    fn desc_count(&self, offset: u64, len: u64) -> u64 {
        let page = self.p.hw.page_size;
        match len {
            0 => 0,
            _ => (offset + len - 1) / page - offset / page + 1,
        }
    }

    /// The copy counters of `me`, looked up with a checked index (the
    /// receive fast path must not panic).
    fn copy_counters(&mut self, me: EpAddr) -> Option<&mut Counters> {
        let ep = self.node_mut(me.node).endpoints.get_mut(me.ep.0 as usize)?;
        Some(&mut ep.counters)
    }

    /// Charge `work` of the site's own processing plus the CPU
    /// submission of `ndesc` descriptors on the context's core from
    /// `from`, and count one offloaded copy of `bytes`. Returns the
    /// finish. With `OmxConfig::ioat_batch` the descriptors are chained
    /// behind one doorbell — and a GRO frame-train tail (`coalesced`)
    /// appends to the chain the train head already rang, paying no
    /// doorbell at all. Off (the default), every descriptor pays the
    /// paper's full 350 ns submission (§IV-A).
    pub(crate) fn charge_submit(
        &mut self,
        ctx: &CopyCtx,
        from: Ps,
        work: Ps,
        ndesc: u64,
        bytes: u64,
        coalesced: bool,
    ) -> Ps {
        let submit = if self.p.cfg.ioat_batch {
            IoatEngine::submit_cpu_cost_batched(&self.p.hw, ndesc, !coalesced)
        } else {
            IoatEngine::submit_cpu_cost(&self.p.hw, ndesc)
        };
        let node = ctx.me.node;
        let (_, fin) = self.run_core(node, ctx.core, from, work + submit, ctx.cat);
        self.metrics.busy(node.0, "ioat.submit_cpu", submit);
        if let Some(c) = self.copy_counters(ctx.me) {
            c.copies_offloaded += 1;
            c.bytes_offloaded += bytes;
        }
        fin
    }

    /// Queue `seg` on `node`'s engine at `at`. The copy pins `skbs` ring
    /// skbuffs until it is retired.
    pub(crate) fn submit_segment(
        &mut self,
        node: NodeId,
        at: Ps,
        seg: CopySegment,
        skbs: u64,
    ) -> PendingCopy {
        let (hw, n) = self.hw_node_mut(node);
        let handle = n
            .ioat
            .submit(hw, at, seg.channel, seg.bytes, seg.descriptors);
        n.driver.hold_skbuffs(skbs);
        PendingCopy {
            handle,
            skbs,
            bytes: seg.bytes,
        }
    }

    /// One BH fragment copy after the fragment's own processing: if
    /// `site` offloads and the channel `pick` chooses passes
    /// [`Self::copy_gate`], submit it as the CPU finishes — a sync
    /// medium copy is waited for at once, an async one pins its skbuff
    /// until the caller retires it — else memcpy it (a
    /// [`CopySite::Shm`] site is one sync copy). Returns the finish and
    /// the pending async copy.
    pub(crate) fn copy_fragment(
        &mut self,
        ctx: &CopyCtx,
        site: CopySite,
        now: Ps,
        coalesced: bool,
        pick: impl FnOnce(&mut Cluster) -> usize,
    ) -> (Ps, Option<PendingCopy>) {
        let work = self.bh_frag_cost(coalesced);
        let len = match site {
            CopySite::Pull { len, .. }
            | CopySite::MediumSync { len, .. }
            | CopySite::KernelMatch { len, .. }
            | CopySite::Shm { len } => len,
        };
        if site.offloads(&self.p.cfg) {
            let channel = pick(self);
            if self.copy_gate(ctx.me, [channel], now, len) {
                let (descriptors, sync) = match site {
                    CopySite::Pull { chunk, offset, .. } => {
                        (self.desc_count(offset, len).max(len.div_ceil(chunk)), false)
                    }
                    // Ring-slot copies source from the skbuff payload,
                    // which starts just past the packet header and is
                    // never page aligned: "one or two chunks per page"
                    // (§IV-A) — here two.
                    CopySite::MediumSync { offset, .. } => (self.desc_count(offset, len) + 1, true),
                    CopySite::KernelMatch { offset, .. } => (self.desc_count(offset, len), false),
                    CopySite::Shm { .. } => (self.desc_count(0, len), true),
                };
                let fin = self.charge_submit(ctx, now, work, descriptors, len, coalesced);
                let seg = CopySegment {
                    channel,
                    bytes: len,
                    descriptors,
                };
                let pc = self.submit_segment(ctx.me.node, fin, seg, u64::from(!sync));
                if sync {
                    return (self.wait_copies(ctx, &[pc], fin).0, None);
                }
                return (fin, Some(pc));
            }
        }
        (self.memcpy_copy(ctx, now, work, len), None)
    }

    /// CPU cost of the BH copying `bytes` out of an skbuff with page
    /// chunking. Honors the Fig 3 counterfactual switch.
    ///
    /// Public so calibration tools and property tests can probe the
    /// copy-cost model directly.
    pub fn bh_copy_cost(&self, bytes: u64) -> Ps {
        self.bh_copy_cost_chunked(bytes, self.p.hw.page_size)
    }

    /// Like [`Self::bh_copy_cost`] but with an explicit chunk
    /// granularity (vectorial destination buffers).
    pub fn bh_copy_cost_chunked(&self, bytes: u64, chunk: u64) -> Ps {
        if self.p.cfg.ignore_bh_copy || bytes == 0 {
            return Ps::ZERO;
        }
        let chunk = chunk.min(self.p.hw.page_size).max(1);
        let chunks = bytes.div_ceil(chunk).max(1);
        // With Direct Cache Access the NIC steered part of the payload
        // into the BH core's cache; the copy's read side is partially
        // warm (the write side still streams to memory, so the gain is
        // bounded well below the fully-cached rate).
        let cached_fraction = if self.p.cfg.dca_enabled { 0.35 } else { 0.0 };
        let ctx = CopyContext {
            distance: Distance::SameSocket,
            cached_fraction,
            shared_cache_pair: false,
        };
        MemModel::copy_time(&self.p.hw, bytes, chunks, &ctx).scale(self.p.cfg.bh_copy_slowdown)
    }

    /// Charge a CPU copy of `bytes` after `work` of other processing on
    /// the context's core from `from`, recording its busy time.
    fn cpu_copy(&mut self, ctx: &CopyCtx, from: Ps, work: Ps, bytes: u64) -> Ps {
        let node = ctx.me.node;
        let copy = match ctx.cpu {
            CpuCopy::Bh { chunk } => {
                let copy = self.bh_copy_cost_chunked(bytes, chunk);
                self.metrics.busy(node.0, "bh.copy", copy);
                self.metrics.count(node.0, "bh.copy_bytes", bytes);
                copy
            }
            CpuCopy::Shm {
                src_core,
                src_tag,
                dst_tag,
            } => self.shm_memcpy_cost(node, ctx.core, src_core, src_tag, dst_tag, bytes),
        };
        self.run_core(node, ctx.core, from, work + copy, ctx.cat).1
    }

    /// The CPU copy made in place of a submission (the site does not
    /// offload, or the gate demoted the copy), after `work` of the
    /// site's own processing. Returns the finish.
    pub(crate) fn memcpy_copy(&mut self, ctx: &CopyCtx, from: Ps, work: Ps, bytes: u64) -> Ps {
        let fin = self.cpu_copy(ctx, from, work, bytes);
        if let Some(c) = self.copy_counters(ctx.me) {
            c.copies_memcpy += 1;
            c.bytes_memcpy += bytes;
        }
        fin
    }

    /// Rescue `pc` if a poll at `poll` finds it stuck: its completion
    /// lies more than `ioat_stall_deadline` past the later of the poll
    /// and the time a healthy channel would have finished it (so
    /// queueing behind other copies on the channel or the memory port
    /// never counts as a stall). A dead channel's
    /// `omx_hw::ioat::STALLED_FOREVER` is the extreme case. The driver
    /// re-does a stuck copy on the CPU from `fin` (the data was applied
    /// at arrival, so this charges the copy time), frees its skbuffs and
    /// quarantines its channel until the re-probe cool-down expires.
    /// Returns the new finish, or `None` if the copy is not stuck.
    fn rescue_stuck(&mut self, ctx: &CopyCtx, pc: &PendingCopy, poll: Ps, fin: Ps) -> Option<Ps> {
        let h = pc.handle;
        if h.finish <= h.healthy_finish.max(poll) + self.p.cfg.ioat_stall_deadline {
            return None;
        }
        // Abandoned without ever completing: the CPU re-does it.
        SimSanitizer::release(h.san);
        let fin = self.cpu_copy(ctx, fin, Ps::ZERO, pc.bytes);
        self.record_ioat_fallback(ctx.me, fin, pc.bytes);
        let node = ctx.me.node;
        self.node_mut(node).driver.release_skbuffs(pc.skbs);
        let until = fin + self.p.cfg.ioat_quarantine_cooldown;
        self.quarantine_channel(node, h.channel, until);
        Some(fin)
    }

    /// The §III-B cleanup: poll the channels once from `from`, rescue
    /// the stuck copies of `pending`, release the ones done by then and
    /// keep the rest pending. Returns the finish.
    pub(crate) fn reap_copies(
        &mut self,
        ctx: &CopyCtx,
        pending: &mut Vec<PendingCopy>,
        from: Ps,
    ) -> Ps {
        if pending.is_empty() {
            return from;
        }
        let node = ctx.me.node;
        let poll = self
            .run_core(node, ctx.core, from, self.p.hw.ioat_poll_cost, ctx.cat)
            .1;
        let mut fin = poll;
        let mut i = 0;
        while let Some(&pc) = pending.get(i) {
            match self.rescue_stuck(ctx, &pc, poll, fin) {
                Some(f) => {
                    fin = f;
                    pending.remove(i);
                }
                None => i += 1,
            }
        }
        let mut freed = 0;
        pending.retain(|pc| {
            if pc.handle.finish > fin {
                return true;
            }
            // The hardware retired this copy and the driver observed
            // it — exactly once.
            SimSanitizer::complete(pc.handle.san);
            SimSanitizer::release(pc.handle.san);
            freed += pc.skbs;
            false
        });
        self.node_mut(node).driver.release_skbuffs(freed);
        fin
    }

    /// Retire every copy of `pending` from `from` — a sync copy, or the
    /// end of an async message: rescue the stuck ones, then busy-poll
    /// until the last of the rest is done. The caller drops the list.
    /// Returns the finish and the number of copies rescued.
    pub(crate) fn wait_copies(
        &mut self,
        ctx: &CopyCtx,
        pending: &[PendingCopy],
        from: Ps,
    ) -> (Ps, usize) {
        let node = ctx.me.node;
        let mut fin = from;
        let mut last = None;
        let mut rescued = 0;
        let mut freed = 0;
        for pc in pending {
            match self.rescue_stuck(ctx, pc, from, fin) {
                Some(f) => {
                    fin = f;
                    rescued += 1;
                }
                None => {
                    // The busy-poll below observes it done.
                    SimSanitizer::complete(pc.handle.san);
                    SimSanitizer::release(pc.handle.san);
                    last = last.max(Some(pc.handle.finish));
                    freed += pc.skbs;
                }
            }
        }
        if let Some(last) = last {
            let wait = last.saturating_sub(fin) + self.p.hw.ioat_poll_cost;
            fin = self.run_core(node, ctx.core, fin, wait, ctx.cat).1;
            self.metrics.busy(node.0, "ioat.poll_wait", wait);
        }
        self.node_mut(node).driver.release_skbuffs(freed);
        (fin, rescued)
    }

    /// Abandon `pending` without polling (a pull given up by its
    /// watchdog): the descriptors are released without ever completing
    /// and their skbuffs freed.
    pub(crate) fn abandon_copies(&mut self, node: NodeId, pending: &mut Vec<PendingCopy>) {
        let held = pending.iter().map(|pc| pc.skbs).sum();
        self.node_mut(node).driver.release_skbuffs(held);
        for pc in pending.drain(..) {
            SimSanitizer::release(pc.handle.san);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterParams;
    use crate::EpIdx;
    use omx_hw::ioat::STALLED_FOREVER;

    /// A cluster and a BH context on node 0 (with no endpoint behind it,
    /// so only the run-wide stats count the copies).
    fn cluster() -> (Cluster, CopyCtx) {
        let c = Cluster::new(ClusterParams::with_cfg(OmxConfig::with_ioat()));
        let me = EpAddr {
            node: NodeId(0),
            ep: EpIdx(0),
        };
        let page = c.p.hw.page_size;
        (c, CopyCtx::bh(me, CoreId(0), page))
    }

    /// A copy of `bytes` submitted on `channel` at time zero, holding
    /// one skbuff; `finish` overrides the engine's completion time.
    fn pending(c: &mut Cluster, channel: usize, bytes: u64, finish: Option<Ps>) -> PendingCopy {
        let descriptors = IoatEngine::descriptors_for(bytes, c.p.hw.page_size);
        let (hw, n) = c.hw_node_mut(NodeId(0));
        let mut handle = n.ioat.submit(hw, Ps::ZERO, channel, bytes, descriptors);
        handle.finish = finish.unwrap_or(handle.finish);
        c.node_mut(NodeId(0)).driver.hold_skbuffs(1);
        PendingCopy {
            handle,
            skbs: 1,
            bytes,
        }
    }

    #[test]
    fn one_predicate_with_the_master_switch_at_every_site() {
        let on = OmxConfig {
            ioat_medium_sync: true,
            warm_copy_head_bytes: 32 << 10,
            ..OmxConfig::with_ioat()
        };
        let off = OmxConfig {
            ioat_enabled: false,
            ..on.clone()
        };
        let pull = |msg_len, chunk, offset| CopySite::Pull {
            msg_len,
            chunk,
            offset,
            len: chunk,
        };
        let medium = |len| CopySite::MediumSync { offset: 0, len };
        let kmatch = |matched| CopySite::KernelMatch {
            offset: 0,
            len: 8192,
            matched,
        };
        for site in [
            pull(64 << 10, 4096, 32 << 10),
            medium(8192),
            kmatch(true),
            CopySite::Shm { len: 1 << 20 },
        ] {
            assert!(site.offloads(&on), "{site:?} should offload");
            assert!(!site.offloads(&off), "{site:?} ignores the master switch");
        }
        for site in [
            pull(63 << 10, 4096, 32 << 10), // message too short
            pull(64 << 10, 512, 32 << 10),  // fragment too short
            pull(64 << 10, 4096, 0),        // inside the warm head
            kmatch(false),                  // unexpected data
            medium(512),
            CopySite::Shm { len: (1 << 20) - 1 },
        ] {
            assert!(!site.offloads(&on), "{site:?} should stay on the CPU");
        }
    }

    #[test]
    fn only_copies_a_fault_delays_past_the_deadline_are_rescued() {
        let (mut c, ctx) = cluster();
        let deadline = c.p.cfg.ioat_stall_deadline;
        // Three 8 MiB copies queued behind each other on channel 3, and
        // one on channel 2 sharing the memory port with them: the last
        // finish many deadlines after the poll. That is queueing, not a
        // stall.
        let mut list: Vec<_> = [3, 3, 3, 2]
            .into_iter()
            .map(|ch| pending(&mut c, ch, 8 << 20, None))
            .collect();
        let last = list.iter().map(|pc| pc.handle.finish).max().unwrap();
        assert!(last > deadline * 4);
        // Behind them: a copy a fault delayed by exactly the deadline
        // past its healthy completion (waited for), one delayed a tick
        // more and one on a dead channel (both stuck); plus a copy done
        // by the poll.
        let mut late = pending(&mut c, 3, 4096, None);
        late.handle.finish = late.handle.healthy_finish + deadline;
        let mut stuck = pending(&mut c, 2, 4096, None);
        stuck.handle.finish = stuck.handle.healthy_finish + deadline + Ps(1);
        list.extend([late, stuck]);
        list.push(pending(&mut c, 0, 4096, Some(STALLED_FOREVER)));
        list.push(pending(&mut c, 1, 4096, Some(Ps::us(1))));
        let fin = c.reap_copies(&ctx, &mut list, Ps::us(2));
        assert_eq!(list.len(), 5, "stuck ones rescued, the done one reaped");
        assert_eq!(c.node(NodeId(0)).driver.skbuffs_held, 5);
        let ioat = &c.node(NodeId(0)).ioat;
        assert!(ioat.is_quarantined(0, fin) && ioat.is_quarantined(2, fin));
        assert!(!ioat.is_quarantined(3, fin));
        assert_eq!(c.stats.ioat_quarantines, 2);
        assert_eq!(c.stats.ioat_fallback_copies, 2);
        let (end, rescued) = c.wait_copies(&ctx, &list, fin);
        assert_eq!(rescued, 0);
        assert!(end > last && end > late.handle.finish);
        assert_eq!(c.node(NodeId(0)).driver.skbuffs_held, 0);
        // The gate demotes copies to a quarantined channel until the
        // cool-down is over and the probe re-enables it.
        assert!(c.copy_gate(ctx.me, [1, 3], fin, 4096));
        assert!(!c.copy_gate(ctx.me, [1, 2], fin, 4096));
        assert_eq!(c.stats.ioat_fallback_copies, 3);
        let until = fin + c.p.cfg.ioat_quarantine_cooldown;
        assert!(c.copy_gate(ctx.me, [0, 2], until, 4096));
        assert_eq!(c.stats.ioat_reprobes, 2);
    }
}
