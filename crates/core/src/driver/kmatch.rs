//! In-driver matching for medium messages (§VI future work,
//! extension).
//!
//! The paper's stack matches in the user library, which forces one
//! event — and one *synchronous* copy — per medium fragment (§III-C).
//! Moving the matching into the driver lets the BH copy fragments
//! straight into the posted buffer, offload them asynchronously like
//! large fragments, and raise a *single* event per message. This
//! module implements that plan behind `OmxConfig::kernel_matching`.

use crate::cluster::Cluster;
use crate::driver::copy::{CopyCtx, CopySite};
use crate::endpoint::Frag;
use crate::events::Event;
use crate::{EpAddr, NodeId};
use bytes::Bytes;
use omx_hw::cpu::category;
use omx_hw::CoreId;
use omx_sim::{Ps, Sim};

impl Cluster {
    /// BH handler for one medium fragment with in-driver matching.
    /// The caller already deduplicated via the driver bitmap. The
    /// fragment lands through the endpoint's one eager path, so an
    /// unmatched message waits in the matcher's unexpected queue and a
    /// receive posted mid-arrival adopts it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rx_medium_kernel_match(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        src: EpAddr,
        me: EpAddr,
        match_info: u64,
        msg_seq: u32,
        msg_len: u32,
        offset: u32,
        data: Bytes,
        coalesced: bool,
    ) -> Ps {
        let now = sim.now();
        let (total, at, frag) = (msg_len as u64, offset as u64, Frag::Inline(&data));
        let ep = self.ep_mut(me);
        let landed = ep.land_eager(src, match_info, msg_seq, total, at, frag);
        // Copy path: matched fragments may be offloaded asynchronously
        // — the whole point of this extension.
        let ctx = CopyCtx::bh(me, core, self.p.hw.page_size);
        let site = CopySite::KernelMatch {
            offset: at,
            len: data.len() as u64,
            matched: landed.req.is_some(),
        };
        let pick = |c: &mut Cluster| c.pick_healthy_channel(node, now);
        let (fin, submitted) = self.copy_fragment(&ctx, site, now, coalesced, pick);
        let key = (me.ep, src, msg_seq);
        if let Some(pc) = submitted {
            let d = &mut self.node_mut(node).driver;
            let pending = d.kmatch.entry(key);
            pending.or_insert_with(|| d.scratch.take_pending()).push(pc);
        }
        self.ep_mut(me).counters.rx_medium_frags += 1;
        if !landed.complete {
            return fin;
        }
        // Drain pending copies (only the last fragment waits, as in the
        // large path).
        let pending = self.node_mut(node).driver.kmatch.remove(&key);
        let (mut fin, _) = self.wait_copies(&ctx, pending.as_deref().unwrap_or_default(), fin);
        if let Some(p) = pending {
            self.node_mut(node).driver.scratch.put_pending(p);
        }
        if let Some(b) = self.ep_mut(me).drv_medium.remove(&(src, msg_seq)) {
            self.node_mut(node).driver.scratch.put_bitmap(b);
        }
        self.ep_mut(me).record_completed_seq(src, msg_seq);
        // Ack the sender.
        let pkt = crate::proto::Packet::Ack {
            src_ep: me.ep.0,
            dst_ep: src.ep.0,
            msg_seq,
        };
        let (_, f) = self.run_core(node, core, fin, self.p.cfg.ctrl_frame_cost, category::BH);
        fin = f;
        self.stats.acks_sent += 1;
        self.send_packet(sim, node, src.node, &pkt, fin);
        // One event per matched message — the extension's payoff. An
        // unexpected one is complete in the matcher's queue; adoption
        // copies it out.
        if let Some(req) = landed.req {
            self.push_event_at(sim, me, Event::RecvMediumDone { req, len: msg_len }, fin);
        }
        fin
    }
}
