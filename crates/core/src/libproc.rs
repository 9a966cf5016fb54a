//! The user-space library: event-ring consumption, matching and the
//! library-side copies.
//!
//! With library-level matching (the paper's stack), the library reaps
//! one event per small message and one per *fragment* of a medium
//! message, copying payloads from the statically pinned ring into the
//! application buffer — the second copy of Fig 2. Large messages show
//! up twice: a rendezvous event that triggers the pull command, and a
//! single completion event once the driver finished the pull.

use crate::cluster::Cluster;
use crate::config::StackKind;
use crate::endpoint::{land, Frag, Sink};
use crate::events::Event;
use crate::matching::{PostedRecv, Unexpected};
use crate::{EpAddr, ReqId};
use omx_hw::cpu::category;
use omx_hw::mem::{CopyContext, MemModel};
use omx_hw::Distance;
use omx_sim::{Ps, Sim};

impl Cluster {
    /// Library copy cost: ring slot (or unexpected heap buffer) into
    /// the application buffer. The slot was written by the BH on
    /// another core, so the copy is uncached.
    pub(crate) fn lib_copy_cost(&self, bytes: u64) -> Ps {
        let ctx = CopyContext::uncached(Distance::SameSocket);
        MemModel::copy_time_paged(&self.p.hw, bytes, &ctx)
    }

    /// Drain the endpoint's event ring in library context.
    pub(crate) fn lib_poll(&mut self, sim: &mut Sim<Cluster>, me: EpAddr) {
        while let Some(ev) = self.ep_mut(me).events.pop() {
            self.lib_handle_event(sim, me, ev);
        }
    }

    fn lib_handle_event(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, ev: Event) {
        let core = self.ep(me).core;
        let node = me.node;
        let now = sim.now();
        let ev_cost = self.p.cfg.lib_event_cost;
        match ev {
            Event::RecvTiny {
                src,
                match_info,
                msg_seq,
                data,
            } => {
                let (total, frag) = (data.len() as u64, Frag::Inline(&data));
                self.lib_eager(sim, me, src, match_info, msg_seq, total, 0, frag);
            }
            Event::RecvSmall {
                src,
                match_info,
                msg_seq,
                slot,
                len,
            } => {
                let frag = Frag::Slot {
                    slot,
                    len: len as usize,
                };
                self.lib_eager(sim, me, src, match_info, msg_seq, len as u64, 0, frag);
            }
            Event::RecvMediumFrag {
                src,
                match_info,
                msg_seq,
                msg_len,
                offset,
                slot,
                len,
            } => {
                let (total, offset) = (msg_len as u64, offset as u64);
                let frag = Frag::Slot {
                    slot,
                    len: len as usize,
                };
                self.lib_eager(sim, me, src, match_info, msg_seq, total, offset, frag);
            }
            Event::RecvRndv {
                src,
                match_info,
                msg_seq,
                msg_len,
                sender_handle,
            } => {
                let (_, fin) = self.run_core(node, core, now, ev_cost, category::USER_LIB);
                match self.ep_mut(me).matcher.match_incoming(match_info) {
                    Some(posted) => {
                        self.lib_adopt_rndv(
                            sim,
                            me,
                            posted.req,
                            src,
                            match_info,
                            msg_seq,
                            msg_len,
                            sender_handle,
                            fin,
                        );
                    }
                    None => {
                        self.ep_mut(me).counters.unexpected += 1;
                        self.ep_mut(me).matcher.push_unexpected(Unexpected::Rndv {
                            src,
                            match_info,
                            msg_seq,
                            msg_len,
                            sender_handle,
                        });
                    }
                }
            }
            Event::RecvLargeDone { req, len } => {
                let (_, fin) = self.run_core(node, core, now, ev_cost, category::USER_LIB);
                if let Some(rs) = self.ep_mut(me).recvs.get_mut(&req) {
                    rs.total = len;
                }
                self.finish_recv(sim, me, req, fin);
            }
            Event::RecvMediumDone { req, len } => {
                let (_, fin) = self.run_core(node, core, now, ev_cost, category::USER_LIB);
                if let Some(rs) = self.ep_mut(me).recvs.get_mut(&req) {
                    rs.total = len as u64;
                }
                self.finish_recv(sim, me, req, fin);
            }
            Event::SendDone { req } => {
                let (_, fin) = self.run_core(node, core, now, ev_cost, category::USER_LIB);
                self.finish_send(sim, me, req, fin);
            }
        }
    }

    /// The library's side of one eager event (a tiny or small message,
    /// or one medium fragment): reap the event, copy the payload out of
    /// the event or ring slot, and complete the receive once the
    /// message's last byte landed in it.
    #[allow(clippy::too_many_arguments)]
    fn lib_eager(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        src: EpAddr,
        match_info: u64,
        msg_seq: u32,
        total: u64,
        offset: u64,
        frag: Frag<'_>,
    ) {
        let cost = self.p.cfg.lib_event_cost + self.lib_copy_cost(frag.len());
        let core = self.ep(me).core;
        let (_, fin) = self.run_core(me.node, core, sim.now(), cost, category::USER_LIB);
        let ep = self.ep_mut(me);
        let landed = ep.land_eager(src, match_info, msg_seq, total, offset, frag);
        if let Some(req) = landed.completed_recv() {
            self.finish_recv(sim, me, req, fin);
        }
    }

    /// A receive matched a rendezvous: record it and start the pull.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn lib_adopt_rndv(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        req: ReqId,
        src: EpAddr,
        match_info: u64,
        msg_seq: u32,
        msg_len: u64,
        sender_handle: u32,
        fin: Ps,
    ) {
        if let Some(rs) = self.ep_mut(me).recvs.get_mut(&req) {
            rs.total = msg_len;
            rs.matched_info = Some(match_info);
        }
        // The announcement is now owned by a pull; duplicate tracking
        // hands over to the driver's active-pull check.
        self.ep_mut(me).rndv_pending.remove(&(src, msg_seq));
        match self.p.cfg.stack {
            StackKind::Mxoe => {
                self.mx_start_pull(sim, me, req, src, sender_handle, msg_len, fin);
            }
            StackKind::OpenMx => {
                if src.node == me.node {
                    self.start_local_pull(sim, me, req, src, sender_handle, msg_len, msg_seq, fin);
                } else {
                    self.start_pull(sim, me, req, src, sender_handle, msg_len, msg_seq, fin);
                }
            }
        }
    }

    /// A new receive was posted: adopt the oldest matching unexpected
    /// message, if any. An eager one may still be arriving: what
    /// arrived is copied out now, the rest lands in the receive.
    pub(crate) fn lib_match_new_recv(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, req: ReqId) {
        let now = sim.now();
        let core = self.ep(me).core;
        let (match_info, mask, cap) = {
            let rs = self.ep(me).recvs.get(&req).expect("just posted");
            (rs.match_info, rs.mask, rs.buf.len() as u64)
        };
        let hit = self.ep_mut(me).matcher.post_recv(PostedRecv {
            req,
            match_info,
            mask,
            len: cap,
        });
        match hit {
            Some(Unexpected::Eager(mut asm)) => {
                let cost = self.lib_copy_cost(asm.arrived);
                let (_, fin) = self.run_core(me.node, core, now, cost, category::USER_LIB);
                let ep = self.ep_mut(me);
                if let Some(rs) = ep.recvs.get_mut(&req) {
                    if let Sink::Buffer(buf) = &asm.sink {
                        land(&mut rs.buf, 0, buf);
                    }
                    rs.total = asm.total;
                    rs.matched_info = Some(asm.match_info);
                }
                if asm.is_complete() {
                    self.finish_recv(sim, me, req, fin);
                } else {
                    asm.sink = Sink::Recv(req);
                    ep.assemblies.insert((asm.src, asm.msg_seq), asm);
                }
            }
            Some(Unexpected::Rndv {
                src,
                match_info: mi,
                msg_seq,
                msg_len,
                sender_handle,
            }) => {
                self.lib_adopt_rndv(sim, me, req, src, mi, msg_seq, msg_len, sender_handle, now);
            }
            None => {}
        }
    }
}
