//! Per-endpoint performance counters and the run's aggregate stats.
//!
//! The real Open-MX driver exports a set of counters per board and
//! endpoint (`omx_counters`); tooling and the paper's own analysis
//! lean on them to see which path a workload exercised. This is the
//! equivalent: every protocol path increments a counter, and the
//! harnesses/tests read them to assert *how* data moved, not just that
//! it arrived.
//!
//! Every scalar fact is one row of the stat table at the bottom of
//! this module: its name, its doc and its serialization policy
//! (`always`, or `if_nonzero` for rows added after the committed
//! result files, so runs that never fire them serialize exactly as
//! before). The structs, `merge`/`absorb`, the registry `publish` and
//! both serializers are generated from those rows, so no view can
//! miss a row.

use omx_sim::Metrics;
use serde::{Deserialize, Serialize, Value};

/// Whether a row with serialization policy `always` or `if_nonzero`
/// is left out of serialized output while it is zero.
macro_rules! if_nonzero {
    (always) => {
        false
    };
    (if_nonzero) => {
        true
    };
}

/// Append one scalar row to a serialized object, honoring its policy.
fn emit_row(o: &mut Vec<(String, Value)>, name: &str, v: u64, if_nonzero: bool) {
    if !if_nonzero || v != 0 {
        o.push((name.to_string(), v.to_value()));
    }
}

/// Generates [`Counters`] and [`Stats`] with every per-row view from
/// one list of rows per struct.
macro_rules! stat_table {
    (
        Counters { $( $(#[doc = $cdoc:literal])+ $c:ident: $cpol:ident, )+ }
        Stats { $( $(#[doc = $sdoc:literal])+ $s:ident: $spol:ident, )+ }
    ) => {
        /// Counters of one endpoint (sender and receiver sides).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Deserialize)]
        pub struct Counters {
            $( $(#[doc = $cdoc])+ pub $c: u64, )+
        }

        /// Aggregate counters over one run.
        ///
        /// The scalar rows are cluster-global events; the two trailing
        /// fields are filled in by
        /// [`crate::cluster::Cluster::stats_snapshot`].
        #[derive(Debug, Default, Clone)]
        pub struct Stats {
            $( $(#[doc = $sdoc])+ pub $s: u64, )+
            /// Per-node, per-queue RX-ring high watermarks (the credit
            /// controller's input signal), filled in when the run used
            /// multiple RX queues or credits — empty otherwise, and
            /// then left out of the serialized form.
            pub ring_high_watermarks: Vec<Vec<u64>>,
            /// Aggregated per-endpoint protocol counters (the
            /// `omx_counters` equivalent), summed over every endpoint;
            /// zero-valued on the live `Cluster::stats` field, which
            /// only tracks the cluster-global rows above.
            pub counters: Counters,
        }

        impl Counters {
            /// The table's rows in order: field name and whether the
            /// row is omitted from serialized output while zero.
            #[cfg(test)]
            const ROWS: &'static [(&'static str, bool)] =
                &[$( (stringify!($c), if_nonzero!($cpol)) ),+];

            /// Accumulate another endpoint's counters into this one
            /// (the cluster-wide aggregation behind [`Stats::counters`]).
            pub fn merge(&mut self, o: &Counters) {
                $( self.$c += o.$c; )+
            }

            /// Register every counter with the metrics registry under
            /// `scope` as an idempotent gauge named `counters.<field>`,
            /// next to the busy/trace series.
            pub fn publish(&self, metrics: &Metrics, scope: u32) {
                $(
                    let name = concat!("counters.", stringify!($c));
                    metrics.gauge_set(scope, name, self.$c as i64);
                )+
            }

            #[cfg(test)]
            fn rows_mut(&mut self) -> Vec<&mut u64> {
                vec![$( &mut self.$c ),+]
            }
        }

        impl Serialize for Counters {
            fn to_value(&self) -> Value {
                let mut o = Vec::new();
                $( emit_row(&mut o, stringify!($c), self.$c, if_nonzero!($cpol)); )+
                Value::Object(o)
            }
        }

        impl Stats {
            /// The table's scalar rows in order: field name and whether
            /// the row is omitted from serialized output while zero.
            #[cfg(test)]
            const ROWS: &'static [(&'static str, bool)] =
                &[$( (stringify!($s), if_nonzero!($spol)) ),+];

            /// Fold another shard's statistics into this one: every
            /// row is summed, the per-endpoint counters merge, and the
            /// watermark rows add element-wise. Each simulated event
            /// happens on exactly one shard (non-owning shards count
            /// zero), so the sum over all shards equals what one
            /// unpartitioned engine would have counted.
            pub fn absorb(&mut self, o: &Stats) {
                $( self.$s += o.$s; )+
                if self.ring_high_watermarks.is_empty() {
                    self.ring_high_watermarks = o.ring_high_watermarks.clone();
                } else {
                    let rows = self.ring_high_watermarks.iter_mut();
                    for (row, orow) in rows.zip(&o.ring_high_watermarks) {
                        for (w, ow) in row.iter_mut().zip(orow) {
                            *w += ow;
                        }
                    }
                }
                self.counters.merge(&o.counters);
            }

            #[cfg(test)]
            fn rows_mut(&mut self) -> Vec<&mut u64> {
                vec![$( &mut self.$s ),+]
            }
        }

        impl Serialize for Stats {
            fn to_value(&self) -> Value {
                let mut o = Vec::new();
                $( emit_row(&mut o, stringify!($s), self.$s, if_nonzero!($spol)); )+
                if !self.ring_high_watermarks.is_empty() {
                    let w = self.ring_high_watermarks.to_value();
                    o.push(("ring_high_watermarks".to_string(), w));
                }
                o.push(("counters".to_string(), self.counters.to_value()));
                Value::Object(o)
            }
        }
    };
}

impl Counters {
    /// Fraction of receive-copied bytes that the DMA engine moved.
    pub fn offload_fraction(&self) -> f64 {
        let total = self.bytes_memcpy + self.bytes_offloaded;
        if total == 0 {
            return 0.0;
        }
        self.bytes_offloaded as f64 / total as f64
    }

    /// Sum of messages sent across classes.
    pub fn tx_messages(&self) -> u64 {
        self.tx_tiny + self.tx_small + self.tx_medium + self.tx_large + self.shm_tx
    }
}

stat_table! {
    Counters {
        /// Tiny messages sent.
        tx_tiny: always,
        /// Small messages sent.
        tx_small: always,
        /// Medium messages sent.
        tx_medium: always,
        /// Medium fragments sent.
        tx_medium_frags: always,
        /// Large (rendezvous) messages sent.
        tx_large: always,
        /// Large fragments sent (pull replies).
        tx_large_frags: always,
        /// Payload bytes sent.
        tx_bytes: always,
        /// Tiny messages received.
        rx_tiny: always,
        /// Small messages received.
        rx_small: always,
        /// Medium fragments received.
        rx_medium_frags: always,
        /// Large fragments received.
        rx_large_frags: always,
        /// Rendezvous announcements received.
        rx_rndv: always,
        /// Payload bytes delivered to the application.
        rx_bytes: always,
        /// Receive copies done by the CPU (memcpy path).
        copies_memcpy: always,
        /// Receive copies submitted to the I/OAT engine.
        copies_offloaded: always,
        /// Copies that fell back from the I/OAT engine to the CPU — either
        /// steered away from a quarantined channel at submit time or
        /// rescued after a stuck channel tripped the completion-poll
        /// deadline.
        copies_fallback: always,
        /// Bytes copied by memcpy.
        bytes_memcpy: always,
        /// Bytes copied by the DMA engine.
        bytes_offloaded: always,
        /// Shared-memory (local) messages sent.
        shm_tx: always,
        /// Shared-memory one-copy transfers performed as the receiver.
        shm_pulls: always,
        /// Events pushed to this endpoint's ring.
        events: always,
        /// Messages that arrived with no matching receive posted.
        unexpected: always,
        /// Registration-cache hits.
        regcache_hits: always,
        /// Full registrations (cache misses).
        regcache_misses: always,
    }
    Stats {
        /// Frames handed to links.
        frames_sent: always,
        /// Frames dropped by loss injection.
        frames_lost: always,
        /// Frames dropped by RX-ring overflow.
        frames_ring_dropped: always,
        /// Frames discarded by the NIC's hardware FCS check (corruption
        /// injection) — counted apart from ring drops so wire damage and
        /// host overload are distinguishable.
        frames_corrupt_dropped: always,
        /// Frames delivered twice by duplication injection.
        frames_duplicated: always,
        /// Frames held back (reordered) by reordering injection.
        frames_reordered: always,
        /// Eager message retransmissions.
        retransmissions: always,
        /// Pull-request retransmissions.
        pull_retransmissions: always,
        /// Acks sent.
        acks_sent: always,
        /// Duplicate frames suppressed.
        duplicates_dropped: always,
        /// Messages fully delivered to applications.
        messages_delivered: always,
        /// Payload bytes delivered to applications.
        bytes_delivered: always,
        /// Sends aborted after exhausting their retransmission attempts.
        sends_failed: always,
        /// Offloaded copies rescued onto the CPU after a stuck channel was
        /// detected, plus offloads steered to memcpy because the chosen
        /// channel was quarantined.
        ioat_fallback_copies: always,
        /// I/OAT channels newly blacklisted after a completion-poll
        /// deadline fired.
        ioat_quarantines: always,
        /// Quarantined channels given another chance after their cool-down
        /// expired.
        ioat_reprobes: always,
        /// Retransmission-timeout escalations (exponential backoff steps).
        backoff_escalations: always,
        /// Of [`Stats::frames_ring_dropped`], those that happened on a
        /// node whose fault plan shrank the RX ring (the `ring-pressure`
        /// hazard). Drops on nodes with an unmodified ring are genuine
        /// receiver overload — the signal the incast suite is after —
        /// while this count is the injected hazard; sharing one counter
        /// made the two indistinguishable in results.
        frames_ring_dropped_injected: if_nonzero,
        /// Credit-revoke NACKs sent by overloaded receivers
        /// (`cfg.pull_credits` only; see `driver/pull.rs`).
        credit_nacks: if_nonzero,
        /// Multiplicative budget decreases taken by the credit controller.
        credit_shrinks: if_nonzero,
        /// Additive budget regrowth steps taken by the credit controller.
        credit_regrows: if_nonzero,
        /// Times a pull had to wait in the grant queue because the shared
        /// credit budget was exhausted.
        credit_stalls: if_nonzero,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_fraction_handles_empty_and_mixed() {
        let mut c = Counters::default();
        assert_eq!(c.offload_fraction(), 0.0);
        c.bytes_memcpy = 1 << 20;
        c.bytes_offloaded = 3 << 20;
        assert!((c.offload_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tx_messages_sums_classes() {
        let c = Counters {
            tx_tiny: 1,
            tx_small: 2,
            tx_medium: 3,
            tx_large: 4,
            shm_tx: 5,
            ..Counters::default()
        };
        assert_eq!(c.tx_messages(), 15);
    }

    fn keys(v: &Value) -> Vec<String> {
        let Value::Object(o) = v else {
            panic!("not an object: {v:?}");
        };
        o.iter().map(|(k, _)| k.clone()).collect()
    }

    fn names(rows: &[(&str, bool)], keep: impl Fn(bool) -> bool) -> Vec<String> {
        rows.iter()
            .filter(|(_, nz)| keep(*nz))
            .map(|(n, _)| n.to_string())
            .collect()
    }

    #[test]
    fn every_table_row_reaches_every_generated_view() {
        // Every row set to a distinct nonzero value: a row dropped from
        // the setter, `merge`/`absorb`, `publish` or a serializer shows
        // up as a missing key, a missing gauge or a wrong sum.
        let mut c = Counters::default();
        for (i, r) in c.rows_mut().into_iter().enumerate() {
            *r = i as u64 + 1;
        }
        let mut doubled = c;
        doubled.merge(&c);
        assert_eq!(keys(&c.to_value()), names(Counters::ROWS, |_| true));
        let metrics = Metrics::new();
        doubled.publish(&metrics, 3);
        let snap = metrics.snapshot();
        let gauges: Vec<(&String, &i64)> = snap.gauges.iter().collect();
        assert_eq!(gauges.len(), Counters::ROWS.len(), "{gauges:?}");
        for (i, (name, _)) in Counters::ROWS.iter().enumerate() {
            let key = format!("s3.counters.{name}");
            assert_eq!(snap.gauges.get(&key), Some(&(2 * (i as i64 + 1))), "{key}");
        }

        let mut ones = Stats::default();
        for r in ones.rows_mut() {
            *r = 1;
        }
        ones.counters = c;
        let mut all = names(Stats::ROWS, |_| true);
        all.push("counters".to_string());
        assert_eq!(keys(&ones.to_value()), all);
        let mut always = names(Stats::ROWS, |nz| !nz);
        always.push("counters".to_string());
        assert_eq!(keys(&Stats::default().to_value()), always);
        assert!(
            always.len() < all.len(),
            "the table has if_nonzero rows to omit"
        );

        let mut sum = Stats::default();
        sum.absorb(&ones);
        sum.absorb(&ones);
        assert!(sum.rows_mut().into_iter().all(|r| *r == 2));
        assert_eq!(sum.counters, doubled);
    }
}
