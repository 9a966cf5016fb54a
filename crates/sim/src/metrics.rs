//! Per-component observability: a metrics registry and an optional
//! structured event trace.
//!
//! The registry holds three families of instruments, all keyed by a
//! `(scope, name)` pair where `scope` is a small integer chosen by the
//! embedder (this workspace uses the node id) and `name` is a static
//! dotted path like `"ioat.channel"`:
//!
//! * **counters** — monotonic `u64` totals (frames, bytes, drops),
//! * **gauges** — last-value and high-watermark `i64`s (queue depths),
//! * **busy integrals** — accumulated [`Ps`] of resource occupancy
//!   (wire serialization, DMA channel busy, memcpy time).
//!
//! A [`Metrics`] value is a cheap handle: clones share one registry.
//! The disabled handle ([`Metrics::disabled`]) is an `Option::None`
//! inside, so every recording call is a branch-and-return — near-zero
//! overhead. Crucially, recording **never charges simulated time**:
//! enabling or disabling observability cannot change any simulation
//! result, only what is reported about it.
//!
//! Storage is dense, because every simulated frame records a dozen
//! times. The first time a name is recorded it is interned: it gets
//! a dense id, and each scope keeps one flat row of slots indexed by
//! that id (the rows themselves are indexed by scope, hence small
//! scopes). A slot holds the name's counter, gauge and busy integral,
//! each `None` until first recorded, so a snapshot lists exactly the
//! keys that were recorded. The `&'static str` → id lookup
//! is memoised by the string's address and length in a small
//! open-addressed table, and falls back to the string's content the
//! first time an address is seen. Equal names from different crates
//! (different addresses) therefore share one id, and the recording
//! path never compares strings. Keying by address is sound because
//! `'static` memory is never freed or reused.
//!
//! The optional trace is a bounded ring of [`TraceEvent`] records
//! (oldest evicted first). It is off by default and sized explicitly
//! via [`Metrics::with_trace`].

use crate::time::Ps;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// The instruments of one `(scope, name)` pair. Each family is `None`
/// until first recorded.
#[derive(Debug, Default, Clone, Copy)]
struct Slot {
    counter: Option<u64>,
    gauge: Option<i64>,
    busy: Option<Ps>,
}

/// One entry of the address memo: a name's address and length, and
/// its id. `addr == 0` marks a free entry (no `&str` is null).
#[derive(Debug, Default, Clone, Copy)]
struct Memo {
    addr: usize,
    len: usize,
    id: u32,
}

/// The interned name table.
#[derive(Debug, Default)]
struct Names {
    /// Id → name, in first-recorded order.
    list: Vec<&'static str>,
    /// Content → id; consulted once per new address, and by readers.
    by_content: BTreeMap<&'static str, u32>,
    /// Open-addressed `(address, length)` → id memo with linear
    /// probing: a power of two long and at most half full.
    memo: Vec<Memo>,
    memo_used: usize,
}

impl Names {
    /// First probe position of `(addr, len)`.
    #[inline]
    fn memo_home(&self, addr: usize, len: usize) -> usize {
        let h = (addr as u64 ^ (len as u64).rotate_left(40)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.memo.len().wrapping_sub(1)
    }

    /// The id of `name` through the address memo alone.
    #[inline]
    fn memo_lookup(&self, name: &'static str) -> Option<u32> {
        let (addr, len) = (name.as_ptr() as usize, name.len());
        let mask = self.memo.len().wrapping_sub(1);
        let mut i = self.memo_home(addr, len);
        loop {
            let m = self.memo.get(i)?;
            if m.addr == addr && m.len == len {
                return Some(m.id);
            }
            if m.addr == 0 {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of `name`, interning it on first use.
    #[inline]
    fn metric_id(&mut self, name: &'static str) -> u32 {
        match self.memo_lookup(name) {
            Some(id) => id,
            None => self.intern(name),
        }
    }

    /// The id of `name` if it was ever recorded (readers never intern).
    fn recorded_id(&self, name: &str) -> Option<usize> {
        self.by_content.get(name).map(|&id| id as usize)
    }

    /// Slow path of [`Self::metric_id`]: a new address. Its content
    /// may already have an id (the same name from another crate).
    #[cold]
    fn intern(&mut self, name: &'static str) -> u32 {
        let next = self.list.len() as u32;
        let id = *self.by_content.entry(name).or_insert(next);
        if id == next {
            self.list.push(name);
        }
        if (self.memo_used + 1) * 2 > self.memo.len() {
            let old = std::mem::take(&mut self.memo);
            self.memo = vec![Memo::default(); (old.len() * 2).max(64)];
            self.memo_used = 0;
            for m in old.into_iter().filter(|m| m.addr != 0) {
                self.memo_insert(m);
            }
        }
        self.memo_insert(Memo {
            addr: name.as_ptr() as usize,
            len: name.len(),
            id,
        });
        id
    }

    fn memo_insert(&mut self, m: Memo) {
        let mask = self.memo.len() - 1;
        let mut i = self.memo_home(m.addr, m.len);
        while self.memo[i].addr != 0 {
            i = (i + 1) & mask;
        }
        self.memo[i] = m;
        self.memo_used += 1;
    }
}

#[derive(Debug, Default)]
struct Inner {
    names: Names,
    /// Scope → row of slots indexed by name id. Rows grow on demand.
    rows: Vec<Vec<Slot>>,
    trace: Option<TraceRing>,
}

impl Inner {
    /// The slot of `(scope, name)`, created on first use. Always
    /// `Some`; the `Option` keeps the recording path free of panics.
    #[inline]
    fn metric_slot(&mut self, scope: u32, name: &'static str) -> Option<&mut Slot> {
        let id = self.names.metric_id(name) as usize;
        let scope = scope as usize;
        if self.rows.get(scope).is_none_or(|row| row.len() <= id) {
            self.grow_rows(scope, id);
        }
        self.rows.get_mut(scope)?.get_mut(id)
    }

    /// Grow the rows so `(scope, id)` exists; a grown row covers every
    /// name interned so far, so it rarely grows twice.
    #[cold]
    fn grow_rows(&mut self, scope: usize, id: usize) {
        if self.rows.len() <= scope {
            self.rows.resize_with(scope + 1, Vec::default);
        }
        let want = self.names.list.len().max(id + 1);
        self.rows[scope].resize(want, Slot::default());
    }

    /// The recorded slot of `(scope, name)`, if any.
    fn recorded(&self, scope: u32, name: &str) -> Option<&Slot> {
        let id = self.names.recorded_id(name)?;
        self.rows.get(scope as usize)?.get(id)
    }

    /// Every scope's slot of `name`.
    fn all_scopes<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a Slot> + 'a {
        let id = self.names.recorded_id(name);
        self.rows
            .iter()
            .filter_map(move |row| id.and_then(|id| row.get(id)))
    }
}

#[derive(Debug)]
struct TraceRing {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// One structured trace record: something `component` did at `at`,
/// with two free-form operands (byte counts, handles, sizes — the
/// `what` string documents their meaning).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub at: Ps,
    /// Scope (node id) the event belongs to.
    pub scope: u32,
    /// Component path, e.g. `"driver.bh"`.
    pub component: &'static str,
    /// Event kind, e.g. `"rx_frag"`.
    pub what: &'static str,
    /// First operand (meaning depends on `what`).
    pub a: u64,
    /// Second operand (meaning depends on `what`).
    pub b: u64,
}

/// A serializable point-in-time view of the registry. Keys are
/// rendered as `"s<scope>.<name>"`; busy integrals are reported in
/// nanoseconds.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (last value or high watermark).
    pub gauges: BTreeMap<String, i64>,
    /// Busy-time integrals in nanoseconds.
    pub busy_ns: BTreeMap<String, f64>,
    /// Trace events evicted from the ring because it was full.
    pub trace_dropped: u64,
}

/// Shared handle to a metrics registry (see module docs).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl Metrics {
    /// An enabled registry without an event trace.
    pub fn new() -> Metrics {
        Metrics {
            inner: Some(Rc::new(RefCell::new(Inner::default()))),
        }
    }

    /// An enabled registry with a trace ring of `capacity` events.
    pub fn with_trace(capacity: usize) -> Metrics {
        let m = Metrics::new();
        if capacity > 0 {
            m.inner.as_ref().unwrap().borrow_mut().trace = Some(TraceRing {
                capacity,
                events: VecDeque::with_capacity(capacity.min(4096)),
                dropped: 0,
            });
        }
        m
    }

    /// The no-op handle: every recording call returns immediately.
    pub fn disabled() -> Metrics {
        Metrics { inner: None }
    }

    /// Whether recording is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether an event trace ring is attached.
    pub fn trace_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .map(|i| i.borrow().trace.is_some())
            .unwrap_or(false)
    }

    /// Add `delta` to the counter `(scope, name)`.
    #[inline]
    pub fn count(&self, scope: u32, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            if let Some(slot) = inner.borrow_mut().metric_slot(scope, name) {
                *slot.counter.get_or_insert(0) += delta;
            }
        }
    }

    /// Set the gauge `(scope, name)` to `value`.
    #[inline]
    pub fn gauge_set(&self, scope: u32, name: &'static str, value: i64) {
        if let Some(inner) = &self.inner {
            if let Some(slot) = inner.borrow_mut().metric_slot(scope, name) {
                slot.gauge = Some(value);
            }
        }
    }

    /// Raise the gauge `(scope, name)` to `value` if it is higher than
    /// the stored value (high-watermark semantics).
    #[inline]
    pub fn gauge_max(&self, scope: u32, name: &'static str, value: i64) {
        if let Some(inner) = &self.inner {
            if let Some(slot) = inner.borrow_mut().metric_slot(scope, name) {
                slot.gauge = Some(slot.gauge.map_or(value, |g| g.max(value)));
            }
        }
    }

    /// Accumulate `service` into the busy integral `(scope, name)`.
    #[inline]
    pub fn busy(&self, scope: u32, name: &'static str, service: Ps) {
        if let Some(inner) = &self.inner {
            if let Some(slot) = inner.borrow_mut().metric_slot(scope, name) {
                *slot.busy.get_or_insert(Ps::ZERO) += service;
            }
        }
    }

    /// Append a trace event (dropped silently when no ring is attached;
    /// evicts the oldest event when the ring is full).
    #[inline]
    pub fn trace(
        &self,
        at: Ps,
        scope: u32,
        component: &'static str,
        what: &'static str,
        a: u64,
        b: u64,
    ) {
        if let Some(inner) = &self.inner {
            if let Some(ring) = inner.borrow_mut().trace.as_mut() {
                if ring.events.len() >= ring.capacity {
                    ring.events.pop_front();
                    ring.dropped += 1;
                }
                ring.events.push_back(TraceEvent {
                    at,
                    scope,
                    component,
                    what,
                    a,
                    b,
                });
            }
        }
    }

    /// Read a counter (0 when absent or disabled).
    pub fn counter(&self, scope: u32, name: &'static str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| i.borrow().recorded(scope, name)?.counter)
            .unwrap_or(0)
    }

    /// Read a gauge.
    pub fn gauge(&self, scope: u32, name: &'static str) -> Option<i64> {
        self.inner
            .as_ref()
            .and_then(|i| i.borrow().recorded(scope, name)?.gauge)
    }

    /// Read a busy integral (zero when absent or disabled).
    pub fn busy_total(&self, scope: u32, name: &'static str) -> Ps {
        self.inner
            .as_ref()
            .and_then(|i| i.borrow().recorded(scope, name)?.busy)
            .unwrap_or(Ps::ZERO)
    }

    /// Sum of a busy integral across all scopes.
    pub fn busy_total_all_scopes(&self, name: &'static str) -> Ps {
        match &self.inner {
            None => Ps::ZERO,
            Some(i) => i
                .borrow()
                .all_scopes(name)
                .filter_map(|slot| slot.busy)
                .fold(Ps::ZERO, |acc, t| acc + t),
        }
    }

    /// Sum of a counter across all scopes.
    pub fn counter_all_scopes(&self, name: &'static str) -> u64 {
        match &self.inner {
            None => 0,
            Some(i) => i
                .borrow()
                .all_scopes(name)
                .filter_map(|slot| slot.counter)
                .sum(),
        }
    }

    /// A serializable snapshot of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            busy_ns: BTreeMap::new(),
            trace_dropped: 0,
        };
        if let Some(inner) = &self.inner {
            let inner = inner.borrow();
            for (scope, row) in inner.rows.iter().enumerate() {
                for (slot, name) in row.iter().zip(&inner.names.list) {
                    let key = || format!("s{scope}.{name}");
                    if let Some(v) = slot.counter {
                        snap.counters.insert(key(), v);
                    }
                    if let Some(v) = slot.gauge {
                        snap.gauges.insert(key(), v);
                    }
                    if let Some(v) = slot.busy {
                        snap.busy_ns.insert(key(), v.as_ps() as f64 / 1e3);
                    }
                }
            }
            if let Some(ring) = &inner.trace {
                snap.trace_dropped = ring.dropped;
            }
        }
        snap
    }

    /// The traced events currently in the ring, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .and_then(|i| {
                i.borrow()
                    .trace
                    .as_ref()
                    .map(|r| r.events.iter().cloned().collect())
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        m.count(0, "x", 5);
        m.busy(0, "x", Ps::ns(100));
        m.gauge_max(0, "x", 9);
        m.trace(Ps::ZERO, 0, "c", "w", 1, 2);
        assert!(!m.is_enabled());
        assert_eq!(m.counter(0, "x"), 0);
        assert_eq!(m.busy_total(0, "x"), Ps::ZERO);
        assert!(m.snapshot().counters.is_empty());
        assert!(m.trace_events().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let m = Metrics::new();
        let m2 = m.clone();
        m.count(1, "frames", 2);
        m2.count(1, "frames", 3);
        m2.busy(1, "wire", Ps::ns(40));
        m.busy(2, "wire", Ps::ns(60));
        assert_eq!(m.counter(1, "frames"), 5);
        assert_eq!(m.busy_total_all_scopes("wire"), Ps::ns(100));
        assert_eq!(m.counter_all_scopes("frames"), 5);
    }

    #[test]
    fn gauges_track_watermarks() {
        let m = Metrics::new();
        m.gauge_max(0, "depth", 3);
        m.gauge_max(0, "depth", 1);
        assert_eq!(m.gauge(0, "depth"), Some(3));
        m.gauge_set(0, "depth", 1);
        assert_eq!(m.gauge(0, "depth"), Some(1));
    }

    #[test]
    fn trace_ring_is_bounded() {
        let m = Metrics::with_trace(2);
        assert!(m.trace_enabled());
        for i in 0..5u64 {
            m.trace(Ps::ns(i), 0, "c", "tick", i, 0);
        }
        let ev = m.trace_events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].a, 3);
        assert_eq!(ev[1].a, 4);
        assert_eq!(m.snapshot().trace_dropped, 3);
    }

    #[test]
    fn snapshot_renders_scoped_keys() {
        let m = Metrics::new();
        m.count(0, "nic.frames", 7);
        m.busy(1, "ioat.channel", Ps::us(3));
        let s = m.snapshot();
        assert_eq!(s.counters["s0.nic.frames"], 7);
        assert!((s.busy_ns["s1.ioat.channel"] - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn equal_names_at_different_addresses_share_one_entry() {
        let m = Metrics::new();
        let a: &'static str = Box::leak(String::from("nic.frames").into_boxed_str());
        let b: &'static str = Box::leak(String::from("nic.frames").into_boxed_str());
        assert_ne!(a.as_ptr(), b.as_ptr(), "two distinct allocations");
        m.count(0, a, 2);
        m.count(0, b, 3);
        m.count(0, "nic.frames", 4);
        m.busy(1, b, Ps::ns(5));
        m.busy(1, a, Ps::ns(6));
        assert_eq!(m.counter(0, "nic.frames"), 9);
        assert_eq!(m.counter(0, a), 9);
        assert_eq!(m.busy_total(1, "nic.frames"), Ps::ns(11));
        let s = m.snapshot();
        assert_eq!(s.counters.len(), 1);
        assert_eq!(s.busy_ns.len(), 1);
    }

    #[test]
    fn snapshot_lists_exactly_the_recorded_keys() {
        let m = Metrics::new();
        m.count(2, "zero", 0);
        m.gauge_max(2, "depth", -5);
        // Recording at scope 2 grows rows 0 and 1 and interns names
        // they never recorded: none of that may show.
        m.count(0, "other", 1);
        let s = m.snapshot();
        assert_eq!(
            s.counters.keys().collect::<Vec<_>>(),
            ["s0.other", "s2.zero"]
        );
        assert_eq!(s.counters["s2.zero"], 0);
        assert_eq!(s.gauges.keys().collect::<Vec<_>>(), ["s2.depth"]);
        assert_eq!(
            s.gauges["s2.depth"], -5,
            "a first gauge_max stores its value"
        );
        assert!(s.busy_ns.is_empty());
        assert_eq!(m.gauge(1, "depth"), None);
        assert_eq!(m.gauge(2, "zero"), None);
        assert_eq!(m.counter(7, "zero"), 0);
    }

    #[test]
    fn all_scope_readers_sum_across_scopes() {
        let m = Metrics::new();
        for scope in 0..40u32 {
            m.count(scope, "frames", u64::from(scope));
            m.busy(scope, "wire", Ps::ns(u64::from(scope) * 10));
            m.count(scope, "noise", 1000);
        }
        assert_eq!(m.counter_all_scopes("frames"), (0..40).sum::<u64>());
        assert_eq!(
            m.busy_total_all_scopes("wire"),
            Ps::ns((0..40).map(|s| s * 10).sum())
        );
        assert_eq!(m.counter_all_scopes("absent"), 0);
        assert_eq!(m.busy_total_all_scopes("frames"), Ps::ZERO);
    }

    #[test]
    fn meter_and_direct_busy_share_one_integral() {
        let m = Metrics::new();
        let mut server = crate::FifoServer::new();
        server.attach_meter(m.clone(), 4, "ioat.channel");
        server.admit(Ps::ZERO, Ps::ns(30));
        m.busy(4, "ioat.channel", Ps::ns(12));
        server.admit(Ps::ZERO, Ps::ns(8));
        assert_eq!(m.busy_total(4, "ioat.channel"), Ps::ns(50));
        assert_eq!(m.counter(4, "ioat.channel"), 2, "one job count per admit");
        assert_eq!(m.snapshot().busy_ns.len(), 1);
    }

    #[test]
    fn many_names_survive_memo_growth() {
        let m = Metrics::new();
        let names: Vec<&'static str> = (0..300)
            .map(|i| &*Box::leak(format!("n{i}").into_boxed_str()))
            .collect();
        for (i, name) in names.iter().enumerate() {
            m.count(1, name, i as u64);
        }
        for (i, name) in names.iter().enumerate() {
            m.count(1, name, 1);
            assert_eq!(m.counter(1, name), i as u64 + 1);
        }
        assert_eq!(m.snapshot().counters.len(), 300);
    }
}
