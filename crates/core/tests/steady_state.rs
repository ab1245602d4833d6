//! A receiver's memory does not grow with the stream: once its store has
//! reached steady state, ten times more messages cost no more live heap;
//! its first message from a source costs a pinned, exact-sized amount;
//! and a full-membership receiver shares the group's member list instead
//! of building on a copy of it.
//!
//! The binary counts live heap bytes with its own global allocator, per
//! thread, so each test reads only what its own thread allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use rrmp_core::policy::PolicyKind;
use rrmp_core::prelude::{Action, DataPacket, Event, Packet, ProtocolConfig, Receiver, TimerKind};
use rrmp_core::prelude::{MessageId, SeqNo};
use rrmp_membership::view::{HierarchyView, RegionView};
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{NodeId, RegionId};

thread_local! {
    /// This thread's live heap bytes: allocated minus freed (wrapping, as
    /// a block may be freed on another thread than allocated it).
    static LIVE: Cell<usize> = const { Cell::new(0) };
}

/// Adds `add` and subtracts `sub` on this thread's counter. A `const`
/// thread-local of a `Cell` needs no allocation and no destructor, so the
/// allocator may touch it at any time.
fn count(add: usize, sub: usize) {
    LIVE.with(|l| l.set(l.get().wrapping_add(add).wrapping_sub(sub)));
}

fn live() -> usize {
    LIVE.with(Cell::get)
}

/// `System`, counting live bytes in [`LIVE`].
struct Counting;

// SAFETY: every method forwards its caller's arguments unchanged to
// `System` and returns what `System` returned; the counter never touches
// the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(0, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size, layout.size());
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Queues the timers `actions` arm at `now`; drops every other action.
fn arm(timers: &mut Vec<(SimTime, TimerKind)>, actions: &mut Vec<Action>, now: SimTime) {
    for action in actions.drain(..) {
        if let Action::SetTimer { delay, kind } = action {
            timers.push((now + delay, kind));
        }
    }
}

#[test]
fn live_heap_is_flat_from_ten_thousand_to_a_hundred_thousand_messages() {
    // A 20-member region, so the C/n draw both keeps and discards; short
    // long-term retention, so the store is at steady state within a second.
    let cfg = ProtocolConfig {
        long_term_timeout: SimDuration::from_millis(200),
        long_term_sweep_interval: SimDuration::from_millis(100),
        ..ProtocolConfig::paper_defaults()
    };
    let own = RegionView::new(RegionId(0), (0..20).map(NodeId));
    let mut r = Receiver::new(NodeId(1), HierarchyView::new(own, None), cfg, 7);
    let source = NodeId(0);

    let (mut timers, mut actions) = (Vec::new(), r.on_start());
    arm(&mut timers, &mut actions, SimTime::ZERO);
    let mut live_at = Vec::new();
    // One in-order message per millisecond; checkpoints at 10 s and 100 s
    // are both on the 100 ms sweep grid, so the store is in the same phase.
    for seq in 1..=100_000u64 {
        let now = SimTime::from_millis(seq);
        // Fire every timer due by `now`, earliest first.
        while let Some(i) =
            (0..timers.len()).filter(|&i| timers[i].0 <= now).min_by_key(|&i| timers[i].0)
        {
            let (at, kind) = timers.swap_remove(i);
            r.handle_into(Event::Timer(kind), at, &mut actions);
            arm(&mut timers, &mut actions, at);
        }
        let id = MessageId::new(source, SeqNo(seq));
        let data = Packet::Data(DataPacket::new(id, Bytes::from(vec![0u8; 64])));
        r.handle_into(Event::Packet { from: source, packet: data }, now, &mut actions);
        arm(&mut timers, &mut actions, now);
        if seq == 10_000 || seq == 100_000 {
            live_at.push(live());
        }
    }
    assert_eq!(r.metrics().counters.delivered, 100_000);
    assert!(r.metrics().counters.long_term_kept > 0 && r.metrics().counters.discarded_at_idle > 0);
    let growth = live_at[1].wrapping_sub(live_at[0]) as isize;
    assert!(
        growth <= 4096,
        "live heap grew {growth} B from 10^4 to 10^5 messages ({} → {} B)",
        live_at[0],
        live_at[1]
    );
}

/// Live heap a two-phase receiver gains from its first `Data` from one
/// source, in bytes.
const FIRST_SOURCE_HEAP: isize = 320;

#[test]
fn first_message_from_a_source_costs_a_pinned_heap() {
    let own = RegionView::new(RegionId(0), (0..20).map(NodeId));
    let cfg = ProtocolConfig::paper_defaults();
    let mut r = Receiver::new(NodeId(1), HierarchyView::new(own, None), cfg, 7);
    let mut actions = r.on_start();
    actions.clear();
    let source = NodeId(0);
    let id = MessageId::new(source, SeqNo(1));
    let data = Packet::Data(DataPacket::new(id, Bytes::from(vec![0u8; 64])));
    let before = live();
    r.handle_into(
        Event::Packet { from: source, packet: data },
        SimTime::from_millis(1),
        &mut actions,
    );
    actions.clear();
    let cost = live().wrapping_sub(before) as isize;
    assert_eq!(r.metrics().counters.delivered, 1);
    // One exact-sized slot in each per-source table: the loss detector's
    // source state and its first range, the store's entry, and the
    // buffer-phase record.
    assert_eq!(cost, FIRST_SOURCE_HEAP, "first message from a source costs {cost} B of heap");
}

/// Live heap one receiver's construction leaves behind in an `n`-member
/// group, the member list and the view built beforehand.
fn build_heap(policy: PolicyKind, n: u32) -> usize {
    let members: Arc<[NodeId]> = (0..n).map(NodeId).collect();
    let view = HierarchyView::new(RegionView::new(RegionId(0), (0..n).map(NodeId)), None);
    let cfg = Arc::new(ProtocolConfig { policy, ..ProtocolConfig::paper_defaults() });
    let before = live();
    let r = Receiver::with_members(NodeId(1), view, cfg, 7, &members);
    let heap = live().wrapping_sub(before);
    drop(r);
    heap
}

#[test]
fn full_membership_receivers_share_the_member_list() {
    // Hash placement and stability detection need the whole group. A
    // receiver that copied the list (or indexed it through a hash map)
    // would grow by ≥ 4 B per member; sharing it, a hash receiver grows
    // by nothing and a stability receiver by its one-bit-per-peer heard
    // set.
    for policy in [PolicyKind::HashBufferers, PolicyKind::Stability] {
        let (small, large) = (build_heap(policy, 500), build_heap(policy, 2_000));
        let grown = large.wrapping_sub(small) as isize;
        assert!(
            grown <= 1_500 / 8 + 8,
            "{}: a receiver's build heap grew {grown} B from 500 to 2,000 members \
             ({small} → {large} B)",
            policy.name()
        );
    }
}
