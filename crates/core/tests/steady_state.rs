//! A receiver's memory does not grow with the stream: once its store has
//! reached steady state, ten times more messages cost no more live heap.
//!
//! The binary counts live heap bytes with its own global allocator, so it
//! holds exactly one test: another test running on a second thread would
//! allocate into the same counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bytes::Bytes;
use rrmp_core::prelude::{Action, DataPacket, Event, Packet, ProtocolConfig, Receiver, TimerKind};
use rrmp_core::prelude::{MessageId, SeqNo};
use rrmp_membership::view::{HierarchyView, RegionView};
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{NodeId, RegionId};

/// Live heap bytes: allocated minus freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting live bytes in [`LIVE`] (a statistic: `Relaxed`).
struct Counting;

// SAFETY: every method forwards its caller's arguments unchanged to
// `System` and returns what `System` returned; the counter never touches
// the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
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
    let cfg = ProtocolConfig::builder()
        .long_term_timeout(SimDuration::from_millis(200))
        .long_term_sweep_interval(SimDuration::from_millis(100))
        .build()
        .expect("valid config");
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
            live_at.push(LIVE.load(Relaxed));
        }
    }
    assert_eq!(r.metrics().counters.delivered, 100_000);
    assert!(r.metrics().counters.long_term_kept > 0 && r.metrics().counters.discarded_at_idle > 0);
    let growth = live_at[1].saturating_sub(live_at[0]);
    assert!(
        growth <= 4096,
        "live heap grew {growth} B from 10^4 to 10^5 messages ({} → {} B)",
        live_at[0],
        live_at[1]
    );
}
