//! Allocation regression test for the admit path.
//!
//! A flow handle names its route by id in the generation's routing
//! table, so admitting a flow and dropping its handle must not touch
//! the heap once the thread's caches are warm. The counting global
//! allocator below counts allocations made by threads that armed it,
//! so the other tests of this binary (and the harness) cannot leak
//! into the measurement.
//!
//! The only `unsafe` here is the `GlobalAlloc` impl, which forwards to
//! the system allocator unchanged (listed in
//! `crates/xtask/unsafe-allowlist.txt`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use uba_admission::{AdmissionController, FlowHandle, Reject, RoutingTable};
use uba_graph::{Digraph, NodeId, Path};
use uba_traffic::{ClassId, ClassSet, TrafficClass};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` and `Drop`-free: reading it never allocates, so the
    // allocator can consult it without recursing.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments to `System` unchanged;
// the only addition is a counter bump that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// 0 -> 1 -> 2 with a route (0, 2) and a route (1, 2).
fn controller(metered: bool) -> AdmissionController {
    let mut g = Digraph::with_nodes(3);
    let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
    let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
    let mut table = RoutingTable::with_nodes(3);
    table.insert(ClassId(0), &Path::from_edges(&g, vec![e01, e12]));
    table.insert(ClassId(0), &Path::from_edges(&g, vec![e12]));
    let classes = ClassSet::single(TrafficClass::voip());
    let caps = vec![1e6; g.edge_count()];
    // alpha 0.32 on 1 Mb/s: ten voip flows per link.
    if metered {
        AdmissionController::new(table, &classes, &caps, &[0.32])
    } else {
        AdmissionController::new_unmetered(table, &classes, &caps, &[0.32])
    }
}

/// One round of decisions: an admit whose handle drops at once, ten
/// held admits that fill the shared link, a link-full reject, and a
/// no-route reject. The held handles live in a caller-owned buffer
/// whose capacity was reserved before measuring.
fn round(ctrl: &AdmissionController, held: &mut Vec<FlowHandle>) {
    drop(ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap());
    for _ in 0..10 {
        held.push(ctrl.try_admit(ClassId(0), NodeId(1), NodeId(2)).unwrap());
    }
    assert!(matches!(
        ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)),
        Err(Reject::LinkFull { .. })
    ));
    assert_eq!(
        ctrl.try_admit(ClassId(0), NodeId(2), NodeId(0)).err(),
        Some(Reject::NoRoute)
    );
    held.clear();
}

#[test]
fn admit_and_release_allocate_nothing_after_warm_up() {
    for metered in [false, true] {
        let ctrl = controller(metered);
        let mut held = Vec::with_capacity(16);
        // Warm-up: fills the thread's generation cache and metric
        // buffer, and runs the buffer through a flush or two.
        for _ in 0..200 {
            round(&ctrl, &mut held);
        }
        // Enough rounds for several metric-buffer flushes and latency
        // samples inside the measured window.
        let n = allocations_in(|| {
            for _ in 0..2_000 {
                round(&ctrl, &mut held);
            }
        });
        assert_eq!(n, 0, "admit path allocated {n} times (metered: {metered})");
        ctrl.flush_metrics();
        assert_eq!(ctrl.current_generation().pinned(), 0);
    }
}

#[test]
fn handle_dropped_on_another_thread_unpins() {
    let ctrl = controller(true);
    let handles: Vec<FlowHandle> = (0..5)
        .map(|_| ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap())
        .collect();
    let generation = ctrl.current_generation();
    assert_eq!(generation.pinned(), 5);
    std::thread::spawn(move || drop(handles)).join().unwrap();
    assert_eq!(generation.pinned(), 0);
    assert_eq!(ctrl.reserved(2, ClassId(0)), 0.0);
}
