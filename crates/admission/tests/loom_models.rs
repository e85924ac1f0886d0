//! Bounded model checks of the admission core's concurrency protocols.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS="--cfg loom"`, where
//! `crate::sync` resolves the admission atomics/locks to `uba-loom`'s
//! modeled primitives and every atomic op becomes an explored schedule
//! point. Run via:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
//!     cargo test -p uba-admission --test loom_models
//! ```
//!
//! The default run is the CI smoke pass: CHESS-style preemption bound of
//! 2 (most interleaving bugs need at most two forced context switches),
//! which keeps the whole file comfortably inside the verify.sh time
//! budget. Building with `--features prop-tests` lifts the bound and
//! explores the full interleaving space of each model.
//!
//! What is being proven (within bounds — see the `uba-loom` crate docs
//! for what the checker does and does not model):
//!
//! 1. The class budget is never exceeded by concurrent reservations, on
//!    both backends, and concurrent release republishes headroom exactly.
//!    On the sharded backend the two-phase reserve-then-borrow protocol
//!    additionally guarantees *no spurious rejects*: whenever aggregate
//!    demand fits the budget, every contender is admitted (PR 5's model
//!    documented the old lock-free borrow failing exactly this).
//! 2. An admit racing a reconfigure lands on exactly one generation —
//!    never lost, never double-counted.
//! 3. A pinned `FlowHandle` always releases against the generation that
//!    admitted it, even when the drop races a reconfigure.
//! 4. The trace ring never tears an event under concurrent publish and
//!    drain.
//! 5. A *batched* admit racing a reconfigure never strands a
//!    reservation: the whole batch lands on one generation and balances
//!    to zero when its handles drop.
//! 6. The policy token bucket never over-grants: concurrent admits
//!    racing each other (and racing the CAS-claimed refill interval)
//!    can never jointly draw more than the burst depth, and a refunded
//!    grab restores the balance exactly.
//! 7. A generation's striped pin count never underflows: a handle
//!    admitted on one thread and dropped on another pins and unpins on
//!    different stripes, and a `drain` racing the drop still reads 0 or
//!    1 — then 0 once the handle is gone.

#![cfg(loom)]

use std::sync::Arc;

use uba_admission::{
    AdmissionBackend, AdmissionController, AtomicBackend, BackendKind, ConfigGeneration, FlowSpec,
    PolicyStage, RoutingTable, ShardedBackend, TokenBucketStage,
};
use uba_graph::{Digraph, NodeId, Path};
use uba_loom::{Builder, Exploration};
use uba_obs::{EventKind, Tracer};
use uba_traffic::{ClassId, ClassSet, TrafficClass};

/// The exploration bounds for this run: exhaustive under
/// `--features prop-tests`, preemption-bounded smoke otherwise.
fn bounds() -> Builder {
    let mut b = Builder::new();
    if cfg!(feature = "prop-tests") {
        b.preemption_bound = None;
        b.max_iterations = 500_000;
    } else {
        b.preemption_bound = Some(2);
    }
    b
}

/// Every model in this file must fully explore its (possibly bounded)
/// schedule space — a truncated search would be a silent coverage hole.
/// The telemetry line (visible under `--nocapture`) is how the
/// DESIGN.md §14 reduction table is collected: run once normally and
/// once with `UBA_LOOM_NO_DPOR=1`.
fn assert_complete(e: Exploration) {
    eprintln!("uba-loom exploration: {e:?}");
    assert!(
        e.complete,
        "exploration truncated by the iteration cap: {e:?}"
    );
    assert!(e.executions() > 1, "model has no concurrency at all");
}

/// Full-DFS bounds (no preemption bound) for the flagship models:
/// DPOR + sleep sets make complete exploration affordable even in the
/// smoke lane, weak-memory read choices included.
fn flagship() -> Builder {
    let mut b = Builder::new();
    b.preemption_bound = None;
    b.max_iterations = 2_000_000;
    b
}

// --- Model 1: budget safety on both backends -------------------------

/// Two concurrent reservations against a budget that fits only one:
/// never may both win, and every loser leaves no residue. `must_admit`
/// additionally requires that *some* flow wins — true for **both**
/// backends now: the atomic backend because the first CAS to execute
/// succeeds, and the sharded one because phase 2's locked sweep rejects
/// only on a no-progress pass over every shard (PR 5's model found the
/// old lock-free borrow double-rejecting here — each thread drained its
/// home shard, saw the neighbor empty, and rolled back; the two-phase
/// protocol makes that schedule impossible).
fn budget_never_admits_two<B, F>(make: F, must_admit: bool)
where
    B: AdmissionBackend + 'static,
    F: Fn() -> B + Send + Sync + 'static,
{
    // Budget 1000 bits/s; each flow wants 600 — one fits, two never do.
    assert_complete(bounds().check(move || {
        let b = Arc::new(make());
        let b2 = Arc::clone(&b);
        let rival = uba_loom::thread::spawn(move || b2.try_reserve_path(&[0], 0, 600.0).is_ok());
        let mine = b.try_reserve_path(&[0], 0, 600.0).is_ok();
        let theirs = rival.join().unwrap();
        assert!(!(mine && theirs), "budget 1000 admitted two flows of 600");
        if must_admit {
            assert!(mine || theirs, "budget 1000 admitted 0 flows of 600");
        }
        let expected = if mine || theirs { 600.0 } else { 0.0 };
        assert_eq!(b.snapshot(0, 0), expected, "loser left residue");
        assert!(b.snapshot(0, 0) <= b.budget(0, 0));
    }));
}

#[test]
fn atomic_backend_budget_admits_exactly_one_of_two() {
    budget_never_admits_two(|| AtomicBackend::new(&[1000.0], &[1.0]), true);
}

#[test]
fn sharded_backend_budget_admits_exactly_one_of_two() {
    budget_never_admits_two(|| ShardedBackend::new(&[1000.0], &[1.0], 2), true);
}

/// The no-spurious-reject guarantee head-on: 300 + 600 against a 1000
/// budget striped 500/500. The old lock-free borrow had schedules where
/// both threads held partial grabs, each saw the rest missing, and both
/// rolled back — rejecting 900 of demand against 1000 of budget. Under
/// the two-phase protocol every schedule admits both.
#[test]
fn sharded_two_phase_admits_all_when_total_headroom_suffices() {
    assert_complete(flagship().check(|| {
        let b = Arc::new(ShardedBackend::new(&[1000.0], &[1.0], 2));
        let b2 = Arc::clone(&b);
        let rival = uba_loom::thread::spawn(move || b2.try_reserve_path(&[0], 0, 600.0).is_ok());
        let mine = b.try_reserve_path(&[0], 0, 300.0).is_ok();
        let theirs = rival.join().unwrap();
        assert!(
            mine && theirs,
            "900 of demand against 1000 of budget must always fully admit \
             (spurious reject: mine={mine} theirs={theirs})"
        );
        assert_eq!(b.snapshot(0, 0), 900.0);
    }));
}

/// Concurrent reserve/release churn: whatever interleaving happens, all
/// successfully reserved headroom is returned exactly — the cell
/// balances to zero and never exceeds its budget in between (the
/// backends' own debug asserts fire inside the model on any overshoot).
fn reserve_release_balances<B, F>(make: F)
where
    B: AdmissionBackend + 'static,
    F: Fn() -> B + Send + Sync + 'static,
{
    assert_complete(bounds().check(move || {
        let b = Arc::new(make());
        let b2 = Arc::clone(&b);
        let peer = uba_loom::thread::spawn(move || {
            if b2.try_reserve_path(&[0], 0, 600.0).is_ok() {
                b2.release_path(&[0], 0, 600.0);
            }
        });
        if b.try_reserve_path(&[0], 0, 600.0).is_ok() {
            b.release_path(&[0], 0, 600.0);
        }
        peer.join().unwrap();
        assert_eq!(b.snapshot(0, 0), 0.0, "released headroom must all return");
    }));
}

#[test]
fn atomic_backend_reserve_release_balances_to_zero() {
    reserve_release_balances(|| AtomicBackend::new(&[1000.0], &[1.0]));
}

#[test]
fn sharded_backend_reserve_release_balances_to_zero() {
    reserve_release_balances(|| ShardedBackend::new(&[1000.0], &[1.0], 2));
}

// --- Models 2 and 3: generation swap integrity -----------------------

/// One link 0 -> 1 with a configured route for class 0.
fn one_link_table() -> RoutingTable {
    let mut g = Digraph::with_nodes(2);
    let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
    let mut table = RoutingTable::new();
    table.insert(ClassId(0), &Path::from_edges(&g, vec![e01]));
    table
}

fn fresh_generation() -> ConfigGeneration {
    ConfigGeneration::new(
        one_link_table(),
        &ClassSet::single(TrafficClass::voip()),
        &[1e6],
        &[0.5],
        BackendKind::Atomic,
    )
}

/// An admit racing a reconfigure resolves to exactly one generation:
/// its reservation exists on that generation's backend (and only there)
/// while the handle lives, and disappears entirely when it drops.
#[test]
fn admit_racing_reconfigure_is_never_lost_or_double_counted() {
    assert_complete(bounds().check(|| {
        let classes = ClassSet::single(TrafficClass::voip());
        let ctrl = AdmissionController::new_unmetered(one_link_table(), &classes, &[1e6], &[0.5]);
        let gen1 = ctrl.current_generation();

        let c = ctrl.clone();
        let admitter =
            uba_loom::thread::spawn(move || c.try_admit(ClassId(0), NodeId(0), NodeId(1)).ok());
        let c = ctrl.clone();
        let swapper = uba_loom::thread::spawn(move || c.reconfigure(fresh_generation()));

        let handle = admitter
            .join()
            .unwrap()
            .expect("both generations have ample budget");
        let report = swapper.join().unwrap();
        let gen2 = ctrl.current_generation();
        assert_eq!(gen2.id(), report.generation);

        let rate = handle.rate();
        let on1 = gen1.backend().snapshot(0, 0);
        let on2 = gen2.backend().snapshot(0, 0);
        if handle.generation() == gen1.id() {
            assert_eq!((on1, on2), (rate, 0.0), "admit must land on gen1 only");
        } else {
            assert_eq!(
                handle.generation(),
                gen2.id(),
                "unknown admitting generation"
            );
            assert_eq!((on1, on2), (0.0, rate), "admit must land on gen2 only");
        }

        drop(handle);
        assert_eq!(gen1.backend().snapshot(0, 0), 0.0);
        assert_eq!(gen2.backend().snapshot(0, 0), 0.0);
        assert_eq!(gen1.pinned() + gen2.pinned(), 0);
        assert!(ctrl.drain().is_drained());
    }));
}

/// A handle admitted *before* a reconfigure releases against its own
/// (now retired) generation, no matter how the drop interleaves with
/// the swap — the new generation's budgets are never touched.
#[test]
fn pinned_handle_releases_against_its_admitting_generation() {
    assert_complete(bounds().check(|| {
        let classes = ClassSet::single(TrafficClass::voip());
        let ctrl = AdmissionController::new_unmetered(one_link_table(), &classes, &[1e6], &[0.5]);
        let gen1 = ctrl.current_generation();
        let handle = ctrl
            .try_admit(ClassId(0), NodeId(0), NodeId(1))
            .expect("empty controller must admit");
        assert_eq!(handle.generation(), gen1.id());
        assert_eq!(gen1.pinned(), 1);

        let c = ctrl.clone();
        let swapper = uba_loom::thread::spawn(move || c.reconfigure(fresh_generation()));
        drop(handle); // races the swap
        let report = swapper.join().unwrap();

        assert_eq!(report.previous, gen1.id());
        assert!(report.pinned_previous <= 1);
        assert_eq!(gen1.pinned(), 0, "drop must unpin the admitting generation");
        assert_eq!(gen1.backend().snapshot(0, 0), 0.0, "release went to gen1");
        let gen2 = ctrl.current_generation();
        assert_eq!(gen2.backend().snapshot(0, 0), 0.0, "gen2 was never touched");
        assert!(ctrl.drain().is_drained());
    }));
}

/// A handle admitted on one thread and dropped on another while
/// `drain` runs: the pin (admitter's stripe) and the unpin (dropper's
/// stripe) land on different pin stripes, and the whole flow may live
/// and die inside one `drain` scan. `pinned()` sums the unpins before
/// the pins, and every counted unpin's pin happens-before it, so the
/// scan can neither underflow nor miss the flow that stays pinned
/// throughout (reading 0 there would retire a generation that still
/// holds a reservation). Once every handle has dropped the retired
/// generation reads 0 and the controller drains.
#[test]
fn handle_dropped_on_another_thread_never_underflows_pinned() {
    assert_complete(flagship().check(|| {
        let classes = ClassSet::single(TrafficClass::voip());
        let ctrl = AdmissionController::new_unmetered(one_link_table(), &classes, &[1e6], &[0.5]);
        let gen1 = ctrl.current_generation();
        // Retire gen1 with one flow pinned, so drain() watches it.
        let held = ctrl
            .try_admit(ClassId(0), NodeId(0), NodeId(1))
            .expect("empty controller must admit");
        assert_eq!(ctrl.reconfigure(fresh_generation()).pinned_previous, 1);

        let c = ctrl.clone();
        let g = Arc::clone(&gen1);
        let admitter = uba_loom::thread::spawn(move || {
            let handle = c
                .try_admit_on(&g, ClassId(0), NodeId(0), NodeId(1))
                .expect("gen1 has budget for two flows");
            // The flow is released by another thread than admitted it.
            uba_loom::thread::spawn(move || drop(handle))
                .join()
                .unwrap();
        });
        let mid = ctrl.drain(); // races the admit and the remote drop
        let pinned = mid.pinned_flows();
        assert!(
            (1..=2).contains(&pinned),
            "one flow stays pinned throughout, at most two ever are: {mid:?}"
        );
        admitter.join().unwrap();
        assert_eq!(gen1.pinned(), 1);

        drop(held);
        assert_eq!(gen1.pinned(), 0, "every handle dropped: nothing pinned");
        assert_eq!(gen1.backend().snapshot(0, 0), 0.0, "releases went to gen1");
        assert!(ctrl.drain().is_drained());
    }));
}

/// A batched admit racing a reconfigure never strands a reservation:
/// the whole batch resolves to exactly one generation, every handle
/// releases against that generation, and once the handles drop both
/// generations balance to zero and the controller drains.
#[test]
fn batch_admit_racing_reconfigure_strands_nothing() {
    assert_complete(bounds().check(|| {
        let classes = ClassSet::single(TrafficClass::voip());
        let ctrl = AdmissionController::new_unmetered(one_link_table(), &classes, &[1e6], &[0.5]);
        let gen1 = ctrl.current_generation();

        let c = ctrl.clone();
        let admitter = uba_loom::thread::spawn(move || {
            let spec = FlowSpec {
                class: ClassId(0),
                src: NodeId(0),
                dst: NodeId(1),
            };
            c.try_admit_batch(&[spec, spec])
        });
        let c = ctrl.clone();
        let swapper = uba_loom::thread::spawn(move || c.reconfigure(fresh_generation()));

        let out = admitter.join().unwrap();
        swapper.join().unwrap();
        let gen2 = ctrl.current_generation();
        assert!(out.fast_path, "ample budget: the aggregate always fits");
        assert_eq!(out.admitted(), 2, "ample budget must admit the batch");

        let handles = out.into_handles();
        let admitted_on = handles[0].generation();
        assert!(
            handles.iter().all(|h| h.generation() == admitted_on),
            "a batch must land on exactly one generation"
        );
        let batch_rate = 2.0 * handles[0].rate();
        let (on1, on2) = (gen1.backend().snapshot(0, 0), gen2.backend().snapshot(0, 0));
        if admitted_on == gen1.id() {
            assert_eq!(
                (on1, on2),
                (batch_rate, 0.0),
                "batch must land on gen1 only"
            );
        } else {
            assert_eq!(admitted_on, gen2.id(), "unknown admitting generation");
            assert_eq!(
                (on1, on2),
                (0.0, batch_rate),
                "batch must land on gen2 only"
            );
        }

        drop(handles);
        assert_eq!(
            gen1.backend().snapshot(0, 0),
            0.0,
            "reservation stranded on gen1"
        );
        assert_eq!(
            gen2.backend().snapshot(0, 0),
            0.0,
            "reservation stranded on gen2"
        );
        assert_eq!(gen1.pinned() + gen2.pinned(), 0);
        assert!(ctrl.drain().is_drained());
    }));
}

// --- Model 6: policy token bucket never over-grants -------------------

/// Two concurrent grabs racing each other's refill of the *same*
/// elapsed interval: the CAS-claimed `[last, t]` window must be
/// credited exactly once, however the schedules interleave. The bucket
/// is pre-drained to empty, then both threads admit at a `t` whose
/// single refill credit covers one flow but not two — if any schedule
/// let both refills bank the interval (or one refill bank it twice),
/// both grabs would fit and the model fails. The winner's refund must
/// then restore the balance exactly.
fn token_bucket_interval_race() {
    // Rate 600 b/s, depth 1000 bits, flow cost 500 bits. Drain the
    // initial depth at t=0 (no elapsed time, so no refill), leaving
    // an empty bucket whose only future credit is elapsed time.
    let tb = Arc::new(TokenBucketStage::new(600.0, 1000.0, &[500.0]));
    assert!(tb.admit_n(0, 2, 0.0), "full depth-1000 bucket holds 2×500");
    assert_eq!(tb.tokens_bits(0), 0.0, "pre-drain must empty the bucket");

    // At t=1.0 the interval [0, 1] is worth one credit of 600 bits:
    // exactly one 500-bit grab fits. Two winners would mean the
    // interval was credited twice (1200 banked).
    let tb2 = Arc::clone(&tb);
    let rival = uba_loom::thread::spawn(move || tb2.admit_n(0, 1, 1.0));
    let mine = tb.admit_n(0, 1, 1.0);
    let theirs = rival.join().unwrap();
    assert!(
        !(mine && theirs),
        "a 600-bit refill interval was credited twice (two 500-bit grabs won)"
    );
    assert!(
        mine || theirs,
        "600 banked bits must admit one 500-bit flow"
    );
    let left = tb.tokens_bits(0);
    assert!(
        (left - 100.0).abs() < 1e-9,
        "one credit minus one grab must leave 100 bits, got {left}"
    );
    // The winner's refund restores the balance exactly (a rejected
    // later stage or backend must leave no residue in the bucket).
    tb.refund_n(0, 1);
    let back = tb.tokens_bits(0);
    assert!(
        (back - 600.0).abs() < 1e-9,
        "refund must restore the grab exactly, got {back}"
    );
}

#[test]
fn token_bucket_refill_racing_admits_never_credits_an_interval_twice() {
    assert_complete(flagship().check(token_bucket_interval_race));
}

/// The same race under weak memory must actually *exercise* stale
/// visibility: the stage's Acquire/Relaxed loads observe old stores in
/// some schedules (the telemetry proves it), and the interval still
/// cannot be credited twice — the CAS interval claim reads the newest
/// store in the modification order by construction, so correctness
/// never depended on silent `SeqCst` upgrades.
#[test]
fn token_bucket_refill_survives_stale_visibility() {
    let explored = flagship().check(token_bucket_interval_race);
    assert!(explored.complete, "truncated: {explored:?}");
    assert!(
        explored.stale_reads > 0,
        "weak-memory mode must exercise stale loads: {explored:?}"
    );
}

// --- Model 4: trace ring integrity -----------------------------------

/// Concurrent emits and a racing drain: every event comes out exactly
/// once and bitwise-whole (fields of the two writers are never mixed),
/// regardless of where the drain lands between the publishes.
#[test]
fn trace_ring_never_tears_an_event_under_publish_drain() {
    assert_complete(bounds().check(|| {
        let t = Arc::new(Tracer::with_capacity(4));
        t.set_enabled(true);
        let t1 = Arc::clone(&t);
        let a = uba_loom::thread::spawn(move || {
            t1.emit(EventKind::Admit, 1, 1, 7, 1.5, 2.5);
        });
        let t2 = Arc::clone(&t);
        let b = uba_loom::thread::spawn(move || {
            t2.emit(EventKind::Release, 2, 2, 8, 10.5, 20.5);
        });
        let mid = t.drain(); // races both emits
        a.join().unwrap();
        b.join().unwrap();
        let last = t.drain();

        let mut seen = 0usize;
        for ev in mid.events.iter().chain(last.events.iter()) {
            match ev.flow {
                1 => assert_eq!(
                    (ev.kind, ev.class, ev.server, ev.a, ev.b),
                    (EventKind::Admit, 1, 7, 1.5, 2.5),
                    "torn event: {ev:?}"
                ),
                2 => assert_eq!(
                    (ev.kind, ev.class, ev.server, ev.a, ev.b),
                    (EventKind::Release, 2, 8, 10.5, 20.5),
                    "torn event: {ev:?}"
                ),
                _ => panic!("event from nowhere: {ev:?}"),
            }
            seen += 1;
        }
        assert_eq!(seen, 2, "each emitted event surfaces exactly once");
        assert_eq!(mid.dropped + last.dropped, 0);
    }));
}
