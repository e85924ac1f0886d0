//! Immutable configuration generations.
//!
//! The paper splits the system into a config-time half (prove a safe
//! utilization assignment) and a run-time half (admit against it). A
//! [`ConfigGeneration`] is one *installable unit* of config-time output:
//! the routing table, the per-class utilization shares, and the budgets
//! they induce, frozen together with a fresh reservation backend. The
//! controller swaps an `Arc<ConfigGeneration>` behind an epoch pointer
//! (see [`AdmissionController::reconfigure`]), so a generation is never
//! mutated after installation — in-flight flows admitted under it keep
//! their `Arc` and release against *its* budgets even after it has been
//! superseded.
//!
//! [`AdmissionController::reconfigure`]: crate::AdmissionController::reconfigure

use crate::backend::{AdmissionBackend, AtomicBackend, ShardedBackend};
use crate::metrics::AdmissionMetrics;
use crate::policy::PolicyChain;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{thread_slot, CachePadded};
use crate::table::RoutingTable;
use uba_traffic::ClassSet;

/// Which reservation backend a generation allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// One CAS counter per (server, class) — [`AtomicBackend`].
    #[default]
    Atomic,
    /// Budgets striped across shards with neighbor borrowing —
    /// [`ShardedBackend`] (shard count clamped to
    /// `1..=`[`MAX_SHARDS`](crate::backend::MAX_SHARDS)).
    Sharded(usize),
}

/// Generation ids are unique across the whole process (not per
/// controller): a thread-local generation cache can then key on the id
/// alone, and trace events from different controllers never collide.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Pin stripes per generation. Each thread pins and unpins on the
/// stripe of its [`thread_slot`], so admitting threads never write a
/// shared counter line; threads beyond the stripe count share stripes
/// round-robin, which costs sharing but never correctness.
#[cfg(not(loom))]
const PIN_STRIPES: usize = 8;
/// Two stripes are enough for the model's two or three threads to land
/// on different stripes, and keep `pinned()`'s schedule points few.
#[cfg(loom)]
const PIN_STRIPES: usize = 2;

/// One thread stripe of a generation's live-flow count: monotone
/// counts of pins and unpins made by the threads mapped here. A flow
/// may unpin on another stripe than it pinned on (handles move between
/// threads), so only the sums across stripes mean anything.
#[derive(Debug, Default)]
struct PinStripe {
    pins: AtomicU64,
    unpins: AtomicU64,
}

/// One immutable (routing table, alphas, budgets) snapshot plus its
/// reservation backend.
#[derive(Debug)]
pub struct ConfigGeneration {
    id: u64,
    table: RoutingTable,
    /// Per-class flow rate `ρ_i`, bits/s.
    rates: Vec<f64>,
    /// Per-class utilization share `α_i` this generation was verified at.
    alphas: Vec<f64>,
    kind: BackendKind,
    backend: Box<dyn AdmissionBackend>,
    /// Shaping stages evaluated before the backend reservation (see
    /// [`PolicyChain`]). Frozen with the generation: a reconfigure
    /// installs fresh policy state alongside the fresh budgets.
    policy: PolicyChain,
    /// Live flows admitted under this generation, as per-thread pin and
    /// unpin counts — `pinned()` is their difference, what `drain`
    /// reports.
    stripes: Box<[CachePadded<PinStripe>]>,
    /// Where the handles of this generation record their release: the
    /// metrics of the controller that adopted or installed it (`None`
    /// for unmetered controllers and for a generation never installed).
    metrics: Option<AdmissionMetrics>,
}

impl ConfigGeneration {
    /// Freezes a configuration: the committed routing table, the class
    /// set (for per-flow rates), per-server capacities, and the verified
    /// utilization assignment, with a fresh backend of the given kind.
    pub fn new(
        table: RoutingTable,
        classes: &ClassSet,
        capacities: &[f64],
        alphas: &[f64],
        kind: BackendKind,
    ) -> Self {
        Self::with_policy(
            table,
            classes,
            capacities,
            alphas,
            kind,
            PolicyChain::static_only(),
        )
    }

    /// Like [`new`](Self::new) but with an explicit admission policy
    /// chain evaluated before the utilization check. The chain is part
    /// of the frozen snapshot: its token/AIMD state is fresh at install
    /// time and retires with the generation.
    pub fn with_policy(
        table: RoutingTable,
        classes: &ClassSet,
        capacities: &[f64],
        alphas: &[f64],
        kind: BackendKind,
        policy: PolicyChain,
    ) -> Self {
        assert_eq!(alphas.len(), classes.len(), "one alpha per class");
        let backend: Box<dyn AdmissionBackend> = match kind {
            BackendKind::Atomic => Box::new(AtomicBackend::new(capacities, alphas)),
            BackendKind::Sharded(n) => Box::new(ShardedBackend::new(capacities, alphas, n)),
        };
        Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            table,
            rates: classes.iter().map(|(_, c)| c.bucket.rate).collect(),
            alphas: alphas.to_vec(),
            kind,
            backend,
            policy,
            stripes: (0..PIN_STRIPES).map(|_| CachePadded::default()).collect(),
            metrics: None,
        }
    }

    /// Attaches the installing controller's metrics, which the
    /// generation's flow handles record their releases into.
    pub(crate) fn attach_metrics(&mut self, metrics: Option<AdmissionMetrics>) {
        self.metrics = metrics;
    }

    /// The metrics releases of this generation's flows are recorded in.
    #[inline]
    pub(crate) fn metrics(&self) -> Option<&AdmissionMetrics> {
        self.metrics.as_ref()
    }

    /// Which backend kind this generation allocated (the per-backend
    /// telemetry split keys on this).
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// Process-unique generation id (monotone in creation order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The frozen routing table.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Per-class flow rates `ρ_i`, bits/s.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// The utilization assignment this generation was verified at.
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// The reservation backend holding this generation's budgets.
    pub fn backend(&self) -> &dyn AdmissionBackend {
        &*self.backend
    }

    /// The shaping stages evaluated before the backend reservation. A
    /// default-constructed generation carries the empty `Static` chain
    /// (utilization check only).
    pub fn policy(&self) -> &PolicyChain {
        &self.policy
    }

    /// Live flows still holding reservations in this generation.
    pub fn pinned(&self) -> u64 {
        // Unpins first, then pins. Every unpin this read observes was
        // preceded (happens-before, through the handle's hand-off and
        // the Acquire below) by its flow's pin, so the later pin read
        // counts at least as many pins: the difference never underflows.
        let unpins: u64 = self
            .stripes
            .iter()
            // ordering: Acquire pairs with the Release unpin — an
            // observer that sees `pinned() == 0` (the retire/drain
            // decision) also sees every drained flow's backend release,
            // and every pin that preceded a counted unpin.
            .map(|s| s.unpins.load(Ordering::Acquire))
            .sum();
        let pins: u64 = self
            .stripes
            .iter()
            // ordering: Relaxed — read-after-write coherence already
            // shows this load every pin that happens-before it, which
            // the unpin Acquire above established for the counted ones.
            .map(|s| s.pins.load(Ordering::Relaxed))
            .sum();
        debug_assert!(pins >= unpins, "pinned() underflow: {pins} < {unpins}");
        pins.wrapping_sub(unpins)
    }

    #[inline]
    fn stripe(&self) -> &PinStripe {
        &self.stripes[thread_slot() % PIN_STRIPES]
    }

    /// Pins `n` flows on the calling thread's stripe with one RMW — the
    /// batched admission path admits a whole slice under a single pin
    /// update instead of one per flow.
    #[inline]
    pub(crate) fn pin_n(&self, n: u64) {
        if n == 0 {
            return;
        }
        // ordering: Relaxed — a pin publishes nothing; the reader that
        // must see it is ordered after it by the unpin's Release edge.
        self.stripe().pins.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn pin(&self) {
        self.pin_n(1);
    }

    #[inline]
    pub(crate) fn unpin(&self) {
        // ordering: Release publishes the flow's backend release (and,
        // transitively, its pin) before the unpin that lets drain()
        // retire this generation.
        self.stripe().unpins.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_traffic::TrafficClass;

    fn generation(kind: BackendKind) -> ConfigGeneration {
        ConfigGeneration::new(
            RoutingTable::new(),
            &ClassSet::single(TrafficClass::voip()),
            &[1e6, 1e6],
            &[0.5],
            kind,
        )
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let a = generation(BackendKind::Atomic);
        let b = generation(BackendKind::Sharded(4));
        assert!(b.id() > a.id());
    }

    #[test]
    fn backend_kind_selects_implementation() {
        let a = generation(BackendKind::Atomic);
        let s = generation(BackendKind::Sharded(4));
        // Both enforce the same budgets.
        assert_eq!(a.backend().budget(0, 0), 500_000.0);
        assert_eq!(s.backend().budget(0, 0), 500_000.0);
        assert_eq!(a.rates(), &[32_000.0]);
        assert_eq!(a.alphas(), &[0.5]);
        assert!(format!("{:?}", s.backend()).contains("ShardedBackend"));
        assert_eq!(a.kind(), BackendKind::Atomic);
        assert_eq!(s.kind(), BackendKind::Sharded(4));
    }

    #[test]
    fn pin_counting() {
        let g = generation(BackendKind::Atomic);
        assert_eq!(g.pinned(), 0);
        g.pin();
        g.pin_n(2);
        assert_eq!(g.pinned(), 3);
        g.unpin();
        assert_eq!(g.pinned(), 2);
    }

    #[test]
    fn pins_and_unpins_on_different_threads_balance() {
        let g = std::sync::Arc::new(generation(BackendKind::Atomic));
        g.pin_n(4);
        let g2 = std::sync::Arc::clone(&g);
        std::thread::spawn(move || {
            for _ in 0..3 {
                g2.unpin();
            }
        })
        .join()
        .unwrap();
        assert_eq!(g.pinned(), 1);
        g.unpin();
        assert_eq!(g.pinned(), 0);
    }
}
