//! Pluggable reservation-state backends.
//!
//! The admission decision is one predicate — *does every link server on
//! the route have `α_i·C` headroom left for the class?* — but the data
//! structure answering it is swappable. [`AdmissionBackend`] captures
//! the path-level contract the controller needs (all-or-nothing reserve,
//! release, snapshot, budget); two implementations live here:
//!
//! * [`AtomicBackend`] — the original one-`AtomicU64`-per-(server, class)
//!   CAS loop ([`UtilizationState`]). Exact, strict (over-release
//!   panics), and the contention hot spot is the counter of a hot link.
//! * [`ShardedBackend`] — each (server, class) budget striped across N
//!   headroom shards, each on its own cache line. Reservation is
//!   **two-phase**: phase 1 is one all-or-nothing CAS against the
//!   thread's home shard (the lock-free fast path); phase 2, entered
//!   only when the home shard cannot cover the whole grab, borrows from
//!   neighbor shards *under a per-cell borrow lock*. Serializing the
//!   cross-shard path is what makes rejection exact: a reject happens
//!   only after a full no-progress sweep of every shard under the lock —
//!   a genuine-exhaustion witness — so the spurious double-reject of the
//!   old lock-free borrow (two threads each draining their home shard,
//!   finding the other's empty, and both rolling back despite sufficient
//!   total headroom; documented by PR 5's loom model) cannot happen.
//!   Single-threaded the admit/reject sequence is *identical* to the
//!   atomic backend (a reservation succeeds iff total headroom
//!   suffices); under many threads the CAS traffic on a hot cell spreads
//!   across N cache lines and only shortfall traffic takes the lock.
//!   The trade: over-release of a single flow can no longer be detected
//!   per-cell (headroom is fungible across shards), so the strict
//!   accounting assert of the atomic backend is only checked as "total
//!   headroom never exceeds the budget".

use crate::state::{to_millibits, UtilizationState, SCALE};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{thread_slot, CachePadded, Mutex};
use std::fmt;

/// The CAS-per-(server, class) backend — [`UtilizationState`] fulfilling
/// the [`AdmissionBackend`] contract. This is the paper's run-time
/// mechanism verbatim and the default for every controller.
pub type AtomicBackend = UtilizationState;

/// Why a path reservation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathReject {
    /// The first server along the route whose class budget could not fit
    /// the flow.
    pub server: u32,
    /// CAS retries spent before giving up (contention signal).
    pub retries: u32,
}

/// One aggregated (server, class) demand of an admission batch: the
/// summed rate of every batched flow whose route crosses that cell. The
/// controller pre-aggregates a slice of flows into these so the backend
/// pays one reservation per *touched cell* instead of one per
/// (flow × hop) — see
/// [`AdmissionController::try_admit_batch`](crate::AdmissionController::try_admit_batch).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellDemand {
    /// Raw link-server index.
    pub server: u32,
    /// Traffic-class index.
    pub class: u32,
    /// Aggregate rate to reserve, bits/s.
    pub rate: f64,
}

/// Cumulative cross-shard traffic of a [`ShardedBackend`] since its
/// construction (a generation's backend is born fresh, so these reset on
/// reconfigure). Borrows and steals are contention *signals*, not
/// errors: they are the striped design working as intended. Spurious
/// rejects are structurally impossible under the two-phase protocol (a
/// reject carries a no-progress sweep witness taken under the borrow
/// lock); the counter is kept as a tripwire — the `admission_scaling`
/// bench gates it at zero, so any future lock-free reject path that
/// reintroduces the race fails the gate instead of shipping silently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardContention {
    /// Reservations where the home shard contributed but ran dry, so one
    /// or more neighbor shards topped up the grab.
    pub borrows: u64,
    /// Reservations satisfied with *zero* home-shard contribution — the
    /// thread's entire grab came from neighbors (headroom has migrated
    /// away from its home).
    pub steals: u64,
    /// Rejections without a genuine-exhaustion witness. Always zero
    /// under the two-phase protocol; see the struct docs.
    pub spurious_rejects: u64,
}

/// Reservation state shared by all admissions of one configuration
/// generation.
///
/// Implementations must make [`try_reserve_path`](Self::try_reserve_path)
/// all-or-nothing (no residue on failure) and never let the reserved
/// rate of a class on a server exceed its budget, even under concurrent
/// callers. `snapshot`/`budget` are advisory reads used by diagnostics
/// and gauges; they may be weakly ordered with respect to in-flight
/// reservations.
pub trait AdmissionBackend: fmt::Debug + Send + Sync {
    /// Number of link servers.
    fn servers(&self) -> usize;

    /// Number of traffic classes.
    fn classes(&self) -> usize;

    /// Atomically-per-cell reserves `rate` bits/s of `class` on every
    /// server of `route`; rolls the prefix back and reports the failing
    /// server if any cell is full. Returns total CAS retries on success.
    fn try_reserve_path(&self, route: &[u32], class: usize, rate: f64) -> Result<u32, PathReject>;

    /// Releases a previously successful path reservation.
    fn release_path(&self, route: &[u32], class: usize, rate: f64);

    /// Reserves every aggregated cell demand of a batch, all-or-nothing
    /// across the whole set: one cell reservation per *touched cell*
    /// instead of one per (flow × hop). On failure nothing stays
    /// reserved and the first failing server is reported. `demands` must
    /// not repeat a (server, class) pair — aggregate before calling.
    /// Returns total CAS retries on success.
    ///
    /// The default implementation reserves cell-by-cell through
    /// [`try_reserve_path`](Self::try_reserve_path), which already costs
    /// exactly one CAS (or one two-phase grab) per cell on both in-tree
    /// backends, and rolls back the reserved prefix on failure.
    fn try_reserve_batch(&self, demands: &[CellDemand]) -> Result<u32, PathReject> {
        let mut cas_retries = 0u32;
        for (i, d) in demands.iter().enumerate() {
            match self.try_reserve_path(&[d.server], d.class as usize, d.rate) {
                Ok(retries) => cas_retries += retries,
                Err(reject) => {
                    for held in &demands[..i] {
                        self.release_path(&[held.server], held.class as usize, held.rate);
                    }
                    return Err(PathReject {
                        server: reject.server,
                        retries: cas_retries + reject.retries,
                    });
                }
            }
        }
        Ok(cas_retries)
    }

    /// Whether one `rate` reservation would fit on (server, class) right
    /// now, without reserving anything. Must use the same exact integer
    /// predicate as the real reservation so dry runs never disagree.
    fn would_fit(&self, server: usize, class: usize, rate: f64) -> bool;

    /// Currently reserved rate on (server, class), bits/s.
    fn snapshot(&self, server: usize, class: usize) -> f64;

    /// Configured budget `α_i · C` on (server, class), bits/s.
    fn budget(&self, server: usize, class: usize) -> f64;

    /// Fraction of the class budget in use (0 when the budget is zero).
    fn occupancy(&self, server: usize, class: usize) -> f64 {
        let b = self.budget(server, class);
        if b > 0.0 {
            self.snapshot(server, class) / b
        } else {
            0.0
        }
    }

    /// Cross-shard contention counters, for backends that stripe their
    /// budgets. `None` for unsharded backends (and under the loom model
    /// checker, where the counters are compiled out to keep the state
    /// space small).
    fn contention(&self) -> Option<ShardContention> {
        None
    }
}

impl AdmissionBackend for UtilizationState {
    fn servers(&self) -> usize {
        UtilizationState::servers(self)
    }

    fn classes(&self) -> usize {
        UtilizationState::classes(self)
    }

    fn try_reserve_path(&self, route: &[u32], class: usize, rate: f64) -> Result<u32, PathReject> {
        let mut cas_retries = 0u32;
        for (i, &server) in route.iter().enumerate() {
            let (ok, retries) = self.try_reserve_with_retries(server as usize, class, rate);
            cas_retries += retries;
            if !ok {
                for &held in &route[..i] {
                    self.release(held as usize, class, rate);
                }
                return Err(PathReject {
                    server,
                    retries: cas_retries,
                });
            }
        }
        Ok(cas_retries)
    }

    fn release_path(&self, route: &[u32], class: usize, rate: f64) {
        for &server in route {
            self.release(server as usize, class, rate);
        }
    }

    fn would_fit(&self, server: usize, class: usize, rate: f64) -> bool {
        UtilizationState::would_fit(self, server, class, rate)
    }

    fn snapshot(&self, server: usize, class: usize) -> f64 {
        self.reserved(server, class)
    }

    fn budget(&self, server: usize, class: usize) -> f64 {
        UtilizationState::budget(self, server, class)
    }
}

/// Most shards a [`ShardedBackend`] will stripe a budget across; beyond
/// this the per-reservation scan cost outweighs any contention win.
pub const MAX_SHARDS: usize = 16;

/// One stripe of a cell's budget. `CachePadded` at every use site: the
/// pre-audit layout packed eight `AtomicU64` shards into one 64-byte
/// line, so "striped" threads still collided on the same line — the
/// false sharing the stripes exist to remove (padding audit, DESIGN.md
/// §11).
#[derive(Debug)]
struct Shard {
    /// Remaining headroom, millibits/s.
    avail: AtomicU64,
    /// Monotone meter: millibits ever reserved by grabs homed here.
    /// Never decremented; snapshot() subtracts the release meter from it
    /// to get an outstanding sum that can never overshoot the budget
    /// (see `snapshot`). Compiled out under loom — two extra atomics per
    /// operation would multiply the model's interleaving space, and the
    /// models only read snapshots at quiescence where budget − headroom
    /// is already exact.
    #[cfg(not(loom))]
    reserved_meter: AtomicU64,
    /// Monotone meter: millibits ever released into this home shard.
    #[cfg(not(loom))]
    released_meter: AtomicU64,
}

impl Shard {
    fn new(avail: u64) -> Self {
        Self {
            avail: AtomicU64::new(avail),
            #[cfg(not(loom))]
            reserved_meter: AtomicU64::new(0),
            #[cfg(not(loom))]
            released_meter: AtomicU64::new(0),
        }
    }
}

/// Budget-striping backend with the two-phase reserve-then-borrow
/// protocol: the headroom of each (server, class) cell is split across
/// `shards` cache-line-padded counters. Phase 1 reserves the whole grab
/// from the thread's home shard with one CAS; only a home-shard
/// shortfall enters phase 2, which borrows from neighbor shards (in
/// deterministic wrap order) under the cell's borrow lock. Rejection
/// requires a full no-progress sweep of every shard under that lock, so
/// a flow is turned away only on genuine budget exhaustion — never
/// because concurrent threads transiently held each other's headroom.
/// Single-threaded decisions match [`AtomicBackend`] exactly, while
/// concurrent threads mostly touch distinct cache lines.
pub struct ShardedBackend {
    servers: usize,
    classes: usize,
    shards: usize,
    /// Budget per (server, class), millibits/s — for `budget`/`snapshot`.
    budgets: Vec<u64>,
    /// Headroom stripes per (server, class, shard):
    /// `(server * classes + class) * shards + shard`.
    slots: Vec<CachePadded<Shard>>,
    /// Per-cell borrow locks serializing phase 2 (cross-shard grabs).
    /// Phase-1 CASes and releases never take them.
    borrow_locks: Vec<Mutex<()>>,
    /// Cross-shard traffic counters (relaxed; they order nothing).
    /// Compiled out under loom: extra atomics per operation would
    /// multiply the model's interleaving space for no protocol coverage.
    #[cfg(not(loom))]
    borrows: AtomicU64,
    #[cfg(not(loom))]
    steals: AtomicU64,
    #[cfg(not(loom))]
    spurious_rejects: AtomicU64,
}

impl fmt::Debug for ShardedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedBackend")
            .field("servers", &self.servers)
            .field("classes", &self.classes)
            .field("shards", &self.shards)
            .finish_non_exhaustive()
    }
}

impl ShardedBackend {
    /// Creates the backend from per-server capacities, per-class
    /// utilization shares, and the stripe count (clamped to
    /// `1..=`[`MAX_SHARDS`]). Budget millibits are distributed across
    /// shards as evenly as integer division allows (the first
    /// `budget % shards` shards get one extra millibit).
    pub fn new(capacities: &[f64], alphas: &[f64], shards: usize) -> Self {
        assert!(!alphas.is_empty(), "need at least one class");
        for &a in alphas {
            assert!((0.0..=1.0).contains(&a), "alpha must be in [0, 1]");
        }
        let shards = shards.clamp(1, MAX_SHARDS);
        let servers = capacities.len();
        let classes = alphas.len();
        let mut budgets = Vec::with_capacity(servers * classes);
        let mut slots = Vec::with_capacity(servers * classes * shards);
        let mut borrow_locks = Vec::with_capacity(servers * classes);
        for &c in capacities {
            assert!(c > 0.0 && c.is_finite(), "capacity must be positive");
            for &a in alphas {
                let b = to_millibits(a * c);
                budgets.push(b);
                borrow_locks.push(Mutex::new(()));
                let base = b / shards as u64;
                let extra = b % shards as u64;
                for s in 0..shards as u64 {
                    slots.push(CachePadded::new(Shard::new(base + u64::from(s < extra))));
                }
            }
        }
        Self {
            servers,
            classes,
            shards,
            budgets,
            slots,
            borrow_locks,
            #[cfg(not(loom))]
            borrows: AtomicU64::new(0),
            #[cfg(not(loom))]
            steals: AtomicU64::new(0),
            #[cfg(not(loom))]
            spurious_rejects: AtomicU64::new(0),
        }
    }

    /// Configured stripe count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    #[inline]
    fn cell(&self, server: usize, class: usize) -> usize {
        debug_assert!(server < self.servers && class < self.classes);
        server * self.classes + class
    }

    #[inline]
    fn shard_slice(&self, cell: usize) -> &[CachePadded<Shard>] {
        &self.slots[cell * self.shards..(cell + 1) * self.shards]
    }

    /// Records `amount` millibits as reserved, on the home stripe's
    /// meter. (`Relaxed`: the meters are monotone and independent; the
    /// ordering that makes their difference meaningful lives on the
    /// snapshot read side.)
    #[cfg(not(loom))]
    #[inline]
    fn meter_reserved(&self, cell: usize, amount: u64, home: usize) {
        self.slots[cell * self.shards + home]
            .reserved_meter
            .fetch_add(amount, Ordering::Relaxed);
    }

    #[cfg(loom)]
    #[inline]
    fn meter_reserved(&self, _cell: usize, _amount: u64, _home: usize) {}

    /// Grabs `want` millibits from the cell. Phase 1: one all-or-nothing
    /// CAS against the home shard — the lock-free fast path, which a
    /// thread whose releases refill its own home shard stays on
    /// indefinitely. Phase 2 on shortfall: `borrow_locked`.
    fn take(&self, cell: usize, want: u64, home: usize) -> Result<u32, u32> {
        if want == 0 {
            return Ok(0);
        }
        let shard = &self.shard_slice(cell)[home].avail;
        let mut retries = 0u32;
        let mut cur = shard.load(Ordering::Relaxed);
        while cur >= want {
            // ordering: AcqRel — same reserve/release pairing as the
            // atomic backend, per shard: a grab of freed headroom
            // happens-after the put() that freed it.
            match shard.compare_exchange_weak(cur, cur - want, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.meter_reserved(cell, want, home);
                    return Ok(retries);
                }
                Err(actual) => {
                    cur = actual;
                    retries += 1;
                }
            }
        }
        self.borrow_locked(cell, want, home, retries)
    }

    /// Phase 2: cross-shard borrow under the cell's borrow lock. Sweeps
    /// the shards home-first in wrap order, grabbing whatever each one
    /// holds, and re-sweeps as long as a full pass still found headroom
    /// (a concurrent release can land in an already-passed shard
    /// mid-sweep; each re-sweep requires fresh headroom to have
    /// appeared, so the loop terminates). Rejection requires a full
    /// **no-progress** sweep: every shard was observed empty while no
    /// other borrower could interleave — the genuine-exhaustion witness
    /// that makes spurious double-rejects impossible. On rejection every
    /// partial grab is returned to the exact shard it came from.
    #[cold]
    fn borrow_locked(
        &self,
        cell: usize,
        want: u64,
        home: usize,
        mut retries: u32,
    ) -> Result<u32, u32> {
        let _guard = self.borrow_locks[cell].lock().unwrap();
        let shards = self.shard_slice(cell);
        let mut got = 0u64;
        let mut taken = [0u64; MAX_SHARDS];
        loop {
            let mut progressed = false;
            for k in 0..self.shards {
                let s = (home + k) % self.shards;
                let shard = &shards[s].avail;
                let mut cur = shard.load(Ordering::Relaxed);
                loop {
                    let grab = cur.min(want - got);
                    if grab == 0 {
                        break;
                    }
                    // ordering: AcqRel — same reserve/release pairing as
                    // the phase-1 CAS: a grab of freed headroom
                    // happens-after the put() that freed it.
                    match shard.compare_exchange_weak(
                        cur,
                        cur - grab,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            got += grab;
                            taken[s] += grab;
                            progressed = true;
                            break;
                        }
                        Err(actual) => {
                            cur = actual;
                            retries += 1;
                        }
                    }
                }
                if got == want {
                    #[cfg(not(loom))]
                    if taken[home] == 0 {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    } else if taken[home] < want {
                        self.borrows.fetch_add(1, Ordering::Relaxed);
                    }
                    self.meter_reserved(cell, want, home);
                    return Ok(retries);
                }
            }
            if !progressed {
                break;
            }
        }
        // Genuine exhaustion (witnessed by the final no-progress sweep):
        // hand every partial grab back to the shard it came from.
        // `spurious_rejects` is deliberately not classified here — a
        // witnessed reject is never spurious, and a racy post-rollback
        // re-sum (the old classifier) would miscount late releases.
        for (s, &amount) in taken.iter().enumerate().take(self.shards) {
            if amount > 0 {
                // ordering: AcqRel — a rollback is a release of headroom
                // like any other; the next grab must see it published.
                shards[s].avail.fetch_add(amount, Ordering::AcqRel);
            }
        }
        Err(retries)
    }

    /// Returns `amount` millibits of headroom to the cell, into the home
    /// shard. Headroom migrates toward the releasing thread's shard —
    /// the borrow direction of future reservations adapts to where load
    /// actually lives, and a thread that admits and releases its own
    /// flows keeps its home shard warm (pure phase-1 traffic).
    fn put(&self, cell: usize, amount: u64, home: usize) {
        // Meter the release *before* publishing the headroom: snapshot()
        // may then momentarily under-count outstanding rate, but can
        // never over-count it past the budget (see `snapshot`).
        #[cfg(not(loom))]
        self.slots[cell * self.shards + home]
            .released_meter
            .fetch_add(amount, Ordering::Relaxed);
        let slot = &self.shard_slice(cell)[home].avail;
        // ordering: AcqRel — publishes the flow teardown to the take()
        // CAS that consumes the freed headroom.
        let prev = slot.fetch_add(amount, Ordering::AcqRel);
        debug_assert!(
            prev + amount <= self.budgets[cell],
            "release overflows cell budget: headroom {prev} + {amount} > {}",
            self.budgets[cell]
        );
    }

    fn headroom(&self, cell: usize) -> u64 {
        // ordering: Acquire per shard — advisory sum for diagnostics and
        // dry runs; each load sees a shard no older than what the caller
        // already observed. The sum itself is not atomic across shards
        // (would_fit is documented as advisory).
        self.shard_slice(cell)
            .iter()
            .map(|s| s.avail.load(Ordering::Acquire))
            .sum()
    }
}

impl AdmissionBackend for ShardedBackend {
    fn servers(&self) -> usize {
        self.servers
    }

    fn classes(&self) -> usize {
        self.classes
    }

    fn try_reserve_path(&self, route: &[u32], class: usize, rate: f64) -> Result<u32, PathReject> {
        let want = to_millibits(rate);
        let home = thread_slot() % self.shards;
        let mut cas_retries = 0u32;
        for (i, &server) in route.iter().enumerate() {
            let cell = self.cell(server as usize, class);
            match self.take(cell, want, home) {
                Ok(retries) => cas_retries += retries,
                Err(retries) => {
                    cas_retries += retries;
                    for &held in &route[..i] {
                        self.put(self.cell(held as usize, class), want, home);
                    }
                    return Err(PathReject {
                        server,
                        retries: cas_retries,
                    });
                }
            }
        }
        Ok(cas_retries)
    }

    fn release_path(&self, route: &[u32], class: usize, rate: f64) {
        let amount = to_millibits(rate);
        let home = thread_slot() % self.shards;
        for &server in route {
            self.put(self.cell(server as usize, class), amount, home);
        }
    }

    fn would_fit(&self, server: usize, class: usize, rate: f64) -> bool {
        to_millibits(rate) <= self.headroom(self.cell(server, class))
    }

    /// Exact outstanding sum from the per-shard monotone meters (PR 5's
    /// saturating budget-clamp workaround is gone — the old
    /// budget − headroom sum could transiently *overshoot* the budget
    /// when a whole admit/release pair landed inside the scan window,
    /// double-counting the migrating quantum).
    ///
    /// Reading every reserve meter first and every release meter second
    /// bounds the difference by the true outstanding rate at the moment
    /// between the two passes: reserve reads are monotone under-reads,
    /// release reads monotone over-reads, so
    /// `Σreserved − Σreleased ≤ outstanding ≤ budget` always — the
    /// direction diagnostics care about — and the sum is exact whenever
    /// the cell is quiescent (`reconfig_stress` asserts both).
    fn snapshot(&self, server: usize, class: usize) -> f64 {
        let cell = self.cell(server, class);
        #[cfg(not(loom))]
        {
            let shards = self.shard_slice(cell);
            let mut reserved = 0u64;
            for s in shards {
                // ordering: Acquire — pins the reserve-meter pass before
                // the release-meter pass below (an Acquire load forbids
                // hoisting the later loads above it); that pass order is
                // what makes the subtraction one-sided (see fn docs).
                reserved += s.reserved_meter.load(Ordering::Acquire);
            }
            let mut released = 0u64;
            for s in shards {
                // ordering: Acquire — pairs with the meter updates
                // preceding each put(); see above.
                released += s.released_meter.load(Ordering::Acquire);
            }
            // A reserve→release pair completing entirely between the two
            // passes can make `released` overtake the reserve sum read
            // earlier; that transient reads as zero outstanding — an
            // under-count, never an overshoot.
            reserved.saturating_sub(released) as f64 / SCALE
        }
        #[cfg(loom)]
        {
            // Meters are compiled out under the model checker; the
            // models read snapshots only at quiescence, where
            // budget − headroom is exact (and `checked_sub` turns any
            // overshoot into a model failure).
            self.budgets[cell]
                .checked_sub(self.headroom(cell))
                .expect("shard headroom exceeds cell budget") as f64
                / SCALE
        }
    }

    fn budget(&self, server: usize, class: usize) -> f64 {
        self.budgets[self.cell(server, class)] as f64 / SCALE
    }

    #[cfg(not(loom))]
    fn contention(&self) -> Option<ShardContention> {
        Some(ShardContention {
            borrows: self.borrows.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            spurious_rejects: self.spurious_rejects.load(Ordering::Relaxed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sharded() -> ShardedBackend {
        // Two servers at 1 Mb/s, one class at 50%, four shards.
        ShardedBackend::new(&[1e6, 1e6], &[0.5], 4)
    }

    #[test]
    fn single_cell_reserve_matches_atomic_semantics() {
        let s = sharded();
        // Budget 500 kb/s; 15 x 32 kb/s fit, the 16th does not.
        for i in 0..15 {
            assert!(s.try_reserve_path(&[0], 0, 32_000.0).is_ok(), "flow {i}");
        }
        let r = s.try_reserve_path(&[0], 0, 32_000.0);
        assert_eq!(
            r,
            Err(PathReject {
                server: 0,
                retries: 0
            })
        );
        // Other server untouched.
        assert!(s.try_reserve_path(&[1], 0, 32_000.0).is_ok());
        assert_eq!(s.snapshot(0, 0), 480_000.0);
        assert_eq!(s.budget(0, 0), 500_000.0);
    }

    #[test]
    fn borrowing_crosses_shards_for_one_big_flow() {
        // 500 kb/s split across 4 shards is 125 kb/s each; a 400 kb/s
        // flow must borrow from three neighbors and still succeed.
        let s = sharded();
        assert!(s.try_reserve_path(&[0], 0, 400_000.0).is_ok());
        assert!(!s.would_fit(0, 0, 200_000.0));
        assert!(s.would_fit(0, 0, 100_000.0));
        s.release_path(&[0], 0, 400_000.0);
        assert_eq!(s.snapshot(0, 0), 0.0);
        assert!(s.try_reserve_path(&[0], 0, 500_000.0).is_ok());
    }

    #[test]
    fn failed_path_reservation_leaves_no_residue() {
        let s = sharded();
        assert!(s.try_reserve_path(&[1], 0, 500_000.0).is_ok());
        // Path 0 -> 1 fails on server 1; server 0 must be rolled back.
        let r = s.try_reserve_path(&[0, 1], 0, 32_000.0);
        assert_eq!(r.unwrap_err().server, 1);
        assert_eq!(s.snapshot(0, 0), 0.0);
    }

    #[test]
    fn exact_boundary_admission() {
        let s = sharded();
        assert!(s.try_reserve_path(&[0], 0, 500_000.0).is_ok());
        assert!(s.try_reserve_path(&[0], 0, 0.001).is_err());
        assert_eq!(s.occupancy(0, 0), 1.0);
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(ShardedBackend::new(&[1e6], &[0.5], 0).shards(), 1);
        assert_eq!(
            ShardedBackend::new(&[1e6], &[0.5], 999).shards(),
            MAX_SHARDS
        );
    }

    #[test]
    fn uneven_budget_distributes_fully() {
        // 10 millibits over 4 shards: 3,3,2,2 — nothing lost.
        let s = ShardedBackend::new(&[0.01], &[1.0], 4);
        assert_eq!(s.headroom(0), 10);
        assert!(s.try_reserve_path(&[0], 0, 0.01).is_ok());
        assert_eq!(s.headroom(0), 0);
    }

    #[test]
    fn snapshot_stays_exact_through_churn() {
        // The meters must track outstanding rate exactly through
        // admit/release/reject churn (this is the PR 5 saturating-sum
        // workaround, retired).
        let s = sharded();
        assert!(s.try_reserve_path(&[0, 1], 0, 150_000.0).is_ok());
        assert!(s.try_reserve_path(&[0], 0, 300_000.0).is_ok());
        assert!(s.try_reserve_path(&[0], 0, 100_000.0).is_err());
        assert_eq!(s.snapshot(0, 0), 450_000.0);
        assert_eq!(s.snapshot(1, 0), 150_000.0);
        s.release_path(&[0], 0, 300_000.0);
        assert_eq!(s.snapshot(0, 0), 150_000.0);
        s.release_path(&[0, 1], 0, 150_000.0);
        assert_eq!(s.snapshot(0, 0), 0.0);
        assert_eq!(s.snapshot(1, 0), 0.0);
    }

    #[test]
    fn batch_reserve_is_all_or_nothing() {
        for (name, backend) in [
            (
                "atomic",
                Box::new(AtomicBackend::new(&[1e6, 1e6], &[0.5])) as Box<dyn AdmissionBackend>,
            ),
            (
                "sharded",
                Box::new(ShardedBackend::new(&[1e6, 1e6], &[0.5], 4)),
            ),
        ] {
            // 300k + 150k on server 0, 150k on server 1: fits.
            let ok = backend.try_reserve_batch(&[
                CellDemand {
                    server: 0,
                    class: 0,
                    rate: 450_000.0,
                },
                CellDemand {
                    server: 1,
                    class: 0,
                    rate: 150_000.0,
                },
            ]);
            assert!(ok.is_ok(), "{name}");
            assert_eq!(backend.snapshot(0, 0), 450_000.0, "{name}");
            // Second batch: server 1 fits, server 0 does not — nothing
            // of the batch may remain reserved.
            let err = backend.try_reserve_batch(&[
                CellDemand {
                    server: 1,
                    class: 0,
                    rate: 100_000.0,
                },
                CellDemand {
                    server: 0,
                    class: 0,
                    rate: 100_000.0,
                },
            ]);
            assert_eq!(err.unwrap_err().server, 0, "{name}");
            assert_eq!(backend.snapshot(1, 0), 150_000.0, "{name}");
            assert_eq!(backend.snapshot(0, 0), 450_000.0, "{name}");
        }
    }

    #[test]
    fn contention_counters_classify_cross_shard_traffic() {
        // The atomic backend reports no contention telemetry at all.
        let atomic = AtomicBackend::new(&[1e6], &[0.5]);
        assert_eq!(AdmissionBackend::contention(&atomic), None);

        // 500 kb/s over 4 shards = 125 kb/s each. This thread's home
        // shard is fixed for the whole test, so the sequence below is
        // deterministic.
        let s = sharded();
        assert_eq!(s.contention(), Some(ShardContention::default()));

        // Fits in the home shard alone: phase 1, no cross-shard traffic.
        assert!(s.try_reserve_path(&[0], 0, 100_000.0).is_ok());
        assert_eq!(s.contention(), Some(ShardContention::default()));

        // Needs 200 kb/s with only 25 kb/s left at home: a borrow.
        assert!(s.try_reserve_path(&[0], 0, 200_000.0).is_ok());
        let c = s.contention().unwrap();
        assert_eq!((c.borrows, c.steals, c.spurious_rejects), (1, 0, 0));

        // Home shard is now empty: the next grab is a pure steal.
        assert!(s.try_reserve_path(&[0], 0, 50_000.0).is_ok());
        let c = s.contention().unwrap();
        assert_eq!((c.borrows, c.steals, c.spurious_rejects), (1, 1, 0));

        // A genuine budget exhaustion carries its no-progress sweep
        // witness — by construction never spurious.
        assert!(s.try_reserve_path(&[0], 0, 400_000.0).is_err());
        let c = s.contention().unwrap();
        assert_eq!(c.spurious_rejects, 0);
    }

    #[test]
    fn rejected_borrow_returns_grabs_to_their_shards() {
        // Drain 350k of 500k, then fail a 400k grab: the 150k the sweep
        // grabbed must flow back so a 150k reservation still succeeds
        // and the per-shard distribution is unchanged (phase-1-visible).
        let s = sharded();
        assert!(s.try_reserve_path(&[0], 0, 350_000.0).is_ok());
        assert!(s.try_reserve_path(&[0], 0, 400_000.0).is_err());
        assert_eq!(s.snapshot(0, 0), 350_000.0);
        assert!(s.would_fit(0, 0, 150_000.0));
        assert!(s.try_reserve_path(&[0], 0, 150_000.0).is_ok());
        assert_eq!(s.occupancy(0, 0), 1.0);
    }

    #[test]
    fn concurrent_reservations_never_exceed_budget() {
        let s = Arc::new(ShardedBackend::new(&[1e6], &[0.5], 4));
        let rate = 32_000.0;
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut ok = 0usize;
                for _ in 0..100 {
                    if s.try_reserve_path(&[0], 0, rate).is_ok() {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 15, "exactly budget/rate flows may succeed");
        assert!(s.snapshot(0, 0) <= 500_000.0);
    }

    #[test]
    fn concurrent_reserve_release_balances_to_zero() {
        let s = Arc::new(ShardedBackend::new(&[1e8], &[0.5], 8));
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let rate = 1000.0 + t as f64;
                for _ in 0..1000 {
                    if s.try_reserve_path(&[0], 0, rate).is_ok() {
                        s.release_path(&[0], 0, rate);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot(0, 0), 0.0);
    }

    #[test]
    fn two_phase_admits_when_total_headroom_suffices_under_contention() {
        // The no-spurious-reject property, stress-tested natively (the
        // loom model in tests/loom_models.rs proves it exhaustively for
        // bounded schedules): when aggregate demand fits the budget,
        // every contender must be admitted, no matter how headroom is
        // distributed across shards mid-flight.
        for _ in 0..50 {
            let s = Arc::new(ShardedBackend::new(&[1e6], &[1.0], 4));
            // 4 threads × 250k on a 1 Mb/s budget: all must fit.
            let mut handles = Vec::new();
            for _ in 0..4 {
                let s = Arc::clone(&s);
                handles.push(std::thread::spawn(move || {
                    s.try_reserve_path(&[0], 0, 250_000.0).is_ok()
                }));
            }
            let admitted = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&ok| ok)
                .count();
            assert_eq!(admitted, 4, "sufficient total headroom must admit all");
            assert_eq!(s.contention().unwrap().spurious_rejects, 0);
        }
    }
}
