//! Sync primitives for the lock-free admission core.
//!
//! The shimmed modules (`state`, `backend`, `generation`, `controller`)
//! import their atomics, `Arc`, and `Mutex` from here instead of
//! `std::sync` directly (the `xtask check` shim-purity rule enforces
//! it). A normal build re-exports `std` wholesale — the shim compiles
//! away entirely and the admit path is byte-for-byte what it was (the
//! `obs_overhead`/`reconfig_overhead` benches gate this). Under
//! `RUSTFLAGS="--cfg loom"` the same names resolve to `uba-loom`'s
//! modeled primitives, turning every atomic op and lock acquisition in
//! the reservation/reconfigure protocol into an explored schedule point
//! (see `tests/loom_models.rs`).

#[cfg(not(loom))]
pub(crate) use std::sync::{Arc, Mutex};

/// Atomics for the shimmed modules; `std::sync::atomic` unless `--cfg
/// loom` swaps in the model checker's versions.
#[cfg(not(loom))]
pub(crate) mod atomic {
    pub use std::sync::atomic::{AtomicU64, Ordering};
}

#[cfg(loom)]
pub(crate) use uba_loom::sync::{Arc, Mutex};

/// Atomics for the shimmed modules; `std::sync::atomic` unless `--cfg
/// loom` swaps in the model checker's versions.
#[cfg(loom)]
pub(crate) mod atomic {
    pub use uba_loom::sync::atomic::{AtomicU64, Ordering};
}

/// Round-robin thread slots: each thread gets a stable index at first
/// use, so per-thread stripes (the sharded backend's home shards, a
/// generation's pin stripes) spread threads deterministically.
/// (`Relaxed` suffices: the counter only hands out distinct indices,
/// it synchronizes nothing.)
#[cfg(not(loom))]
static NEXT_SLOT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
#[cfg(not(loom))]
thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

/// The calling thread's stripe seed (reduced mod the stripe count at
/// use sites).
#[inline]
pub(crate) fn thread_slot() -> usize {
    #[cfg(not(loom))]
    {
        SLOT.with(|h| *h)
    }
    // Under the model checker the seed must be a pure function of the
    // model thread — a process-global counter would assign different
    // stripes on different executions and break schedule replay.
    #[cfg(loom)]
    {
        uba_loom::thread::current_index()
    }
}

/// Pads (and aligns) `T` to two cache lines so adjacent slots of an
/// array never share a line. 128 bytes, not 64: Intel's spatial
/// prefetcher pulls line pairs, and aarch64 big cores have 128-byte
/// lines — padding to the pair kills both destructive-interference
/// modes. Used for the sharded backend's per-shard slots and a
/// generation's per-thread pin stripes (the whole point of striping is
/// that each stripe gets its own line; see DESIGN.md §11 for the
/// padding audit).
#[cfg(not(loom))]
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct CachePadded<T>(pub T);

/// Under the model checker padding is pointless (there is no cache) and
/// alignment would only bloat the model state, so the shim is a
/// transparent wrapper with the same API.
#[cfg(loom)]
#[derive(Debug, Default)]
pub(crate) struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    pub(crate) const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}
