//! The synchronization facade: every lock and condvar the serve layer
//! uses comes through here, so the whole crate can be
//! re-pointed at [loom](https://docs.rs/loom)'s model-checked
//! implementations by building with `RUSTFLAGS="--cfg loom"`.
//!
//! Under `cfg(loom)` the CI job adds the `loom` dev-dependency and runs
//! `tests/loom.rs`, which explores *every* interleaving of the queue
//! and cache protocols up to loom's bounds.  The dependency
//! is deliberately not committed to `Cargo.toml` — the workspace builds
//! offline and dependency-free; the loom job adds it transiently.
//!
//! Production code must not import `std::sync::{Mutex, Condvar}`
//! directly anywhere else in this crate.  The exceptions, all
//! deliberate: `std::sync::Arc` and `mpsc` (loom models
//! we don't swap), the chaos-injection machinery (test-only
//! instrumentation on real atomics), and the monotonic [`ServeStats`]
//! counters (pure diagnostics — no protocol decision reads them, so
//! model-checking their interleavings would only blow up loom's state
//! space).
//!
//! [`ServeStats`]: crate::service::ServeStats

#[cfg(not(loom))]
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(loom)]
pub(crate) use loom::sync::{Condvar, Mutex, MutexGuard};
