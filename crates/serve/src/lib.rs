//! # tdn-serve
//!
//! Tracker-as-a-service: a long-running, sharded serving layer hosting
//! hundreds-to-thousands of independent tracker instances (tenants)
//! behind one ingestion front-end.
//!
//! ```text
//!   interleaved (tenant, event) firehose
//!        │ submit / submit_batch        readers (any thread)
//!        ▼                                   ▲ Arc<TenantSnapshot>
//!   per-shard pending queues            Published cells (epoch-swapped)
//!        │ flush: busy shards drain in       ▲ flush publishes every tick
//!        ▼ parallel on the exec pool         │ after the shards join
//!   Shard 0 … Shard S-1  ── tenant engines ──┘
//!        │ cadence / checkpoint_all
//!        ▼
//!   per-tenant persist delta chains (crash recovery, shard migration)
//! ```
//!
//! ## Sharding & determinism
//!
//! A tenant lives on shard `splitmix64(tenant) % shards` — a pure
//! function of the id and the configuration, never of arrival order or
//! the worker schedule. [`Server::flush`] drains the shards with pending
//! batches in parallel (work-stealing over the `exec` pool; per-shard load
//! is Zipf-skewed), but each shard applies its tenants' batches serially in
//! submission order. A tenant therefore sees exactly the `(t, batch)`
//! sequence the front-end submitted, regardless of `TDN_THREADS` or the
//! shard count, and each engine step is itself bit-identical at any thread
//! count (the repo-wide determinism guarantee) — so served solutions and
//! oracle tallies are bit-identical to a dedicated single-tenant run.
//!
//! ## Reads never block ingest
//!
//! Every processed tick publishes an immutable [`TenantSnapshot`] into
//! the tenant's epoch-swapped [`Published`](tdn_graph::Published) cell:
//! [`Server::flush`] publishes them on its calling thread after the shards
//! join, one publish per applied step, all before it returns.
//! [`SnapshotReader`]s hold the cell by `Arc` and load the current
//! snapshot with an O(1) pointer clone — no reader ever waits on a step,
//! and a flush never waits on readers.
//!
//! ## Failover
//!
//! Tenants checkpoint through `tdn-persist` delta chains (cadence-driven
//! or via [`Server::checkpoint_all`]), one chain per tenant under the
//! prefix `tenant-{id:016x}`. Persist owns the chain files — their names,
//! the directory listing, parent lookup and newest-first order — and this
//! crate only maps prefixes to tenants: [`Server::recover`] lists the
//! directory once and restores every tenant from its newest link that
//! restores, and relies on *idempotent at-least-once ingestion* for the
//! tail: the front-end replays its stream from anywhere at or before the
//! crash, and the per-tenant watermark (`t ≤ last_t` ⇒ skip, counted in
//! [`FlushReport::skipped`]) drops what was already applied. Restore +
//! replay therefore converges on the uninterrupted run's state
//! bit-identically (the persist layer's warm-restart guarantee), which
//! `tests/serve_identity.rs` asserts for every tracker family and
//! servebench's `durable_basic` recovery drill checks end to end.
//!
//! ## Fault model (chaos hardening)
//!
//! The layer is hardened against four fault families, each injectable
//! deterministically through a seeded [`tdn_faults::FaultPlan`] wired in
//! with [`ServeConfig::with_faults`]:
//!
//! * **Engine panics** — every step runs under `catch_unwind`; a panic
//!   quarantines that tenant only (see [`health`]) while its last
//!   published snapshot keeps serving reads.
//! * **Checkpoint I/O failures** (EIO, disk-full, torn writes, failed
//!   renames) — bounded retry with exponential backoff on the flush-tick
//!   clock; the retry budget exhausting quarantines the tenant.
//! * **Crashes** — atomic-by-rename chain writes plus tolerant
//!   [`Server::recover`]: stale `.tmp` debris is swept, corrupt links
//!   fall back to older links, an unrecoverable tenant is quarantined
//!   with the error instead of aborting recovery, and at-least-once
//!   replay through the watermark guard restores bit-identical state.
//! * **Overload** — bounded pending queues with an explicit
//!   [`ShedPolicy`]: reject-newest (lossless; the batch rides back in
//!   [`ServeError::Backpressure`]) or drop-oldest (lossy, every dropped
//!   event counted). The [`FlushReport`] accounting invariant makes any
//!   loss visible.

#![warn(missing_docs)]

pub mod error;
pub mod health;
pub mod server;

pub use error::ServeError;
pub use health::{HealthReport, HealthState, QuarantineReason, RetryPolicy};
pub use server::{
    CheckpointSummary, FlushReport, RecoveryReport, ServeConfig, Server, ShedPolicy,
    SnapshotReader, TenantId, TenantSnapshot,
};
