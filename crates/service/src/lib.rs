//! The PrimePar planner **service**: a long-lived process that answers
//! plan/simulation requests from a sharded warm cache.
//!
//! Layers, each usable on its own:
//!
//! * the typed API — [`PlanRequest`]/[`PlanResponse`] (plus sim and replan
//!   twins, which embed the [`PlanRequest`] as their workload) with a
//!   builder, validation, and the plan identity ([`ResolvedPlan`]) with its
//!   canonical fingerprint. One-shot callers use [`PlanRequest::run`] /
//!   [`ReplanRequest::run`], which hit the process-wide [`WarmCache`].
//! * the cache — a [`WarmCache`] whose whole-plan memo is a [`ShardedMap`]:
//!   per-shard hashmaps behind a shared-seed hasher, with in-flight request
//!   coalescing, LRU eviction under a memory budget ([`CacheConfig`]), and
//!   persistence across restarts as `primepar.cache.v1` artifacts
//!   ([`CACHE_SCHEMA`]).
//! * the server — a bounded worker pool ([`PlannerService`]) sharing one
//!   [`WarmCache`]. Every request is one [`Request`] job answered by one
//!   [`Response`]; submissions return a [`Pending`] handle carrying the
//!   request's stop flag (a
//!   [`SearchInterrupt`](primepar_search::SearchInterrupt)), and
//!   deadlines/cancellations surface as [`Error::Cancelled`] without
//!   poisoning the pool.
//! * the wire protocol — the line-delimited JSON format behind
//!   `primepar serve`: [`parse_frame`] / response builders /
//!   [`serve_lines`], every emitted document tagged with
//!   [`SERVICE_SCHEMA`] as `schema_version`. Responses are out of order,
//!   keyed by the echoed client `id` and a server-assigned `request_id`.
//!
//! Determinism contract: a served plan is **bitwise-identical** to a direct
//! [`Planner::optimize`](primepar_search::Planner::optimize) call on the
//! same inputs, whether it was computed cold, assembled from warm DP
//! matrices, replayed from the whole-plan memo, coalesced onto a concurrent
//! identical request, or restored from a cache artifact. The equivalence and
//! concurrency suites pin this.

mod api;
mod cache;
mod error;
mod observe;
mod persist;
mod protocol;
mod server;
mod shard;

pub use api::{
    perturbation_profile, CacheOutcome, PlanRequest, PlanRequestBuilder, PlanResponse,
    ReplanRequest, ReplanResponse, Request, ResolvedPlan, Response, SimRequest, SimResponse,
    SERVICE_SCHEMA,
};
pub use cache::{CacheConfig, CachedPlan, ServiceCacheStats, WarmCache};
pub use error::Error;
pub use observe::{validate_stats_doc, STATS_SCHEMA};
pub use persist::{cache_to_json, validate_cache_doc, CACHE_SCHEMA};
#[cfg(unix)]
pub use protocol::serve_unix_socket;
pub use protocol::{
    cancel_json, error_json, parse_frame, plan_response_json, read_artifact, replan_request_json,
    replan_response_json, request_json, serve_lines, serve_lines_with_cache, sim_request_json,
    sim_response_json, stats_request_json, Frame, ParsedFrame, ServeEnd, ServeOptions,
    MAX_ARTIFACT_BYTES, MAX_FRAME_BYTES,
};
pub use server::{Pending, PlannerService, ServiceClient, ServiceOptions};
pub use shard::{FixedSeedHasher, FixedSeedState, Outcome, ShardLoad, ShardStats, ShardedMap};
