// Service layer: request / report / configuration types.
//
// The vocabulary of the concurrent evaluation service. A Request is what a
// tenant submits (expression, mesh binding, session identity, priority,
// deadline); a ServiceReport is what the tenant gets back (the shared
// EvaluationReport plus per-request scheduling metrics: queue wait,
// coalescing fan-out, dispatch order); a ServiceSnapshot aggregates the
// service-wide counters the benchmarks chart (admission rejections by
// cause, evaluations actually executed vs. requests served, degradations).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "mesh/mesh.hpp"
#include "runtime/fallback.hpp"
#include "runtime/strategy.hpp"

namespace dfg::service {

/// One named host array bound into a request. The view must stay valid
/// until the request's ticket completes (the service never copies inputs —
/// the paper's in-situ contract, §III-D, extended to multi-tenancy).
struct FieldRef {
  std::string name;
  std::span<const float> values;
};

/// One unit of work a tenant submits. The mesh and field views must
/// outlive the ticket.
struct Request {
  /// Expression script (the paper's network-definition language).
  std::string expression;
  /// Optional mesh binding: binds x/y/z/dims and supplies the default
  /// element count, exactly like Engine::bind_mesh.
  const mesh::RectilinearMesh* mesh = nullptr;
  std::vector<FieldRef> fields;
  /// Tenant identity; sessions are created on first use with the service
  /// defaults and arbitrated by the fair-share scheduler.
  std::string session = "default";
  /// Higher-priority requests dispatch before lower-priority ones *within
  /// the same session* (fairness across sessions is the scheduler's job).
  int priority = 0;
  runtime::StrategyKind strategy = runtime::StrategyKind::fusion;
  /// Output element count; 0 derives it from the mesh (or the first bound
  /// field the expression uses).
  std::size_t elements = 0;
  /// Per-request watchdog deadline: a command charged more than this many
  /// times its cost-model estimate is abandoned (vcl::Device watchdog), so
  /// a slow tenant degrades down the fallback ladder instead of starving
  /// the queue. 0 = ServiceOptions::fallback.deadline_factor.
  double deadline_factor = 0.0;
};

enum class RequestStatus {
  queued,     ///< admitted, waiting for dispatch
  rejected,   ///< refused at admission (reject_reason says why)
  completed,  ///< evaluation produced a result
  failed,     ///< evaluation threw (error holds the message)
};

/// Everything one request produced. Coalesced requests share one
/// `evaluation` object (the fan-out is literal: one execution, N owners);
/// the scheduling metrics are per request.
struct ServiceReport {
  RequestStatus status = RequestStatus::queued;
  std::string session;
  /// Why admission refused the request (rejected status only).
  std::string reject_reason;
  /// The evaluation error that failed the request (failed status only).
  std::string error;
  /// Shared result of the (possibly coalesced) evaluation; null unless
  /// status == completed.
  std::shared_ptr<const EvaluationReport> evaluation;
  /// Wall-clock seconds between admission and dispatch.
  double queue_wait_seconds = 0.0;
  /// Requests served by the same evaluation (1 = not coalesced).
  std::size_t coalesced_fanout = 1;
  /// True for the request whose dispatch executed the evaluation; false
  /// for coalesced followers that rode along.
  bool coalesce_leader = true;
  /// 1-based order in which the batch containing this request was
  /// dispatched (0 = never dispatched). Exposes the fair-share schedule.
  std::size_t dispatch_index = 0;
  /// Index into the service's device list that executed the batch.
  int device_index = -1;
};

/// Per-session scheduler configuration.
struct SessionConfig {
  /// Weighted-round-robin share: a session with weight w dispatches w
  /// batches per scheduler cycle. Clamped to >= 1.
  int weight = 1;
  /// Device-memory quota (bytes of live vcl::Buffer allocations, enforced
  /// through the MemoryTracker accounting hook). 0 = unlimited.
  std::size_t quota_bytes = 0;
};

struct SessionStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;
  /// Requests served as coalesced followers (no execution of their own).
  std::size_t coalesced = 0;
  /// Batches this session led (evaluations charged to it).
  std::size_t evaluations = 0;
  std::size_t degradations = 0;
  /// High-water of the session's live device bytes (quota accounting).
  std::size_t quota_high_water_bytes = 0;
  double queue_wait_seconds = 0.0;
};

/// Service-wide counters, all monotonic since construction. The scalar
/// fields are views over the service's `svc=<N>` metrics-registry series
/// (see obs/metrics.hpp); the per-session map is tracked in-service.
struct ServiceSnapshot {
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t rejected_queue_full = 0;
  std::size_t rejected_projection = 0;
  std::size_t rejected_quota = 0;
  /// Rejected because every device had been lost.
  std::size_t rejected_no_device = 0;
  /// Devices retired after a DeviceLost, and the batches they handed back
  /// to the surviving devices (re-run from scratch, tickets unresolved).
  std::size_t devices_lost = 0;
  std::size_t redispatched_batches = 0;
  /// Batches executed (each ran exactly one Engine::evaluate).
  std::size_t executed_evaluations = 0;
  std::size_t completed_requests = 0;
  std::size_t failed_requests = 0;
  /// Requests served without an execution of their own (fan-out wins).
  std::size_t coalesced_requests = 0;
  std::size_t degradations = 0;
  std::size_t command_timeouts = 0;
  std::size_t command_retries = 0;
  std::size_t injected_faults = 0;
  std::size_t max_queue_depth_seen = 0;
  double total_queue_wait_seconds = 0.0;
  /// Resident-buffer pool traffic across the service's devices since
  /// construction (zeros while ServiceOptions::resident_pool is off):
  /// per-device vcl::ResidentPool::stats() deltas against baselines taken
  /// when the service was built, so devices shared across services only
  /// report traffic this service caused.
  std::size_t resident_hits = 0;
  std::size_t resident_misses = 0;
  std::size_t resident_evictions = 0;
  std::size_t resident_invalidations = 0;
  std::size_t resident_upload_bytes_saved = 0;
  /// Cross-request subgraph memoizer traffic (views over the service's
  /// dfgen_memo_* registry series; all zero while memoization is off).
  /// A hit is a shared subtree served from the materialized-intermediate
  /// cache instead of recomputed; bytes/recompute-saved total what those
  /// hits avoided (materialized bytes, planner-estimated sim time).
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  std::size_t memo_admits = 0;
  std::size_t memo_evictions = 0;
  std::size_t memo_invalidations = 0;
  std::size_t memo_bytes_saved = 0;
  std::size_t memo_recompute_saved_nanos = 0;
  /// Coalescer near-misses: admitted requests whose whole-network
  /// fingerprint differs from every queued/seen request's but which share
  /// at least one non-leaf subtree fingerprint — the memo hit-rate
  /// ceiling, counted whether or not memoization is enabled.
  std::size_t memo_candidate_requests = 0;
  std::map<std::string, SessionStats> sessions;
};

/// Service-level knobs.
struct ServiceOptions {
  /// Admission: total queued requests across all sessions.
  std::size_t max_queue_depth = 64;
  /// Default quota for sessions not configured explicitly (0 = unlimited).
  std::size_t default_session_quota_bytes = 0;
  /// Batch key-equal concurrent requests into one evaluation.
  bool coalescing = true;
  /// Degradation policy for every evaluation; resilient() by default so a
  /// quota-capped or slow tenant lands on a cheaper rung instead of
  /// failing (strict single-caller semantics stay available by disabling).
  /// Its deadline_factor is the watchdog deadline for requests that do not
  /// set their own.
  runtime::FallbackPolicy fallback = runtime::FallbackPolicy::resilient();
  /// Construct with dispatch suspended; resume() starts the workers. Lets
  /// callers submit a burst atomically — the coalescer then sees the whole
  /// burst, which the tests use for determinism.
  bool start_paused = false;
  /// Keep tenants' field uploads resident on the service's devices across
  /// batches (vcl::ResidentPool): a tenant re-deriving fields from the
  /// same bound arrays skips their uploads, and dispatch prefers queued
  /// requests whose arrays are already warm on the picking worker's
  /// device. Off by default. Tenants that mutate a bound array between
  /// submissions must bump its tag (vcl::note_host_mutation).
  bool resident_pool = false;
  /// Execution backend for every worker engine's device. Unset defers to
  /// DFGEN_BACKEND (resolved per evaluation).
  std::optional<kernels::BackendKind> backend;
  /// Memoize shared subtrees across *different* tenants' networks: batch
  /// leaders' plans are rewritten to serve repeated subtrees from a
  /// device-resident materialized-intermediate cache (memo::Memoizer).
  /// Off by default — the off path is byte-identical to previous
  /// releases.
  bool memo = false;
  /// Materialized-intermediate cache capacity in bytes. 0 = a quarter of
  /// the largest device's memory.
  std::size_t memo_cap_bytes = 0;
};

}  // namespace dfg::service
