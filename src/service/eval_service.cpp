#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "dataflow/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "service/admission.hpp"
#include "support/error.hpp"
#include "vcl/profiling.hpp"

namespace dfg::service {

namespace {

constexpr std::size_t kNoFloor = std::numeric_limits<std::size_t>::max();

/// Source of the `svc=<N>` instance labels.
std::atomic<std::uint64_t> g_next_service{1};

/// Resolves one of this service's registry counters against the *current*
/// registry (never cached: a test's ScopedMetricsRegistry must capture
/// traffic from services constructed before it was installed).
obs::MetricId svc_counter(const std::string& svc, const char* name,
                          obs::Labels extra = {}) {
  extra.emplace_back("svc", svc);
  return obs::metrics().counter(name, std::move(extra));
}

/// The snapshot scalars are views over these series (see snapshot()).
obs::MetricId requests_counter(const std::string& svc, const char* outcome) {
  return svc_counter(svc, "dfgen_svc_requests_total", {{"outcome", outcome}});
}
obs::MetricId rejects_counter(const std::string& svc, const char* reason) {
  return svc_counter(svc, "dfgen_svc_admission_rejects_total",
                     {{"reason", reason}});
}
obs::MetricId incidents_counter(const std::string& svc, const char* kind) {
  return svc_counter(svc, "dfgen_svc_device_incidents_total",
                     {{"kind", kind}});
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Publishes `report` on `ticket` and wakes its waiters.
void resolve(detail::TicketState& ticket, ServiceReport report) {
  std::scoped_lock lock(ticket.mutex);
  ticket.report = std::move(report);
  ticket.done = true;
  ticket.cv.notify_all();
}

}  // namespace

// ---------------------------------------------------------------------------
// Ticket

const ServiceReport& Ticket::wait() const& {
  if (state_ == nullptr) throw Error("wait() on an empty Ticket");
  std::unique_lock lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->report;
}

ServiceReport Ticket::wait() const&& { return wait(); }

bool Ticket::ready() const {
  if (state_ == nullptr) return false;
  std::scoped_lock lock(state_->mutex);
  return state_->done;
}

// ---------------------------------------------------------------------------
// EvalService

EvalService::EvalService(std::vector<vcl::Device*> devices,
                         ServiceOptions options)
    : devices_(std::move(devices)), options_(options),
      svc_(std::to_string(
          g_next_service.fetch_add(1, std::memory_order_relaxed))),
      paused_(options.start_paused), live_(devices_.size(), true),
      live_count_(devices_.size()) {
  if (devices_.empty()) {
    throw Error("EvalService requires at least one device");
  }
  resident_baseline_.reserve(devices_.size());
  for (const vcl::Device* device : devices_) {
    resident_baseline_.push_back(device->resident().stats());
  }
  // The memoizer exists whether or not memoization is on: its index feeds
  // the near-miss counter (the hit-rate ceiling a memo-off deployment can
  // chart before enabling), and eager construction keeps this service's
  // dfgen_memo_* series schema-stable.
  memo::Memoizer::Options memo_options;
  memo_options.svc = svc_;
  // A quarter of the largest device's memory, so cached intermediates never
  // crowd out the working set the MemoryTracker and ResidentPool watermarks
  // are sized for.
  memo_options.capacity_bytes = 0;
  for (const vcl::Device* device : devices_) {
    memo_options.capacity_bytes = std::max(memo_options.capacity_bytes,
                                           device->memory().capacity() / 4);
  }
  memo_ = std::make_unique<memo::Memoizer>(std::move(memo_options));
  workers_.reserve(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    workers_.emplace_back([this, i] { worker(i); });
  }
}

EvalService::~EvalService() {
  drain();
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : workers_) thread.join();
}

void EvalService::resume() {
  {
    std::scoped_lock lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void EvalService::drain() {
  std::unique_lock lock(mutex_);
  // Dispatch must be running for the queue to empty.
  if (paused_) {
    paused_ = false;
    work_cv_.notify_all();
  }
  drain_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

Ticket EvalService::submit(Request request) {
  auto state = std::make_shared<detail::TicketState>();
  Ticket ticket(state);

  // Parse and resolve outside the service lock: admission work scales with
  // the submitting tenants, not with the dispatch path.
  std::shared_ptr<dataflow::Network> network;
  std::string failure;
  try {
    network = std::make_shared<dataflow::Network>(
        dataflow::build_network(request.expression, {}));
  } catch (const std::exception& error) {
    failure = error.what();
  }

  std::size_t elements = request.elements;
  runtime::FieldBindings probe;
  if (failure.empty()) {
    if (request.mesh != nullptr) probe.bind_mesh(*request.mesh);
    for (const FieldRef& field : request.fields) {
      probe.bind(field.name, field.values);
    }
    if (elements == 0) {
      elements = request.mesh != nullptr
                     ? request.mesh->cell_count()
                     : probe.element_count(network->spec().field_names());
    }
    if (elements == 0) {
      failure =
          "cannot infer the output element count: bind a mesh or set "
          "Request::elements";
    }
  }

  std::size_t floor = kNoFloor;
  memo::EvalContext memo_ctx;
  if (failure.empty()) {
    // The projection walks each rung against the bindings, so it refuses
    // what execution would (an unbound field, a short output array): the
    // ticket fails with that message, as a parse error does.
    try {
      floor = projected_floor_bytes(*network, probe, elements,
                                    request.strategy,
                                    options_.fallback.enabled);
    } catch (const std::exception& error) {
      failure = error.what();
    }
  }
  if (failure.empty()) {
    // Snapshot the request's identity for the memoizer before std::move
    // below; only the admitted path uses it.
    memo_ctx.network = network.get();
    memo_ctx.mesh = request.mesh;
    memo_ctx.elements = elements;
    memo_ctx.fields.reserve(request.fields.size());
    for (const FieldRef& field : request.fields) {
      memo_ctx.fields.push_back(
          {field.name, field.values.data(), field.values.size()});
    }
  }

  {
    std::scoped_lock lock(mutex_);
    obs::MetricsRegistry& reg = obs::metrics();
    reg.add(requests_counter(svc_, "submitted"));

    std::string reject_reason;
    if (!failure.empty()) {
      reg.add(requests_counter(svc_, "failed"));
    } else if (live_count_ == 0) {
      reg.add(rejects_counter(svc_, "no_device"));
      reject_reason = "no device: all " + std::to_string(devices_.size()) +
                      " of this service's devices were lost";
    } else if (queue_.size() >= options_.max_queue_depth) {
      reg.add(rejects_counter(svc_, "queue_full"));
      reject_reason = "queue full: " + std::to_string(queue_.size()) +
                      " requests queued (limit " +
                      std::to_string(options_.max_queue_depth) + ")";
    } else if (floor != kNoFloor) {
      std::size_t best_capacity = 0;
      for (std::size_t i = 0; i < devices_.size(); ++i) {
        if (!live_[i]) continue;
        best_capacity =
            std::max(best_capacity, devices_[i]->memory().capacity());
      }
      if (floor > best_capacity) {
        reg.add(rejects_counter(svc_, "projection"));
        reject_reason = "projected device-memory floor of " +
                        std::to_string(floor) + " bytes exceeds every "
                        "device's capacity (largest " +
                        std::to_string(best_capacity) + " bytes)";
      }
    }
    if (!failure.empty() || !reject_reason.empty()) {
      ServiceReport report;
      report.status = failure.empty() ? RequestStatus::rejected
                                      : RequestStatus::failed;
      report.session = request.session;
      report.error = std::move(failure);
      report.reject_reason = std::move(reject_reason);
      resolve(*state, std::move(report));
      return ticket;
    }

    auto pending = std::make_shared<Pending>();
    pending->key = make_coalesce_key(request, *network, elements);
    pending->network = network;
    pending->request = std::move(request);
    pending->elements = elements;
    pending->ticket = state;
    pending->admitted_at = std::chrono::steady_clock::now();
    queue_.push_back(std::move(pending));
    reg.add(requests_counter(svc_, "admitted"));
    snapshot_.max_queue_depth_seen =
        std::max(snapshot_.max_queue_depth_seen, queue_.size());
    note_queue_depth_locked();
  }
  // Feed the memoizer's subgraph index outside the lock (it is internally
  // synchronized): every *admitted* request contributes its subtree
  // fingerprints, and cross-network sharing bumps the near-miss counter —
  // the failure and reject paths returned above.
  memo_->observe(memo_ctx);
  work_cv_.notify_one();
  return ticket;
}

void EvalService::note_queue_depth_locked() {
  obs::MetricsRegistry& reg = obs::metrics();
  const obs::Labels labels{{"svc", svc_}};
  reg.gauge_set(reg.gauge("dfgen_svc_queue_depth", labels), queue_.size());
  reg.gauge_max(reg.gauge("dfgen_svc_queue_depth_high_water", labels),
                queue_.size());
}

std::shared_ptr<EvalService::Pending> EvalService::pop_locked(
    const vcl::Device& device) {
  // FIFO, except that with the resident pool active the oldest request
  // whose bound arrays are all warm on this worker's device goes first (the
  // would_hit probe is safe here: the worker owns its idle device while it
  // holds the service lock).
  const auto warm_on_device = [&](const std::shared_ptr<Pending>& pending) {
    if (pending->request.fields.empty()) return false;
    for (const FieldRef& field : pending->request.fields) {
      if (!device.resident().would_hit(field.values)) return false;
    }
    return true;
  };
  auto pick = queue_.begin();
  if (device.resident().enabled()) {
    const auto warm =
        std::find_if(queue_.begin(), queue_.end(), warm_on_device);
    if (warm != queue_.end()) pick = warm;
  }
  std::shared_ptr<Pending> pending = std::move(*pick);
  queue_.erase(pick);
  return pending;
}

void EvalService::worker(std::size_t device_index) {
  std::unique_lock lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return stopping_ || (!paused_ && !queue_.empty());
    });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }

    std::vector<std::shared_ptr<Pending>> batch;
    batch.push_back(pop_locked(*devices_[device_index]));
    if (options_.coalescing) {
      const CoalesceKey& key = batch.front()->key;
      for (auto it = queue_.begin(); it != queue_.end();) {
        if ((*it)->key == key) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    note_queue_depth_locked();
    ++in_flight_;
    lock.unlock();
    // More queued work may remain for the other workers.
    work_cv_.notify_one();

    bool lost = false;
    try {
      execute_batch(device_index, batch);
    } catch (const DeviceLost& error) {
      // A lost device never comes back: retire it and let the surviving
      // workers re-run the whole batch. The batch stays in flight until
      // any orphaned tickets are resolved, so drain() cannot return early.
      lost = true;
      lock.lock();
      const std::vector<std::shared_ptr<Pending>> orphans =
          retire_device_locked(device_index, batch);
      lock.unlock();
      work_cv_.notify_all();
      for (const std::shared_ptr<Pending>& pending : orphans) {
        ServiceReport report;
        report.session = pending->request.session;
        report.queue_wait_seconds = seconds_since(pending->admitted_at);
        report.status = RequestStatus::failed;
        report.error = error.what();
        resolve(*pending->ticket, std::move(report));
      }
    }

    lock.lock();
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
    if (lost) return;
  }
}

std::vector<std::shared_ptr<EvalService::Pending>>
EvalService::retire_device_locked(
    std::size_t device_index,
    const std::vector<std::shared_ptr<Pending>>& batch) {
  obs::MetricsRegistry& reg = obs::metrics();
  reg.add(svc_counter(svc_, "dfgen_svc_devices_lost_total"));
  live_[device_index] = false;
  --live_count_;
  // Back to the head of the queue, in batch order: the leader and its
  // coalesced followers are re-dispatched like fresh arrivals.
  queue_.insert(queue_.begin(), batch.begin(), batch.end());
  std::vector<std::shared_ptr<Pending>> orphans;
  if (live_count_ > 0) {
    reg.add(svc_counter(svc_, "dfgen_svc_redispatched_batches_total"));
  } else {
    reg.add(requests_counter(svc_, "failed"), queue_.size());
    orphans.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
    queue_.clear();
  }
  note_queue_depth_locked();
  return orphans;
}

void EvalService::execute_batch(
    std::size_t device_index,
    const std::vector<std::shared_ptr<Pending>>& batch) {
  const std::shared_ptr<Pending>& leader = batch.front();

  // Parent of the Engine's "evaluate:" request span (and everything below
  // it) for this dispatch.
  obs::Span batch_span("dispatch:" + leader->request.session, "batch");

  std::size_t dispatch_index = 0;
  {
    std::scoped_lock lock(mutex_);
    dispatch_index = ++dispatch_counter_;
  }

  // The batch runs under its leader's strategy (the strategy is part of
  // the coalesce key, so every member asked for it).
  EngineOptions engine_options;
  engine_options.strategy = leader->request.strategy;
  engine_options.resident_pool = options_.resident_pool;
  engine_options.backend = options_.backend;
  engine_options.fallback = options_.fallback;

  vcl::Device& device = *devices_[device_index];
  Engine engine(device, engine_options);
  if (leader->request.mesh != nullptr) engine.bind_mesh(*leader->request.mesh);
  for (const FieldRef& field : leader->request.fields) {
    engine.bind(field.name, field.values);
  }

  std::shared_ptr<const EvaluationReport> evaluation;
  std::string error;
  // Merged profiling for the whole batch: the memo path runs several
  // evaluations (sub-materializations plus the rewritten consumer), and
  // the engine clears its log per evaluation. The memo-off path appends
  // its single evaluation's log, so its content is byte-identical to
  // engine.log().
  vcl::ProfilingLog merged_log;
  try {
    if (options_.memo) {
      memo::EvalContext ctx;
      ctx.network = leader->network.get();
      ctx.mesh = leader->request.mesh;
      ctx.elements = leader->elements;
      ctx.fields.reserve(leader->request.fields.size());
      for (const FieldRef& field : leader->request.fields) {
        ctx.fields.push_back(
            {field.name, field.values.data(), field.values.size()});
      }
      evaluation = std::make_shared<const EvaluationReport>(
          memo_->evaluate(engine, ctx, &merged_log));
    } else {
      evaluation = std::make_shared<const EvaluationReport>(
          engine.evaluate_network(*leader->network, leader->elements));
      merged_log.append(engine.log());
    }
  } catch (const DeviceLost&) {
    throw;  // the worker retires the device and re-queues the batch
  } catch (const std::exception& e) {
    error = e.what();
    // The failing evaluation's partial log still carries its device
    // events (timeouts, retries, faults) for the incident counters below.
    merged_log.append(engine.log());
  }

  batch_span.add_sim_seconds(merged_log.total_sim_seconds());
  const vcl::EventTally incidents = vcl::tally(merged_log.events());

  {
    std::scoped_lock lock(mutex_);
    obs::MetricsRegistry& reg = obs::metrics();
    reg.add(svc_counter(svc_, "dfgen_svc_evaluations_total"));
    reg.observe(reg.histogram("dfgen_svc_coalesce_fanout", {{"svc", svc_}}),
                batch.size());
    if (evaluation != nullptr) {
      reg.add(svc_counter(svc_, "dfgen_svc_degradations_total"),
              evaluation->degradations.size());
    }
    // Counted from the log on both paths: a failed evaluation leaves no
    // report, but its device events still happened.
    reg.add(incidents_counter(svc_, "timeout"), incidents.timeouts);
    reg.add(incidents_counter(svc_, "retry"), incidents.retries);
    reg.add(incidents_counter(svc_, "fault"), incidents.injected_faults);
    for (const std::shared_ptr<Pending>& pending : batch) {
      snapshot_.total_queue_wait_seconds += seconds_since(pending->admitted_at);
    }
    reg.add(requests_counter(svc_, evaluation != nullptr ? "completed"
                                                         : "failed"),
            batch.size());
    reg.add(requests_counter(svc_, "coalesced"), batch.size() - 1);
  }

  for (const std::shared_ptr<Pending>& pending : batch) {
    ServiceReport report;
    report.session = pending->request.session;
    report.queue_wait_seconds = seconds_since(pending->admitted_at);
    report.coalesced_fanout = batch.size();
    report.coalesce_leader = pending == leader;
    report.dispatch_index = dispatch_index;
    report.device_index = static_cast<int>(device_index);
    if (evaluation != nullptr) {
      report.status = RequestStatus::completed;
      report.evaluation = evaluation;
    } else {
      report.status = RequestStatus::failed;
      report.error = error;
    }
    resolve(*pending->ticket, std::move(report));
  }
}

ServiceSnapshot EvalService::snapshot() const {
  std::scoped_lock lock(mutex_);
  ServiceSnapshot copy = snapshot_;
  // The service-wide scalars are delta-free views over this instance's
  // registry series (counter_value merges every worker thread's shard).
  obs::MetricsRegistry& reg = obs::metrics();
  const auto value = [&](obs::MetricId id) { return reg.counter_value(id); };
  copy.submitted = value(requests_counter(svc_, "submitted"));
  copy.admitted = value(requests_counter(svc_, "admitted"));
  copy.completed_requests = value(requests_counter(svc_, "completed"));
  copy.failed_requests = value(requests_counter(svc_, "failed"));
  copy.coalesced_requests = value(requests_counter(svc_, "coalesced"));
  copy.rejected_queue_full = value(rejects_counter(svc_, "queue_full"));
  copy.rejected_projection = value(rejects_counter(svc_, "projection"));
  copy.rejected_no_device = value(rejects_counter(svc_, "no_device"));
  copy.devices_lost = value(svc_counter(svc_, "dfgen_svc_devices_lost_total"));
  copy.redispatched_batches =
      value(svc_counter(svc_, "dfgen_svc_redispatched_batches_total"));
  copy.executed_evaluations =
      value(svc_counter(svc_, "dfgen_svc_evaluations_total"));
  copy.degradations = value(svc_counter(svc_, "dfgen_svc_degradations_total"));
  copy.command_timeouts = value(incidents_counter(svc_, "timeout"));
  copy.command_retries = value(incidents_counter(svc_, "retry"));
  copy.injected_faults = value(incidents_counter(svc_, "fault"));
  const auto memo_value = [&](const char* name) {
    return value(svc_counter(svc_, name));
  };
  copy.memo_hits = memo_value("dfgen_memo_hits_total");
  copy.memo_misses = memo_value("dfgen_memo_misses_total");
  copy.memo_admits = memo_value("dfgen_memo_admits_total");
  copy.memo_evictions = memo_value("dfgen_memo_evictions_total");
  copy.memo_invalidations = memo_value("dfgen_memo_invalidations_total");
  copy.memo_bytes_saved = memo_value("dfgen_memo_bytes_saved_total");
  copy.memo_recompute_saved_nanos =
      memo_value("dfgen_memo_recompute_saved_nanos_total");
  copy.memo_candidate_requests =
      memo_value("dfgen_svc_memo_candidates_total");
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const vcl::ResidentPool::Stats now = devices_[i]->resident().stats();
    const vcl::ResidentPool::Stats& base = resident_baseline_[i];
    copy.resident_hits += now.hits - base.hits;
    copy.resident_misses += now.misses - base.misses;
    copy.resident_evictions += now.evictions - base.evictions;
    copy.resident_invalidations += now.invalidations - base.invalidations;
    copy.resident_upload_bytes_saved +=
        now.upload_bytes_saved - base.upload_bytes_saved;
  }
  return copy;
}

}  // namespace dfg::service
