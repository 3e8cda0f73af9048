#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "dataflow/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/planner.hpp"
#include "service/admission.hpp"
#include "support/error.hpp"
#include "vcl/trace.hpp"

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

/// Largest streamed chunk (cells) whose planned high-water fits `budget`,
/// or 0 when even the minimal chunk does not (the quota guard then vetoes
/// the rung and the ladder moves on). The streamed strategy auto-sizes its
/// chunks from the device's *free memory*, which a session quota does not
/// shrink — so the service must pick the chunk explicitly or a quota-capped
/// tenant would be vetoed on a rung that could have fit. The planner's
/// estimates are bit-exact against the tracker, so the largest fitting
/// chunk is decidable by binary search.
std::size_t quota_chunk_cells(const dataflow::Network& network,
                              const runtime::FieldBindings& bindings,
                              std::size_t elements, std::size_t budget) {
  const auto fits = [&](std::size_t chunk) {
    return runtime::estimate_high_water(network, bindings, elements,
                                        runtime::StrategyKind::streamed,
                                        chunk) <= budget;
  };
  try {
    if (!fits(1)) return 0;
    std::size_t lo = 1;  // fits
    std::size_t hi = elements;
    if (fits(hi)) return hi;
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      (fits(mid) ? lo : hi) = mid;
    }
    return lo;
  } catch (const KernelError&) {
    return 0;  // streamed cannot execute this network at all
  }
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
      live_count_(devices_.size()), device_logs_(devices_.size()) {
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
  std::size_t memo_cap = options_.memo_cap_bytes;
  if (memo_cap == 0) {
    // Default: a quarter of the largest device's memory, so cached
    // intermediates never crowd out the working set the MemoryTracker and
    // ResidentPool watermarks are sized for.
    std::size_t best_capacity = 0;
    for (const vcl::Device* device : devices_) {
      best_capacity = std::max(best_capacity, device->memory().capacity());
    }
    memo_cap = best_capacity / 4;
  }
  memo_options.capacity_bytes = memo_cap;
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
  drain_cv_.wait(lock, [&] { return queued_count_ == 0 && in_flight_ == 0; });
}

void EvalService::note_host_mutation(const void* ptr) {
  // The generation bump is the authoritative signal (memo intermediates
  // and any pool check it lazily); dropping the per-device resident
  // entries eagerly also frees their device memory right away.
  vcl::note_host_mutation(ptr);
  for (vcl::Device* device : devices_) device->resident().invalidate(ptr);
}

void EvalService::configure_session(const std::string& id,
                                    SessionConfig config) {
  std::scoped_lock lock(mutex_);
  Session& session = session_locked(id);
  config.weight = std::max(config.weight, 1);
  session.config = config;
  scheduler_.add_session(id, config.weight);
}

EvalService::Session& EvalService::session_locked(const std::string& id) {
  auto [it, inserted] = sessions_.try_emplace(id);
  if (inserted) {
    it->second.config.weight = 1;
    it->second.config.quota_bytes = options_.default_session_quota_bytes;
    scheduler_.add_session(id, 1);
  }
  return it->second;
}

void EvalService::reject(const std::shared_ptr<detail::TicketState>& ticket,
                         std::string reason) {
  std::scoped_lock lock(ticket->mutex);
  ticket->report.status = RequestStatus::rejected;
  ticket->report.reject_reason = std::move(reason);
  ticket->done = true;
  ticket->cv.notify_all();
}

void EvalService::resolve(const std::shared_ptr<Pending>& pending,
                          ServiceReport report) {
  const std::shared_ptr<detail::TicketState>& ticket = pending->ticket;
  std::scoped_lock lock(ticket->mutex);
  ticket->report = std::move(report);
  ticket->done = true;
  ticket->cv.notify_all();
}

Ticket EvalService::submit(Request request) {
  auto state = std::make_shared<detail::TicketState>();
  state->report.session = request.session;
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
  if (failure.empty() && elements == 0) {
    if (request.mesh != nullptr) {
      elements = request.mesh->cell_count();
    } else {
      for (const std::string& name : network->spec().field_names()) {
        if (name == "x" || name == "y" || name == "z" || name == "dims") {
          continue;
        }
        for (const FieldRef& field : request.fields) {
          if (field.name == name) {
            elements = field.values.size();
            break;
          }
        }
        if (elements != 0) break;
      }
      if (elements == 0) {
        failure =
            "cannot infer the output element count: bind a mesh or set "
            "Request::elements";
      }
    }
  }

  std::size_t floor = kNoFloor;
  memo::EvalContext memo_ctx;
  if (failure.empty()) {
    runtime::FieldBindings probe;
    if (request.mesh != nullptr) probe.bind_mesh(*request.mesh);
    for (const FieldRef& field : request.fields) {
      probe.bind(field.name, field.values);
    }
    floor = projected_floor_bytes(*network, probe, elements, request.strategy,
                                  options_.fallback.enabled);
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

  std::vector<std::shared_ptr<Pending>> batch_to_notify;
  {
    std::scoped_lock lock(mutex_);
    obs::MetricsRegistry& reg = obs::metrics();
    reg.add(requests_counter(svc_, "submitted"));
    Session& session = session_locked(request.session);
    ++snapshot_.sessions[request.session].submitted;

    if (!failure.empty()) {
      reg.add(requests_counter(svc_, "failed"));
      ++snapshot_.sessions[request.session].failed;
      std::scoped_lock ticket_lock(state->mutex);
      state->report.status = RequestStatus::failed;
      state->report.error = failure;
      state->done = true;
      state->cv.notify_all();
      return ticket;
    }

    std::string reject_reason;
    if (live_count_ == 0) {
      reg.add(rejects_counter(svc_, "no_device"));
      reject_reason = "no device: all " + std::to_string(devices_.size()) +
                      " of this service's devices were lost";
    } else if (queued_count_ >= options_.max_queue_depth) {
      reg.add(rejects_counter(svc_, "queue_full"));
      reject_reason = "queue full: " + std::to_string(queued_count_) +
                      " requests queued (limit " +
                      std::to_string(options_.max_queue_depth) + ")";
    } else if (floor != kNoFloor) {
      std::size_t best_capacity = 0;
      for (std::size_t i = 0; i < devices_.size(); ++i) {
        if (!live_[i]) continue;
        best_capacity =
            std::max(best_capacity, devices_[i]->memory().capacity());
      }
      const std::size_t quota = session.config.quota_bytes;
      if (floor > best_capacity) {
        reg.add(rejects_counter(svc_, "projection"));
        reject_reason = "projected device-memory floor of " +
                        std::to_string(floor) + " bytes exceeds every "
                        "device's capacity (largest " +
                        std::to_string(best_capacity) + " bytes)";
      } else if (quota > 0 && floor > quota) {
        reg.add(rejects_counter(svc_, "quota"));
        reject_reason = "projected device-memory floor of " +
                        std::to_string(floor) + " bytes exceeds session '" +
                        request.session + "' quota of " +
                        std::to_string(quota) + " bytes on every "
                        "permissible strategy rung";
      }
    }
    if (!reject_reason.empty()) {
      ++snapshot_.sessions[request.session].rejected;
      std::scoped_lock ticket_lock(state->mutex);
      state->report.status = RequestStatus::rejected;
      state->report.reject_reason = std::move(reject_reason);
      state->done = true;
      state->cv.notify_all();
      return ticket;
    }

    auto pending = std::make_shared<Pending>();
    pending->key = make_coalesce_key(request, *network, elements);
    pending->network = network;
    pending->request = std::move(request);
    pending->elements = elements;
    pending->ticket = state;
    pending->admitted_at = std::chrono::steady_clock::now();
    session.queue.push_back(std::move(pending));
    ++queued_count_;
    reg.add(requests_counter(svc_, "admitted"));
    snapshot_.max_queue_depth_seen =
        std::max(snapshot_.max_queue_depth_seen, queued_count_);
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
  reg.gauge_set(reg.gauge("dfgen_svc_queue_depth", labels), queued_count_);
  reg.gauge_max(reg.gauge("dfgen_svc_queue_depth_high_water", labels),
                queued_count_);
}

std::shared_ptr<EvalService::Pending> EvalService::pop_locked(
    Session& session, const vcl::Device& device) {
  // Highest priority first; FIFO among equals — except that with the
  // resident pool active, a request whose bound arrays are all warm on
  // this worker's device beats colder equals (the would_hit probe is safe
  // here: the worker owns its idle device while it holds the service
  // lock). Priority strictly dominates affinity, so a hot-array tenant
  // can never starve a higher-priority one.
  const auto warm_on_device = [&](const Pending& pending) {
    if (!device.resident().enabled() || pending.request.fields.empty()) {
      return false;
    }
    for (const FieldRef& field : pending.request.fields) {
      if (!device.resident().would_hit(field.values)) return false;
    }
    return true;
  };
  auto best = session.queue.begin();
  bool best_warm = warm_on_device(**best);
  for (auto it = session.queue.begin(); it != session.queue.end(); ++it) {
    if ((*it)->request.priority > (*best)->request.priority) {
      best = it;
      best_warm = warm_on_device(**best);
    } else if ((*it)->request.priority == (*best)->request.priority &&
               !best_warm && warm_on_device(**it)) {
      best = it;
      best_warm = true;
    }
  }
  std::shared_ptr<Pending> pending = *best;
  session.queue.erase(best);
  --queued_count_;
  note_queue_depth_locked();
  return pending;
}

void EvalService::worker(std::size_t device_index) {
  std::unique_lock lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return stopping_ || (!paused_ && queued_count_ > 0);
    });
    if (queued_count_ == 0) {
      if (stopping_) return;
      continue;
    }

    const std::string picked = scheduler_.pick([&](const std::string& id) {
      auto it = sessions_.find(id);
      return it != sessions_.end() && !it->second.queue.empty();
    });
    if (picked.empty()) continue;

    std::vector<std::shared_ptr<Pending>> batch;
    batch.push_back(
        pop_locked(sessions_.at(picked), *devices_[device_index]));
    if (options_.coalescing) {
      const CoalesceKey& key = batch.front()->key;
      for (auto& [id, session] : sessions_) {
        for (auto it = session.queue.begin(); it != session.queue.end();) {
          if ((*it)->key == key) {
            batch.push_back(*it);
            it = session.queue.erase(it);
            --queued_count_;
          } else {
            ++it;
          }
        }
      }
      note_queue_depth_locked();
    }
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
        resolve(pending, std::move(report));
      }
    }

    lock.lock();
    --in_flight_;
    if (queued_count_ == 0 && in_flight_ == 0) drain_cv_.notify_all();
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
  // Back to the head of each session's queue, in batch order: the leader
  // and its coalesced followers are re-dispatched like fresh arrivals.
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    sessions_.at((*it)->request.session).queue.push_front(*it);
    ++queued_count_;
  }
  std::vector<std::shared_ptr<Pending>> orphans;
  if (live_count_ > 0) {
    reg.add(svc_counter(svc_, "dfgen_svc_redispatched_batches_total"));
  } else {
    for (auto& [id, session] : sessions_) {
      for (std::shared_ptr<Pending>& pending : session.queue) {
        reg.add(requests_counter(svc_, "failed"));
        ++snapshot_.sessions[id].failed;
        orphans.push_back(std::move(pending));
      }
      session.queue.clear();
    }
    queued_count_ = 0;
  }
  note_queue_depth_locked();
  return orphans;
}

void EvalService::execute_batch(
    std::size_t device_index,
    const std::vector<std::shared_ptr<Pending>>& batch) {
  const std::shared_ptr<Pending>& leader = batch.front();
  const std::string& session_id = leader->request.session;

  // Parent of the Engine's "evaluate:" request span (and everything below
  // it) for this dispatch.
  obs::Span batch_span("dispatch:" + session_id, "batch");

  std::size_t dispatch_index = 0;
  std::size_t quota_bytes = 0;
  SessionUsage* usage = nullptr;
  {
    std::scoped_lock lock(mutex_);
    dispatch_index = ++dispatch_counter_;
    Session& session = session_locked(session_id);
    quota_bytes = session.config.quota_bytes;
    usage = &session.usage;
  }

  // The batch runs under its leader's strategy, session and deadline.
  EngineOptions engine_options;
  engine_options.strategy = leader->request.strategy;
  engine_options.resident_pool = options_.resident_pool;
  engine_options.backend = options_.backend;
  engine_options.fallback = options_.fallback;
  if (leader->request.deadline_factor > 0.0) {
    engine_options.fallback.deadline_factor = leader->request.deadline_factor;
  }
  if (quota_bytes > 0) {
    // Size streamed chunks to the quota, not the device's free memory.
    try {
      runtime::FieldBindings probe;
      if (leader->request.mesh != nullptr) probe.bind_mesh(*leader->request.mesh);
      for (const FieldRef& field : leader->request.fields) {
        probe.bind(field.name, field.values);
      }
      engine_options.streamed_chunk_cells = quota_chunk_cells(
          *leader->network, probe, leader->elements, quota_bytes);
    } catch (const std::exception&) {
      // Planning is advisory: fall through to auto-sizing on any failure.
    }
  }

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
  {
    // Every device byte this batch reserves is charged to the leading
    // session; a veto surfaces as DeviceOutOfMemory inside evaluate and
    // degrades the strategy via the fallback ladder.
    SessionQuotaGuard guard(session_id, quota_bytes, *usage);
    ScopedAllocationHook scoped(device.memory(), &guard);
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
      // The worker retires the device and re-queues the batch; keep the
      // loss on this device's trace timeline.
      merged_log.append(engine.log());
      std::scoped_lock lock(mutex_);
      device_logs_[device_index].append(merged_log);
      throw;
    } catch (const std::exception& e) {
      error = e.what();
      // The failing evaluation's partial log still carries its device
      // events (timeouts, faults) for the incident counters below.
      merged_log.append(engine.log());
    }
  }

  batch_span.add_sim_seconds(merged_log.total_sim_seconds());

  {
    std::scoped_lock lock(mutex_);
    obs::MetricsRegistry& reg = obs::metrics();
    reg.add(svc_counter(svc_, "dfgen_svc_evaluations_total"));
    reg.observe(reg.histogram("dfgen_svc_coalesce_fanout", {{"svc", svc_}}),
                batch.size());
    device_logs_[device_index].append(merged_log);
    SessionStats& leader_stats = snapshot_.sessions[session_id];
    ++leader_stats.evaluations;
    leader_stats.quota_high_water_bytes =
        std::max(leader_stats.quota_high_water_bytes, usage->high_water());
    reg.gauge_max(
        reg.gauge("dfgen_svc_quota_pressure_bytes",
                  {{"svc", svc_}, {"session", session_id}}),
        usage->high_water());
    if (evaluation != nullptr) {
      reg.add(svc_counter(svc_, "dfgen_svc_degradations_total"),
              evaluation->degradations.size());
      leader_stats.degradations += evaluation->degradations.size();
      reg.add(incidents_counter(svc_, "timeout"),
              evaluation->command_timeouts);
      reg.add(incidents_counter(svc_, "retry"), evaluation->command_retries);
      reg.add(incidents_counter(svc_, "fault"), evaluation->injected_faults);
    } else {
      // The failed evaluation left no report; its device events still count.
      reg.add(incidents_counter(svc_, "timeout"),
              merged_log.count(vcl::EventKind::timeout));
      reg.add(incidents_counter(svc_, "fault"), device.fault().run_faults());
    }
    for (const std::shared_ptr<Pending>& pending : batch) {
      SessionStats& stats = snapshot_.sessions[pending->request.session];
      const double wait = seconds_since(pending->admitted_at);
      stats.queue_wait_seconds += wait;
      snapshot_.total_queue_wait_seconds += wait;
      if (evaluation != nullptr) {
        reg.add(requests_counter(svc_, "completed"));
        ++stats.completed;
      } else {
        reg.add(requests_counter(svc_, "failed"));
        ++stats.failed;
      }
      if (pending != leader) {
        reg.add(requests_counter(svc_, "coalesced"));
        ++stats.coalesced;
      }
    }
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
    resolve(pending, std::move(report));
  }
}

ServiceSnapshot EvalService::snapshot() const {
  std::scoped_lock lock(mutex_);
  ServiceSnapshot copy = snapshot_;
  for (const auto& [id, session] : sessions_) {
    SessionStats& stats = copy.sessions[id];
    stats.quota_high_water_bytes =
        std::max(stats.quota_high_water_bytes, session.usage.high_water());
  }
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
  copy.rejected_quota = value(rejects_counter(svc_, "quota"));
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

std::string EvalService::chrome_trace() const {
  std::scoped_lock lock(mutex_);
  std::string merged = "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    vcl::TraceOptions trace_options;
    trace_options.device_name = devices_[i]->spec().name;
    trace_options.pid = static_cast<int>(i) + 1;
    const std::string doc =
        vcl::to_chrome_trace(device_logs_[i], trace_options);
    // Splice this device's event array into the merged document.
    const std::size_t open = doc.find('[');
    const std::size_t close = doc.rfind(']');
    if (open == std::string::npos || close == std::string::npos ||
        close <= open + 1) {
      continue;
    }
    std::string inner = doc.substr(open + 1, close - open - 1);
    // Trim surrounding whitespace left by the per-device pretty-printer.
    const std::size_t begin = inner.find_first_not_of(" \n");
    const std::size_t end = inner.find_last_not_of(" \n,");
    if (begin == std::string::npos) continue;
    if (!first) merged += ",";
    merged += "\n";
    merged += inner.substr(begin, end - begin + 1);
    first = false;
  }
  merged += "\n]}\n";
  return merged;
}

}  // namespace dfg::service
