// Service layer: the concurrent evaluation front door.
//
// The paper's host interface (§III-D) serves one caller; in situ, many
// consumers want derived fields from the same simulation state at once.
// EvalService multiplexes them over a fixed set of devices:
//
//   * Admission control — submit() either admits a request into a bounded
//     queue or rejects it immediately with a reason: queue depth exceeded,
//     or no device can ever fit the request's planner-projected memory
//     floor. Rejection is backpressure the caller can act on, instead of
//     unbounded queueing.
//   * Request coalescing — concurrently-queued requests with equal
//     CoalesceKeys (same network identity, mesh, element count, bound
//     arrays, strategy) execute once and fan the shared report out to every
//     ticket. Piggybacks the fused-program cache: followers cost zero
//     device work, the leader usually hits the cache.
//   * One FIFO queue — one worker per device pops the oldest request;
//     with the resident pool on, the oldest request whose arrays are all
//     warm on that worker's device goes first. Every batch runs under
//     ServiceOptions::fallback, watchdog deadline included.
//   * Device loss — a worker whose device throws DeviceLost retires it and
//     hands its batch back, whole, to the head of the queue, so the
//     surviving devices re-run it from scratch; once every device is gone,
//     queued tickets fail and submit() rejects.
//   * Observability — every ticket resolves to a ServiceReport (shared
//     EvaluationReport + queue wait, fan-out, dispatch order), snapshot()
//     aggregates service-wide counters, and each batch runs under a
//     `dispatch:<session>` span in the process span trace
//     (obs::SpanTracer::to_chrome_trace).
//
// Threading: submit() and snapshot() are safe from any thread; one worker
// thread per device drives Engine::evaluate under the engine thread-safety
// contract (distinct engines, distinct devices). Tickets are fulfilled
// outside the service lock, so wait() never blocks dispatch.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "memo/memoizer.hpp"
#include "service/coalescer.hpp"
#include "service/report.hpp"
#include "vcl/device.hpp"
#include "vcl/resident_pool.hpp"

namespace dfg::service {

namespace detail {
/// Shared completion state behind a Ticket (one per submitted request).
struct TicketState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  ServiceReport report;
};
}  // namespace detail

/// Handle to one submitted request. Copyable (all copies share the state);
/// wait() blocks until the service resolves the request and returns the
/// report, which stays valid as long as any Ticket copy lives.
class Ticket {
 public:
  Ticket() = default;

  /// Blocks until the request is rejected, completed or failed.
  const ServiceReport& wait() const&;
  /// On a temporary ticket (`svc.submit(r).wait()`) the shared state dies
  /// with the full expression, so the report is returned by value.
  ServiceReport wait() const&&;
  /// Non-blocking: true once wait() would return immediately.
  bool ready() const;

 private:
  friend class EvalService;
  explicit Ticket(std::shared_ptr<detail::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::TicketState> state_;
};

class EvalService {
 public:
  /// One worker thread is started per device; devices must outlive the
  /// service and must not be driven by anyone else while it runs.
  explicit EvalService(std::vector<vcl::Device*> devices,
                       ServiceOptions options = {});
  /// Drains every queued request, then joins the workers.
  ~EvalService();

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Admits or rejects `request`. Never blocks on device work: admission
  /// (parse, projection) runs on the caller's thread and the returned
  /// ticket resolves asynchronously. A rejected request's ticket
  /// is already resolved with status == rejected; once every device has
  /// been lost, every request is rejected.
  Ticket submit(Request request);

  /// Starts dispatch when the service was constructed start_paused (no-op
  /// otherwise). Submissions made while paused are queued atomically, so
  /// the coalescer sees the whole burst at once.
  void resume();

  /// Blocks until every admitted request has resolved.
  void drain();

  /// Declares that the host mutated the array at `ptr` (a time-series
  /// driver stepping the simulation between submit bursts): bumps its
  /// generation tag, which every device's resident pool and the memo
  /// layer's intermediate cache check on their next lookup, so whichever
  /// worker the next request lands on re-uploads. Same as
  /// vcl::note_host_mutation. Callers must drain() (or otherwise know the
  /// array's requests resolved) before mutating the host data itself;
  /// this call only publishes the mutation.
  void note_host_mutation(const void* ptr) { vcl::note_host_mutation(ptr); }

  ServiceSnapshot snapshot() const;

 private:
  struct Pending {
    Request request;
    /// The parsed network (admission already built it for projection);
    /// dispatch and the memoizer reuse it.
    std::shared_ptr<const dataflow::Network> network;
    std::size_t elements = 0;
    CoalesceKey key;
    std::shared_ptr<detail::TicketState> ticket;
    std::chrono::steady_clock::time_point admitted_at{};
  };

  /// Pops the next request for `device`: the oldest one, except that with
  /// the resident pool active the oldest request whose arrays are all warm
  /// on `device` goes first, so warm work lands where its buffers live.
  std::shared_ptr<Pending> pop_locked(const vcl::Device& device);
  /// Publishes the queue length to the queue-depth gauge and its high-water.
  void note_queue_depth_locked();
  void worker(std::size_t device_index);
  /// Runs one batch and resolves its tickets. DeviceLost propagates with
  /// nothing resolved, so the worker can hand the batch back.
  void execute_batch(std::size_t device_index,
                     const std::vector<std::shared_ptr<Pending>>& batch);
  /// Retires device `device_index` after a DeviceLost: puts `batch` back
  /// at the head of the queue for the surviving workers. When no device
  /// survives, empties the queue instead and returns the requests, already
  /// counted as failed, for the caller to resolve outside the lock.
  std::vector<std::shared_ptr<Pending>> retire_device_locked(
      std::size_t device_index,
      const std::vector<std::shared_ptr<Pending>>& batch);

  std::vector<vcl::Device*> devices_;
  ServiceOptions options_;
  /// Process-unique instance label for this service's registry series
  /// (`svc=<N>`), so concurrent services never merge their counters.
  std::string svc_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable drain_cv_;
  bool paused_ = false;
  bool stopping_ = false;
  std::deque<std::shared_ptr<Pending>> queue_;
  std::size_t in_flight_ = 0;
  std::size_t dispatch_counter_ = 0;
  /// Devices whose worker has not retired after a DeviceLost.
  std::vector<bool> live_;
  std::size_t live_count_ = 0;
  /// Queue-depth high-water and wall-clock waits. The service-wide
  /// monotonic scalars are *not* accumulated here: they live
  /// in the metrics registry (the `svc=<N>` series) and snapshot() reads
  /// them back, making ServiceSnapshot a view over registry counters.
  ServiceSnapshot snapshot_;
  /// Per-device resident-pool stats at construction; snapshot() reports
  /// deltas against these so pre-existing pool traffic is excluded.
  std::vector<vcl::ResidentPool::Stats> resident_baseline_;
  /// Cross-request subgraph memoizer (memo/). Constructed always — its
  /// SubgraphIndex feeds the near-miss counter even with memoization off —
  /// but execute_batch only routes evaluations through it when
  /// ServiceOptions::memo says so.
  std::unique_ptr<memo::Memoizer> memo_;

  std::vector<std::thread> workers_;
};

}  // namespace dfg::service
