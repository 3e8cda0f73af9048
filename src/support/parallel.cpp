#include "support/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace dfg::support {

namespace {
std::atomic<std::size_t> g_worker_override{0};

/// Read once: hardware_concurrency() costs a system call or a sysfs read,
/// and worker_count() runs on every parallel_for.
std::size_t hardware_workers() {
  static const std::size_t workers = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? std::size_t{1} : static_cast<std::size_t>(hc);
  }();
  return workers;
}

/// True while this thread runs a chunk (always, on a team thread): a
/// parallel_for issued there runs its chunks inline.
thread_local bool t_in_chunk = false;

/// One parallel_for call's chunks. Lives on the caller's stack; the team
/// holds a pointer to it only while it has unclaimed chunks, and the
/// caller returns only once `unfinished` is zero.
struct Job {
  std::size_t n = 0;
  std::size_t chunk = 0;
  std::size_t chunks = 0;
  void (*run)(void*, std::size_t, std::size_t) = nullptr;
  void* body = nullptr;
  // Guarded by the team mutex.
  std::size_t next = 0;        ///< next chunk index to claim
  std::size_t unfinished = 0;  ///< chunks not yet finished
  std::exception_ptr first_error;
  std::condition_variable finished;
};

/// Runs chunk `index` of `job`; returns what it threw, if anything.
std::exception_ptr run_chunk(const Job& job, std::size_t index) {
  const std::size_t begin = index * job.chunk;
  const std::size_t end = std::min(job.n, begin + job.chunk);
  const bool outer = std::exchange(t_in_chunk, true);
  std::exception_ptr error;
  try {
    job.run(job.body, begin, end);
  } catch (...) {
    error = std::current_exception();
  }
  t_in_chunk = outer;
  return error;
}

class Team {
 public:
  Team() {
    const std::size_t wanted = hardware_workers() - 1;
    threads_.reserve(wanted);
    for (std::size_t i = 0; i < wanted; ++i) {
      try {
        threads_.emplace_back([this] { work(); });
      } catch (const std::exception&) {
        break;  // run with the threads already started, or none
      }
    }
  }

  ~Team() {
    {
      std::scoped_lock lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Queues the job's chunks for the team, takes chunks of it until none
  /// is left unclaimed, and waits for those still running elsewhere.
  void run(Job& job) {
    std::unique_lock lock(mutex_);
    queue_.push_back(&job);
    lock.unlock();
    // One wake-up call for every idle thread: each chunk should start at
    // once, since the call lasts as long as its last chunk.
    wake_.notify_all();
    lock.lock();
    while (job.next < job.chunks) {
      const std::size_t index = claim(job);
      lock.unlock();
      std::exception_ptr error = run_chunk(job, index);
      lock.lock();
      finish(job, std::move(error));
    }
    job.finished.wait(lock, [&] { return job.unfinished == 0; });
  }

 private:
  /// Takes the job's next chunk; a job with none left leaves the queue.
  /// Requires the mutex.
  std::size_t claim(Job& job) {
    const std::size_t index = job.next++;
    if (job.next == job.chunks) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), &job));
    }
    return index;
  }

  /// Records a finished chunk. Requires the mutex, so the caller cannot
  /// see `unfinished` reach zero and destroy the job before this returns.
  static void finish(Job& job, std::exception_ptr error) {
    if (error && !job.first_error) job.first_error = std::move(error);
    if (--job.unfinished == 0) job.finished.notify_one();
  }

  void work() {
    t_in_chunk = true;
    std::unique_lock lock(mutex_);
    for (;;) {
      wake_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;
      Job& job = *queue_.front();
      const std::size_t index = claim(job);
      lock.unlock();
      std::exception_ptr error = run_chunk(job, index);
      lock.lock();
      finish(job, std::move(error));
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;  ///< a job was queued, or the team stops
  std::deque<Job*> queue_;        ///< jobs with unclaimed chunks, FIFO
  bool stopping_ = false;
  std::vector<std::thread> threads_;  // last: its threads use the above
};

Team& team() {
  static Team instance;
  return instance;
}
}  // namespace

std::size_t worker_count() {
  const std::size_t override = g_worker_override.load(std::memory_order_relaxed);
  return override != 0 ? override : hardware_workers();
}

void set_worker_count(std::size_t workers) {
  g_worker_override.store(workers, std::memory_order_relaxed);
}

namespace detail {

void run_chunks(std::size_t n, std::size_t chunk,
                void (*run)(void*, std::size_t, std::size_t), void* body) {
  Job job;
  job.n = n;
  job.chunk = chunk;
  job.chunks = (n + chunk - 1) / chunk;
  job.run = run;
  job.body = body;
  job.unfinished = job.chunks;
  if (t_in_chunk) {
    for (std::size_t index = 0; index < job.chunks; ++index) {
      std::exception_ptr error = run_chunk(job, index);
      if (error && !job.first_error) job.first_error = std::move(error);
    }
  } else {
    team().run(job);
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace detail

}  // namespace dfg::support
