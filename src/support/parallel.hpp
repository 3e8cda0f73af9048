// Minimal shared-memory parallel loop support.
//
// Kernel NDRange execution in the virtual compute layer is divided into
// contiguous chunks, mirroring how an OpenCL CPU runtime maps work-items
// onto cores. There is no pool: each call starts one thread per chunk (at
// most worker_count()) and joins them before it returns; with one worker
// or one grain of work the body runs on the calling thread.
//
// Chunks are multiples of a caller-supplied *grain* (except the final
// partial chunk), defaulting to the kernel VM's tile size: a tile of
// work-items is never split across two workers, so the tiled interpreter
// always sees full tiles except at the NDRange tail. A grain of 1
// reproduces the historical ceil(n/workers) chunking exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace dfg::support {

/// Default parallel_for grain, matching kernels::kTileSize (kept as an
/// independent constant so support/ does not depend on kernels/).
inline constexpr std::size_t kDefaultGrain = 1024;

/// Number of worker threads used by parallel_for. Defaults to
/// std::thread::hardware_concurrency() (at least 1).
std::size_t worker_count();

/// Overrides the worker count (useful for tests); pass 0 to restore the
/// hardware default. Takes effect on the next parallel_for call.
void set_worker_count(std::size_t workers);

/// Invokes body(begin, end) over disjoint sub-ranges covering [0, n).
/// The body must be safe to call concurrently on disjoint ranges; each
/// range is a multiple of `grain` items except possibly the last.
/// Exceptions thrown by the body are captured and the first one rethrown
/// on the calling thread after all workers finish. Templated over the body
/// so lambdas are invoked directly (no std::function allocation or
/// indirect call per chunk).
template <typename Body>
void parallel_for(std::size_t n, Body&& body,
                  std::size_t grain = kDefaultGrain) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t tiles = (n + grain - 1) / grain;
  const std::size_t workers = std::min(worker_count(), tiles);
  if (workers <= 1) {
    body(std::size_t{0}, n);
    return;
  }

  const std::size_t chunk = ((tiles + workers - 1) / workers) * grain;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  std::exception_ptr first_error;
  std::mutex error_mutex;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = w * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    threads.emplace_back([&, begin, end] {
      try {
        body(begin, end);
      } catch (...) {
        std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dfg::support
