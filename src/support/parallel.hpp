// Minimal shared-memory parallel loop support.
//
// Kernel NDRange execution in the virtual compute layer is divided into
// contiguous chunks, mirroring how an OpenCL CPU runtime maps work-items
// onto cores. Like such a runtime, and like the OpenMP code DaCe
// generates, the process keeps one worker team: hardware_concurrency() - 1
// threads, started on the first call that needs them and joined at exit.
// Each call queues its chunks on the team and takes chunks itself until
// none is left, then waits only for its own chunks still running on team
// threads; concurrent callers share the team. Idle team threads block on
// a condition variable, so they cost no CPU. If a team thread cannot be
// started the team runs with the threads it has; with none, the caller
// runs every chunk. With one worker or one grain of work, or when called
// from inside a chunk, the call runs on the calling thread.
//
// Chunks are multiples of a caller-supplied *grain* (except the final
// partial chunk), defaulting to the kernel VM's tile size: a tile of
// work-items is never split across two workers, so the tiled interpreter
// always sees full tiles except at the NDRange tail. A grain of 1
// reproduces the historical ceil(n/workers) chunking exactly. The
// partition depends only on (n, grain, worker_count()), never on which
// thread runs a chunk.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>

namespace dfg::support {

/// Default parallel_for grain, matching kernels::kTileSize (kept as an
/// independent constant so support/ does not depend on kernels/).
inline constexpr std::size_t kDefaultGrain = 1024;

/// Number of chunks parallel_for splits work into. Defaults to
/// std::thread::hardware_concurrency() (at least 1).
std::size_t worker_count();

/// Overrides the worker count (useful for tests); pass 0 to restore the
/// hardware default. Takes effect on the next parallel_for call: it sets
/// the partition, not the size of the worker team.
void set_worker_count(std::size_t workers);

namespace detail {

/// Runs body(index * chunk, min(n, (index + 1) * chunk)) for every chunk
/// index covering [0, n) on the worker team and the calling thread, and
/// returns once all of them are done, rethrowing the first exception a
/// chunk threw. `run` calls the type-erased `body`.
void run_chunks(std::size_t n, std::size_t chunk,
                void (*run)(void* body, std::size_t begin, std::size_t end),
                void* body);

}  // namespace detail

/// Invokes body(begin, end) over disjoint sub-ranges covering [0, n).
/// The body must be safe to call concurrently on disjoint ranges; each
/// range is a multiple of `grain` items except possibly the last.
/// Exceptions thrown by the body are captured and the first one rethrown
/// on the calling thread after all of the call's chunks finish. Templated
/// over the body so lambdas are invoked directly (no std::function
/// allocation or indirect call per chunk beyond one function pointer).
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
  using BodyType = std::remove_reference_t<Body>;
  const std::size_t chunk = ((tiles + workers - 1) / workers) * grain;
  detail::run_chunks(
      n, chunk,
      [](void* erased, std::size_t begin, std::size_t end) {
        (*static_cast<BodyType*>(erased))(begin, end);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

}  // namespace dfg::support
