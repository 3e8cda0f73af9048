// Service layer: request coalescing key.
//
// The run-time code-generation argument (Klöckner et al.: generate once,
// serve many) applied to whole evaluation requests: concurrently-queued
// requests that would execute the *same* evaluation are batched, executed
// once, and the result fanned out. Two requests coalesce exactly when
//   * their networks share a canonical fingerprint (same generated
//     programs — the fused-program cache key),
//   * they bind the same mesh object and resolve the same element count,
//   * they bind the identical host arrays (pointer + extent identity: the
//     in-situ contract hands the service views of host memory, so view
//     identity is the sound data-equality proxy — equal-content copies in
//     different storage do not coalesce, which is conservative but never
//     wrong), and
//   * they request the same strategy.
// The session label is deliberately NOT part of the key: the batch's span
// carries its leader's session, and followers simply receive the shared
// result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/network.hpp"
#include "service/report.hpp"

namespace dfg::service {

struct CoalesceKey {
  std::uint64_t network_fingerprint = 0;
  const mesh::RectilinearMesh* mesh = nullptr;
  std::size_t elements = 0;
  runtime::StrategyKind strategy{};
  /// (name, data pointer, extent) of every bound field, sorted by name.
  std::vector<std::tuple<std::string, const float*, std::size_t>> fields;

  bool operator==(const CoalesceKey&) const = default;
};

/// Builds the key for `request` whose network is already initialised.
/// `resolved_elements` is the element count admission resolved (explicit,
/// or the mesh cell count).
CoalesceKey make_coalesce_key(const Request& request,
                              const dataflow::Network& network,
                              std::size_t resolved_elements);

}  // namespace dfg::service
