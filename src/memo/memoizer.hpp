// Memo layer: the cross-request subgraph memoizer.
//
// The EvalService's memo-aware batch planner, sitting ahead of the
// coalescer's identical-request dedup: where the coalescer fans one
// evaluation out to equal requests, the memoizer makes *different*
// requests share their common subtrees. Per batch it
//
//   1. greedily selects maximal non-overlapping memoizable subtrees of
//      the leader's network (enumerate_candidates order);
//   2. serves selected subtrees from the IntermediateCache when their
//      key (structure, then bound-array content identity) hits — exactly,
//      the cache compares the key bytes — and coherently:
//      the cache re-checks every dependency's generation tag;
//   3. on a miss, admits by cost model once the SubgraphIndex has seen
//      the key from two or more distinct networks *and* the planner's
//      backend-efficiency-aware recompute estimate exceeds the cost of
//      one transfer of the materialized bytes (vcl::CostModel) — then
//      materializes the subtree with one standalone evaluation;
//   4. splices each materialized value into the consumer network as a
//      bound field source and evaluates the rewritten network. The
//      spliced subtree prices at zero in all planner estimates because
//      its nodes are simply gone, and the ResidentPool keeps the
//      materialized array device-resident across consumers.
//
// Bit-exactness: every node's value is a deterministic float function of
// its inputs' values, identical across strategies and backends (the
// fuzzer's standing invariant), so cutting the dataflow at a node and
// feeding the materialized floats back produces bit-identical outputs.
//
// Counters are svc-labeled registry series (dfgen_memo_*) resolved per
// call, mirroring the EvalService's pattern; ServiceSnapshot reads them
// back. Thread safety: evaluate() may run concurrently from multiple
// workers with distinct engines; index, cache and counter publication are
// internally synchronized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/engine.hpp"
#include "memo/intermediate_cache.hpp"
#include "memo/subgraph.hpp"
#include "vcl/profiling.hpp"

namespace dfg::memo {

class Memoizer {
 public:
  struct Options {
    /// IntermediateCache capacity (bytes of materialized values).
    std::size_t capacity_bytes = 64ull << 20;
    /// Registry instance label value for this memoizer's `svc=<N>` series
    /// (the owning service's label, so snapshots stay per-service).
    std::string svc = "0";
  };

  explicit Memoizer(Options options);

  /// Admission-time hook, called for every admitted request whether or
  /// not memoization is enabled: feeds the SubgraphIndex and counts the
  /// coalescer near-miss (dfgen_svc_memo_candidates_total) when the
  /// request shares a non-leaf subtree fingerprint with a previously seen
  /// different network.
  void observe(const EvalContext& ctx);

  /// Memo-aware evaluation of ctx through `engine` (already bound with
  /// the request's mesh and fields). Appends every sub-evaluation's
  /// profiling log to `merged` (the engine clears its log per
  /// evaluation); sub-evaluation device traffic and sim time are folded
  /// into the returned report so throughput accounting stays honest.
  EvaluationReport evaluate(Engine& engine, const EvalContext& ctx,
                            vcl::ProfilingLog* merged);

  const IntermediateCache& cache() const { return cache_; }

 private:
  void publish_cache_stats();

  Options options_;
  SubgraphIndex index_;
  IntermediateCache cache_;
  std::mutex publish_mutex_;
  IntermediateCache::Stats published_;
};

}  // namespace dfg::memo
