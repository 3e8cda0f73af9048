#include "memo/memoizer.hpp"

#include <cstdio>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/planner.hpp"
#include "vcl/cost_model.hpp"
#include "vcl/resident_pool.hpp"

namespace dfg::memo {

namespace {

/// Resolved against the *current* registry on every use (a test's
/// ScopedMetricsRegistry must capture traffic from memoizers constructed
/// before it was installed — the service counter pattern).
obs::MetricId memo_counter(const std::string& svc, const char* name) {
  return obs::metrics().counter(name, {{"svc", svc}});
}

/// Spliced field sources are named after the key's hash (stable when an
/// entry is admitted again), under the prefix the front end reserves
/// (dataflow::kMemoFieldPrefix); the `clash`-th selection of a request with
/// that hash gets a suffix, so each entry binds its own name.
std::string memo_field_name(std::uint64_t key, int clash) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), clash == 0 ? "%016llx" : "%016llx_%d",
                static_cast<unsigned long long>(key), clash);
  return std::string(dataflow::kMemoFieldPrefix) + buf;
}

void mark_covered(const dataflow::NetworkSpec& spec, int root,
                  std::vector<bool>& covered) {
  std::vector<int> stack{root};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (covered[static_cast<std::size_t>(id)]) continue;
    covered[static_cast<std::size_t>(id)] = true;
    for (const int in : spec.node(id).inputs) stack.push_back(in);
  }
}

/// Folds a sub-evaluation's device traffic into the report the tickets
/// will see: the memoized batch's accounting covers everything it ran.
void fold(EvaluationReport& into, const EvaluationReport& sub) {
  into.degradations.insert(into.degradations.end(), sub.degradations.begin(),
                           sub.degradations.end());
  into.dev_writes += sub.dev_writes;
  into.dev_reads += sub.dev_reads;
  into.kernel_execs += sub.kernel_execs;
  into.sim_seconds += sub.sim_seconds;
  into.wall_seconds += sub.wall_seconds;
  into.memory_high_water_bytes =
      std::max(into.memory_high_water_bytes, sub.memory_high_water_bytes);
  into.command_retries += sub.command_retries;
  into.injected_faults += sub.injected_faults;
  into.command_timeouts += sub.command_timeouts;
  into.checksum_mismatches += sub.checksum_mismatches;
  into.pipeline_cache_hits += sub.pipeline_cache_hits;
  into.pipeline_cache_misses += sub.pipeline_cache_misses;
  into.resident_hits += sub.resident_hits;
  into.resident_misses += sub.resident_misses;
  into.resident_evictions += sub.resident_evictions;
  into.resident_invalidations += sub.resident_invalidations;
  into.resident_upload_bytes_saved += sub.resident_upload_bytes_saved;
}

}  // namespace

Memoizer::Memoizer(Options options)
    : options_(std::move(options)), cache_({options_.capacity_bytes}) {
  // Eager registration: the dfgen_memo_* series appear — as zeros — in
  // snapshots of memo-disabled services, keeping snapshot schemas stable.
  memo_counter(options_.svc, "dfgen_memo_hits_total");
  memo_counter(options_.svc, "dfgen_memo_misses_total");
  memo_counter(options_.svc, "dfgen_memo_admits_total");
  memo_counter(options_.svc, "dfgen_memo_evictions_total");
  memo_counter(options_.svc, "dfgen_memo_invalidations_total");
  memo_counter(options_.svc, "dfgen_memo_bytes_saved_total");
  memo_counter(options_.svc, "dfgen_memo_recompute_saved_nanos_total");
  memo_counter(options_.svc, "dfgen_svc_memo_candidates_total");
}

void Memoizer::observe(const EvalContext& ctx) {
  const std::vector<Candidate> candidates = enumerate_candidates(ctx);
  if (index_.observe(*ctx.network, candidates)) {
    obs::metrics().add(
        memo_counter(options_.svc, "dfgen_svc_memo_candidates_total"));
  }
}

void Memoizer::publish_cache_stats() {
  const IntermediateCache::Stats now = cache_.stats();
  std::scoped_lock lock(publish_mutex_);
  obs::MetricsRegistry& reg = obs::metrics();
  const auto bump = [&](const char* name, std::uint64_t then,
                        std::uint64_t current) {
    if (current > then) {
      reg.add(memo_counter(options_.svc, name), current - then);
    }
  };
  bump("dfgen_memo_hits_total", published_.hits, now.hits);
  bump("dfgen_memo_misses_total", published_.misses, now.misses);
  bump("dfgen_memo_admits_total", published_.admits, now.admits);
  bump("dfgen_memo_evictions_total", published_.evictions, now.evictions);
  bump("dfgen_memo_invalidations_total", published_.invalidations,
       now.invalidations);
  published_ = now;
  reg.gauge_set(reg.gauge("dfgen_memo_resident_bytes",
                          {{"svc", options_.svc}}),
                cache_.resident_bytes());
}

EvaluationReport Memoizer::evaluate(Engine& engine, const EvalContext& ctx,
                                    vcl::ProfilingLog* merged) {
  const dataflow::NetworkSpec& spec = ctx.network->spec();
  std::vector<Candidate> candidates = enumerate_candidates(ctx);

  struct Selection {
    Candidate candidate;
    IntermediateCache::EntryPtr entry;  // null until materialized
    double estimate_seconds = 0.0;
  };
  std::vector<Selection> selected;
  std::vector<bool> covered(spec.nodes().size(), false);
  const vcl::CostModel cost(engine.device().spec());
  std::uint64_t bytes_saved = 0;
  double recompute_saved = 0.0;

  // Greedy maximal selection: candidates arrive largest-first, so a
  // chosen subtree covers (and thereby skips) all of its sub-candidates.
  for (const Candidate& candidate : candidates) {
    if (covered[static_cast<std::size_t>(candidate.root)]) continue;
    if (auto entry = cache_.lookup(candidate.identity)) {
      bytes_saved += entry->bytes();
      recompute_saved += entry->recompute_seconds;
      selected.push_back({candidate, std::move(entry), 0.0});
      mark_covered(spec, candidate.root, covered);
      continue;
    }
    // Cost-model admission: only cross-network keys (two or more distinct
    // whole-network fingerprints have presented this subtree), and only
    // when recomputing it — priced by the planner at the armed backend's
    // efficiency — costs more than one transfer of the materialized bytes.
    // Popularity is by hash: a collision can only admit a key early.
    if (index_.popularity(candidate.key).networks < 2) continue;
    double estimate = 0.0;
    try {
      const dataflow::Network subnet(extract_subtree(spec, candidate.root));
      estimate = runtime::estimate_sim_seconds(
          subnet, engine.bindings(), ctx.elements, engine.device().spec(),
          runtime::StrategyKind::fusion, 0,
          engine.device().backend().compute_efficiency());
    } catch (const std::exception&) {
      continue;  // planning is advisory: an unplannable subtree stays put
    }
    if (estimate <= cost.transfer_seconds(ctx.elements * sizeof(float))) {
      continue;
    }
    selected.push_back({candidate, nullptr, estimate});
    mark_covered(spec, candidate.root, covered);
  }

  if (bytes_saved > 0) {
    obs::MetricsRegistry& reg = obs::metrics();
    reg.add(memo_counter(options_.svc, "dfgen_memo_bytes_saved_total"),
            bytes_saved);
    reg.add(memo_counter(options_.svc,
                         "dfgen_memo_recompute_saved_nanos_total"),
            static_cast<std::uint64_t>(recompute_saved * 1e9));
  }

  if (selected.empty()) {
    EvaluationReport report = engine.evaluate_network(*ctx.network,
                                                      ctx.elements);
    if (merged != nullptr) merged->append(engine.log());
    publish_cache_stats();
    return report;
  }

  // Materialize the admitted misses: one standalone evaluation each, its
  // output admitted into the cache. Dependency generations are recorded
  // *before* evaluating, so a host mutation racing the materialization
  // leaves a stale-detected entry, never a stale-served one.
  EvaluationReport sub_totals;
  bool have_sub = false;
  for (Selection& selection : selected) {
    if (selection.entry != nullptr) continue;
    std::vector<std::pair<const void*, std::uint64_t>> deps;
    deps.reserve(selection.candidate.deps.size());
    for (const void* ptr : selection.candidate.deps) {
      deps.emplace_back(ptr, vcl::host_generation(ptr));
    }
    const dataflow::Network subnet(
        extract_subtree(spec, selection.candidate.root));
    EvaluationReport sub = engine.evaluate_network(subnet, ctx.elements);
    if (merged != nullptr) merged->append(engine.log());
    fold(sub_totals, sub);
    have_sub = true;
    selection.entry =
        cache_.admit(selection.candidate.identity, std::move(sub.values),
                     selection.estimate_seconds, std::move(deps));
  }

  // Splice every materialized value in as a bound field source. A
  // selection whose admit was refused (value larger than the cache) stays
  // in the network and is evaluated inline like before.
  std::map<int, std::string> replacements;
  std::map<std::uint64_t, int> clashes;
  for (const Selection& selection : selected) {
    if (selection.entry == nullptr) continue;
    const std::string name = memo_field_name(
        selection.candidate.key, clashes[selection.candidate.key]++);
    engine.bind(name, std::span<const float>(selection.entry->values));
    replacements.emplace(selection.candidate.root, name);
  }

  EvaluationReport report;
  if (replacements.empty()) {
    report = engine.evaluate_network(*ctx.network, ctx.elements);
  } else {
    const dataflow::Network rewritten(
        splice_materialized(spec, replacements));
    report = engine.evaluate_network(rewritten, ctx.elements);
  }
  if (merged != nullptr) merged->append(engine.log());
  if (have_sub) fold(report, sub_totals);
  publish_cache_stats();
  return report;
}

}  // namespace dfg::memo
