// Memo layer: cross-request subgraph analysis.
//
// The EvalService's coalescer (PR 4) deduplicates *identical* requests —
// same network identity, same bound arrays. Real traffic overlaps
// partially: v_mag, vorticity_mag and q_crit all hang off the same grad3d
// subtrees. This module generalizes "same request" to "same work": it
// names the memoizable subtrees of a request (enumerate_candidates), keys
// them by structure *and* bound-array content identity (the ResidentPool's
// pointer + length + generation discipline), tracks their popularity
// across in-flight requests of different networks (SubgraphIndex), and
// provides the two spec rewrites the memoizer executes with — extracting
// a subtree into a standalone network to materialize it once, and
// splicing a materialized value back into a consumer as a field source.
//
// A memoizable subtree root is a non-output scalar filter whose field
// leaves are all bound and whose subtree contains at least two filters:
// scalar because the spliced replacement is a field source (always one
// component), non-output so the rewritten network stays non-trivial, and
// two+ filters so the candidate set skips work too cheap to ever admit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "dataflow/network.hpp"

namespace dfg::memo {

/// One named host array bound into a request, by content identity. The
/// generation tag is *not* part of the identity here — the cache records
/// generations at materialization time and re-checks them on every lookup,
/// so host mutation invalidates instead of silently forking entries.
struct BoundInput {
  std::string name;
  const float* data = nullptr;
  std::size_t len = 0;
};

/// Everything the memoizer needs to know about one request.
struct EvalContext {
  const dataflow::Network* network = nullptr;
  /// Mesh identity (the service's mesh pointer; meshes are immutable while
  /// bound). Folded into keys of subtrees that read x/y/z/dims.
  const void* mesh = nullptr;
  std::size_t elements = 0;
  /// Non-mesh bound arrays, in request order.
  std::vector<BoundInput> fields;
};

/// One memoizable subtree of a request's network.
struct Candidate {
  /// Spec node id of the subtree root.
  int root = -1;
  /// Cache key: the subtree's identity (dataflow::subtree_identity), the
  /// element count, then every host array the subtree reads, sorted by
  /// field name (name, data pointer, extent; mesh leaves by mesh pointer).
  /// Equal bytes name the same floats.
  std::string identity;
  /// identity_hash(identity): the SubgraphIndex popularity key.
  std::uint64_t key = 0;
  /// Filters inside the subtree (recompute-cost proxy for ranking).
  std::size_t filters = 0;
  /// Host arrays the subtree's value derives from (generation-checked by
  /// the cache on every lookup).
  std::vector<const void*> deps;
};

/// Enumerates the memoizable subtrees of ctx.network, largest first
/// (descending filter count, ascending root id among equals) — the order
/// the memoizer greedily selects maximal non-overlapping subtrees in.
std::vector<Candidate> enumerate_candidates(const EvalContext& ctx);

/// Returns the subtree rooted at `root` as a standalone network spec with
/// `root` as its output (prune_unreachable restricted to one root). The
/// materialized evaluation of this spec over the same bound arrays
/// produces bit-exactly the floats the full network computes at `root`.
dataflow::NetworkSpec extract_subtree(const dataflow::NetworkSpec& spec,
                                      int root);

/// Returns a copy of `spec` where each subtree root in `replacements` is
/// replaced by a field source of the mapped name (to be bound to the
/// materialized value) and the now-unreachable subtree interiors are
/// dropped. Labels and the output marker are preserved; ids compact.
dataflow::NetworkSpec splice_materialized(
    const dataflow::NetworkSpec& spec,
    const std::map<int, std::string>& replacements);

/// Cross-request popularity of subtree keys, fed at admission and
/// consulted by the memoizer's cost-model admission: a key is only worth
/// materializing once requests of at least two *different* networks have
/// presented it. Also tracks fingerprint-level near-misses — requests
/// whose whole-network fingerprints differ but which share a non-leaf
/// subtree fingerprint — so the memo hit-rate ceiling is observable even
/// with the memoizer disabled. Internally synchronized.
class SubgraphIndex {
 public:
  struct Popularity {
    /// Requests that presented this key.
    std::size_t count = 0;
    /// Distinct whole-network fingerprints among them.
    std::size_t networks = 0;
  };

  /// Records one admitted request. Returns true when the request shares at
  /// least one non-leaf subtree fingerprint with a previously observed
  /// network of a different whole-network fingerprint (the coalescer
  /// near-miss the service counts).
  bool observe(const dataflow::Network& network,
               const std::vector<Candidate>& candidates);

  Popularity popularity(std::uint64_t key) const;

 private:
  /// Aging bound: the maps reset once they exceed this many keys, so a
  /// long-lived service with churning traffic cannot grow them unboundedly
  /// (popularity then re-accumulates — admission is advisory).
  static constexpr std::size_t kMaxKeys = 1 << 16;

  struct KeyStats {
    std::size_t count = 0;
    std::set<std::uint64_t> networks;
  };

  mutable std::mutex mutex_;
  std::map<std::uint64_t, KeyStats> keys_;
  /// Non-leaf subtree fingerprint -> whole-network fingerprints seen.
  std::map<std::uint64_t, std::set<std::uint64_t>> subtree_networks_;
};

}  // namespace dfg::memo
