#include "memo/subgraph.hpp"

#include <algorithm>
#include <cstdint>


namespace dfg::memo {

namespace {

using dataflow::NetworkSpec;
using dataflow::NodeType;
using dataflow::SpecNode;

bool is_mesh_name(const std::string& name) {
  return name == "x" || name == "y" || name == "z" || name == "dims";
}

}  // namespace

std::vector<Candidate> enumerate_candidates(const EvalContext& ctx) {
  const NetworkSpec& spec = ctx.network->spec();
  std::map<std::string, const BoundInput*> bound;
  for (const BoundInput& field : ctx.fields) {
    bound.emplace(field.name, &field);
  }

  std::vector<Candidate> out;
  std::vector<bool> seen(spec.nodes().size());
  for (const SpecNode& root : spec.nodes()) {
    if (root.type != NodeType::filter || root.components != 1) continue;
    if (root.id == spec.output_id()) continue;

    // Walk the subtree: count its filters and collect its field leaves.
    std::fill(seen.begin(), seen.end(), false);
    std::vector<int> stack{root.id};
    std::size_t filters = 0;
    bool eligible = true;
    std::set<std::string> leaves;  // sorted, for a canonical key
    while (eligible && !stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      if (seen[static_cast<std::size_t>(id)]) continue;
      seen[static_cast<std::size_t>(id)] = true;
      const SpecNode& node = spec.node(id);
      switch (node.type) {
        case NodeType::filter:
          ++filters;
          for (const int in : node.inputs) stack.push_back(in);
          break;
        case NodeType::field_source:
          if (bound.count(node.field_name) == 0 &&
              !(ctx.mesh != nullptr && is_mesh_name(node.field_name))) {
            eligible = false;  // unbound leaf: cannot materialize
            break;
          }
          leaves.insert(node.field_name);
          break;
        case NodeType::constant:
          break;
      }
    }
    // Constant-only subtrees are folded by the optimizer anyway, and a
    // single-filter subtree never beats re-running it.
    if (!eligible || filters < 2 || leaves.empty()) continue;

    Candidate candidate;
    candidate.root = root.id;
    candidate.filters = filters;
    std::string& key = candidate.identity;
    key = dataflow::subtree_identity(spec, root.id);
    dataflow::put_uint(key, ctx.elements);
    for (const std::string& name : leaves) {
      dataflow::put_text(key, name);
      if (const auto it = bound.find(name); it != bound.end()) {
        dataflow::put_uint(key, 1);
        dataflow::put_uint(key,
                           reinterpret_cast<std::uintptr_t>(it->second->data));
        dataflow::put_uint(key, it->second->len);
        candidate.deps.push_back(it->second->data);
      } else {
        // Mesh coordinates: identified by the mesh object itself (the
        // service regenerates the x/y/z arrays per engine, so their
        // pointers are not stable identities — the mesh is).
        dataflow::put_uint(key, 0);
        dataflow::put_uint(key, reinterpret_cast<std::uintptr_t>(ctx.mesh));
      }
    }
    candidate.key = dataflow::identity_hash(key);
    out.push_back(std::move(candidate));
  }

  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    return a.filters != b.filters ? a.filters > b.filters : a.root < b.root;
  });
  return out;
}

dataflow::NetworkSpec extract_subtree(const NetworkSpec& spec, int root) {
  // Mark everything reachable from the root.
  std::vector<bool> keep(spec.nodes().size(), false);
  std::vector<int> stack{root};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (keep[static_cast<std::size_t>(id)]) continue;
    keep[static_cast<std::size_t>(id)] = true;
    for (const int in : spec.node(id).inputs) stack.push_back(in);
  }

  // Rebuild through the public API with compacted ids (the
  // prune_unreachable pattern: dedup/CSE off — folding already happened,
  // or was deliberately off, in the source spec).
  dataflow::SpecOptions rebuild_options = spec.options();
  rebuild_options.cse = false;
  rebuild_options.dedup_constants = false;
  NetworkSpec sub(rebuild_options);
  std::vector<int> remap(spec.nodes().size(), -1);
  for (const SpecNode& node : spec.nodes()) {
    if (!keep[static_cast<std::size_t>(node.id)]) continue;
    int new_id = -1;
    switch (node.type) {
      case NodeType::field_source:
        new_id = sub.add_field_source(node.field_name);
        break;
      case NodeType::constant:
        new_id = sub.add_constant(node.const_value);
        break;
      case NodeType::filter: {
        std::vector<int> inputs;
        inputs.reserve(node.inputs.size());
        for (const int in : node.inputs) inputs.push_back(remap[in]);
        new_id = sub.add_filter(node.kind, inputs, node.component);
        break;
      }
    }
    sub.set_label(new_id, node.label);
    remap[node.id] = new_id;
  }
  sub.set_output(remap[root]);
  return sub;
}

dataflow::NetworkSpec splice_materialized(
    const NetworkSpec& spec, const std::map<int, std::string>& replacements) {
  // Mark everything reachable from the output, treating replaced roots as
  // leaves: their subtree interiors drop out of the rewritten network, so
  // the planner prices the memoized work at zero simply because it is no
  // longer there.
  std::vector<bool> keep(spec.nodes().size(), false);
  std::vector<int> stack{spec.output_id()};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (keep[static_cast<std::size_t>(id)]) continue;
    keep[static_cast<std::size_t>(id)] = true;
    if (replacements.count(id) != 0) continue;
    for (const int in : spec.node(id).inputs) stack.push_back(in);
  }

  dataflow::SpecOptions rebuild_options = spec.options();
  rebuild_options.cse = false;
  rebuild_options.dedup_constants = false;
  NetworkSpec spliced(rebuild_options);
  std::vector<int> remap(spec.nodes().size(), -1);
  for (const SpecNode& node : spec.nodes()) {
    if (!keep[static_cast<std::size_t>(node.id)]) continue;
    int new_id = -1;
    if (const auto it = replacements.find(node.id); it != replacements.end()) {
      new_id = spliced.add_field_source(it->second);
    } else {
      switch (node.type) {
        case NodeType::field_source:
          new_id = spliced.add_field_source(node.field_name);
          break;
        case NodeType::constant:
          new_id = spliced.add_constant(node.const_value);
          break;
        case NodeType::filter: {
          std::vector<int> inputs;
          inputs.reserve(node.inputs.size());
          for (const int in : node.inputs) inputs.push_back(remap[in]);
          new_id = spliced.add_filter(node.kind, inputs, node.component);
          break;
        }
      }
    }
    spliced.set_label(new_id, node.label);
    remap[node.id] = new_id;
  }
  spliced.set_output(remap[spec.output_id()]);
  return spliced;
}

bool SubgraphIndex::observe(const dataflow::Network& network,
                            const std::vector<Candidate>& candidates) {
  const std::uint64_t net_fp = network.fingerprint();
  const NetworkSpec& spec = network.spec();
  const std::vector<std::uint64_t> fps = dataflow::subtree_fingerprints(spec);

  std::scoped_lock lock(mutex_);
  if (keys_.size() > kMaxKeys) keys_.clear();
  if (subtree_networks_.size() > kMaxKeys) subtree_networks_.clear();

  // Near-miss check before this network's own fingerprints register, so a
  // request only counts against *previously seen different* networks.
  // Hashes suffice here and in keys_: a collision skews a count, never a value.
  bool near_miss = false;
  for (const SpecNode& node : spec.nodes()) {
    if (node.type != NodeType::filter) continue;
    const auto it =
        subtree_networks_.find(fps[static_cast<std::size_t>(node.id)]);
    if (it == subtree_networks_.end()) continue;
    for (const std::uint64_t seen_fp : it->second) {
      if (seen_fp != net_fp) {
        near_miss = true;
        break;
      }
    }
    if (near_miss) break;
  }

  for (const SpecNode& node : spec.nodes()) {
    if (node.type != NodeType::filter) continue;
    std::set<std::uint64_t>& nets =
        subtree_networks_[fps[static_cast<std::size_t>(node.id)]];
    if (nets.size() < 8) nets.insert(net_fp);
  }
  for (const Candidate& candidate : candidates) {
    KeyStats& stats = keys_[candidate.key];
    ++stats.count;
    if (stats.networks.size() < 8) stats.networks.insert(net_fp);
  }
  return near_miss;
}

SubgraphIndex::Popularity SubgraphIndex::popularity(std::uint64_t key) const {
  std::scoped_lock lock(mutex_);
  const auto it = keys_.find(key);
  if (it == keys_.end()) return {};
  return {it->second.count, it->second.networks.size()};
}

}  // namespace dfg::memo
