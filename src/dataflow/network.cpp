#include "dataflow/network.hpp"

#include <bit>
#include <queue>
#include <utility>

#include "support/checksum.hpp"

namespace dfg::dataflow {

void put_uint(std::string& out, std::uint64_t value) {
  for (; value >= 0x80; value >>= 7) {
    out.push_back(static_cast<char>(value | 0x80));
  }
  out.push_back(static_cast<char>(value));
}

void put_text(std::string& out, std::string_view text) {
  put_uint(out, text.size());
  out.append(text);
}

void put_node(std::string& out, const SpecNode& node) {
  put_uint(out, static_cast<std::uint64_t>(node.type));
  put_text(out, node.kind);
  put_uint(out, static_cast<std::uint32_t>(node.components));
  switch (node.type) {
    case NodeType::field_source:
      put_text(out, node.field_name);
      break;
    case NodeType::constant: {
      const auto bits = std::bit_cast<std::uint64_t>(node.const_value);
      for (int shift = 0; shift < 64; shift += 8) {
        out.push_back(static_cast<char>(bits >> shift));
      }
      break;
    }
    case NodeType::filter:
      put_uint(out, static_cast<std::uint32_t>(node.component));
      break;
  }
}

std::uint64_t identity_hash(std::string_view bytes) {
  return support::fnv1a(bytes);
}

std::string subtree_identity(const NetworkSpec& spec, int root) {
  // Iterative post-order walk: a node is numbered once its inputs are.
  std::vector<int> index(spec.nodes().size(), -1);
  std::vector<std::pair<int, std::size_t>> stack{{root, 0}};
  std::string nodes;
  int count = 0;
  while (!stack.empty()) {
    auto& [id, next] = stack.back();
    const SpecNode& node = spec.node(id);
    if (next < node.inputs.size()) {
      const int input = node.inputs[next++];
      if (index[input] < 0) stack.emplace_back(input, 0);
      continue;
    }
    index[id] = count++;
    put_node(nodes, node);
    put_uint(nodes, node.inputs.size());
    for (const int input : node.inputs) put_uint(nodes, index[input]);
    stack.pop_back();
  }
  std::string out;
  put_uint(out, count);
  return out + nodes;
}

std::vector<std::uint64_t> subtree_fingerprints(const NetworkSpec& spec) {
  std::vector<std::uint64_t> fps(spec.nodes().size(), 0);
  std::string bytes;
  for (const SpecNode& node : spec.nodes()) {
    bytes.clear();
    put_node(bytes, node);
    for (const int input : node.inputs) put_uint(bytes, fps[input]);
    fps[node.id] = identity_hash(bytes);
  }
  return fps;
}

Network::Network(NetworkSpec spec) : spec_(std::move(spec)) {
  if (spec_.output_id() < 0) {
    throw NetworkError("network has no output; call set_output first");
  }
  const auto& nodes = spec_.nodes();
  const std::size_t n = nodes.size();

  use_counts_.assign(n, 0);
  std::vector<int> pending(n, 0);  // unexecuted producers per node
  std::vector<std::vector<int>> consumers(n);
  for (const SpecNode& node : nodes) {
    for (int in : node.inputs) {
      use_counts_[in] += 1;
      consumers[in].push_back(node.id);
    }
    pending[node.id] = static_cast<int>(node.inputs.size());
  }
  use_counts_[spec_.output_id()] += 1;

  // Kahn's algorithm, smallest-id first for a deterministic order.
  std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
  for (const SpecNode& node : nodes) {
    if (pending[node.id] == 0) ready.push(node.id);
  }
  std::vector<int> seen_producers = pending;
  topo_order_.reserve(n);
  while (!ready.empty()) {
    const int id = ready.top();
    ready.pop();
    topo_order_.push_back(id);
    for (int consumer : consumers[id]) {
      // A consumer may list the same producer several times (u*u).
      if (--seen_producers[consumer] == 0) ready.push(consumer);
    }
  }
  if (topo_order_.size() != n) {
    throw NetworkError("network contains a dependency cycle");
  }

  put_uint(identity_, n);
  for (const SpecNode& node : nodes) {
    put_uint(identity_, node.id);
    put_node(identity_, node);
    put_uint(identity_, node.inputs.size());
    for (const int input : node.inputs) put_uint(identity_, input);
    put_text(identity_, node.label);
  }
  put_uint(identity_, spec_.output_id());
  fingerprint_ = identity_hash(identity_);
}

}  // namespace dfg::dataflow
