// Dataflow layer: initialized network.
//
// Network-initialization per the paper's §III-B2: a topological sort
// establishes filter precedence, and reference counts let execution
// strategies reuse intermediate results and release device buffers as soon
// as their last consumer has run (reducing memory overhead).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow/spec.hpp"

namespace dfg::dataflow {

class Network {
 public:
  /// Takes ownership of a finished spec. Throws NetworkError when the spec
  /// has no output or contains a dependency cycle (possible only for
  /// hand-built specs; the builder produces DAGs by construction).
  explicit Network(NetworkSpec spec);

  const NetworkSpec& spec() const { return spec_; }

  /// All node ids in dependency order (producers before consumers).
  const std::vector<int>& topo_order() const { return topo_order_; }

  /// Number of consumers of a node's value, counting duplicate uses
  /// (u appears twice in u*u) plus one if the node is the network output.
  /// Strategies copy these counts and decrement as consumers execute.
  int use_count(int id) const { return use_counts_[id]; }
  const std::vector<int>& use_counts() const { return use_counts_; }

  int output_id() const { return spec_.output_id(); }

  /// Canonical content identity of the network: every spec node (its id,
  /// put_node fields, input ids and label) and the output id, encoded once
  /// at construction. Equal bytes mean the kernel generator produces
  /// identical programs, so caches keyed on a network store these bytes
  /// and compare them on every hit.
  const std::string& identity() const { return identity_; }

  /// identity_hash(identity()): the lookup hash of network-keyed caches.
  /// Distinct networks can share it, so a hit must also compare identity().
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  NetworkSpec spec_;
  std::vector<int> topo_order_;
  std::vector<int> use_counts_;
  std::string identity_;
  std::uint64_t fingerprint_ = 0;
};

// The one canonical encoder behind every content-identity key: LEB128
// integers, length-prefixed text, constants as 8 little-endian bytes.
// Caches store these bytes and compare them on a hit; identity_hash is
// only their lookup hash.
void put_uint(std::string& out, std::uint64_t value);
void put_text(std::string& out, std::string_view text);
/// A node's identity fields: type, kind, component count, then its field
/// name, constant bits or component. Id, inputs and label are the caller's.
void put_node(std::string& out, const SpecNode& node);
std::uint64_t identity_hash(std::string_view bytes);

/// The value node `root` computes: a post-order walk emitting each distinct
/// node once, inputs as post-order indices. Ids and labels are left out, so
/// `a = u*u` and `b = u*u` share it, whatever the statement order.
std::string subtree_identity(const NetworkSpec& spec, int root);

/// Per-node subtree hashes, indexed by node id: put_node's bytes and the
/// inputs' hashes, hashed. Only policy code reads them (popularity,
/// near-miss counting, diagram tags), where a collision bends a policy but
/// never serves a wrong value.
std::vector<std::uint64_t> subtree_fingerprints(const NetworkSpec& spec);

}  // namespace dfg::dataflow
