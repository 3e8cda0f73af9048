// Dataflow layer: network specification.
//
// The "create and connect" network-definition API of the paper's §III-B.
// A NetworkSpec is a DAG of sources (named field arrays and constants) and
// filters (derived-field primitives). The expression front-end builds specs
// through this API; host applications may also use it directly. The spec
// can dump itself as a script outlining all API calls — the counterpart of
// the paper's optional Python script "which can be inspected by the user".
//
// Deduplication lives here: repeated constants reduce to single source
// nodes, and (optionally) a limited common-subexpression elimination folds
// structurally identical filter invocations, exactly as described for the
// paper's parser transformations.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace dfg::dataflow {

/// Prefix of the buffer names the fused-kernel generator gives its
/// materialised intermediates (kernels::materialized_param_name).
/// add_field_source rejects field names that start with it.
inline constexpr std::string_view kReservedFieldPrefix = "__m";

/// Prefix of the field sources the memo layer splices in for cached
/// subtrees. The expression front end rejects field names that start with
/// it; splice_materialized and script_io still build them.
inline constexpr std::string_view kMemoFieldPrefix = "_memo_";

/// Most nodes a network may hold (lambda2, the largest in the tree, has
/// 139); adding one more throws NetworkError while the network is built.
inline constexpr std::size_t kMaxNetworkNodes = 16384;

enum class NodeType { field_source, constant, filter };

struct SpecNode {
  int id = -1;
  NodeType type = NodeType::filter;
  /// Filter kind ("add", "grad3d", "decompose", ...); "field" / "const" for
  /// sources.
  std::string kind;
  /// Bound host-array name for field sources.
  std::string field_name;
  /// Literal value for constant sources.
  double const_value = 0.0;
  /// Selected lane for "decompose" filters.
  int component = 0;
  /// Producer node ids, in argument order.
  std::vector<int> inputs;
  /// Components of the value this node produces (1 scalar, 3 vector).
  int components = 1;
  /// User-visible name: the assignment target when the user named this
  /// value, otherwise a generated temporary name.
  std::string label;
};

struct SpecOptions {
  /// Fold structurally identical filter invocations (limited CSE).
  bool cse = true;
  /// Reduce repeated constants to a single source node.
  bool dedup_constants = true;
  /// Treat commutative filters (add, mult, min, max) as order-insensitive
  /// when folding. Off by default to mirror the paper's "limited" CSE; the
  /// ablation benchmark measures what it buys.
  bool canonicalize_commutative = false;
  /// Drop nodes unreachable from the network output after translation
  /// (statements assigned but never used). An extension beyond the paper,
  /// off by default: the paper's framework computes every statement the
  /// user wrote.
  bool prune_unreachable = false;
};

class NetworkSpec {
 public:
  explicit NetworkSpec(SpecOptions options = {});

  /// Adds (or returns the existing) source node bound to a named host array.
  /// Throws NetworkError on an empty name or one with the reserved "__m"
  /// prefix, which the fused pipeline would take for a stage output.
  int add_field_source(const std::string& name);

  /// Adds a constant source; deduplicated when options.dedup_constants.
  int add_constant(double value);

  /// Adds a filter invocation. Validates the kind against the primitive
  /// registry, the arity, and the component shape of every input. Returns
  /// an existing node id instead when CSE folds the invocation.
  /// `component` is only meaningful for "decompose".
  int add_filter(const std::string& kind, const std::vector<int>& inputs,
                 int component = 0);

  /// Marks the node whose value the network produces.
  void set_output(int id);
  /// Redirects filter `id`'s `arg`-th input edge to `new_input`, keeping
  /// every node id stable (no compaction — downstream consumers resolve
  /// pipeline stages and materialised-parameter names by node id). The new
  /// producer must precede the consumer (ids are construction order, so
  /// this preserves acyclicity) and match the displaced input's component
  /// count. Nodes orphaned by rewiring are left in place; the bytecode
  /// optimizer's dead-code elimination discards their instructions. This
  /// is the mutation the pre-codegen rewrite pass (kernels::rewrite_network)
  /// is built on.
  void rewire_input(int id, std::size_t arg, int new_input);
  /// Associates a user-facing name with a node (assignment statements).
  void set_label(int id, const std::string& label);

  const std::vector<SpecNode>& nodes() const { return nodes_; }
  const SpecNode& node(int id) const;
  int output_id() const { return output_id_; }
  const SpecOptions& options() const { return options_; }

  std::size_t filter_count() const;
  std::size_t source_count() const;

  /// Names of all field sources, in first-use order.
  std::vector<std::string> field_names() const;

  /// Dumps the sequence of API calls that rebuilds this spec (a Python-like
  /// script, inspectable by the user).
  std::string to_script() const;

 private:
  int push_node(SpecNode node);
  void check_id(int id, const char* context) const;

  SpecOptions options_;
  std::vector<SpecNode> nodes_;
  int output_id_ = -1;
  int next_temp_ = 0;
  std::map<std::string, int> field_index_;
  std::map<double, int> constant_index_;
  std::map<std::string, int> cse_index_;
};

/// Returns a copy of `spec` without the nodes unreachable from its output
/// (dead-code elimination over the dataflow DAG). Labels, options and the
/// output marker are preserved; node ids are compacted. Requires the spec
/// to have an output. Rebuilt through the public API, so all invariants
/// re-validate.
NetworkSpec prune_unreachable(const NetworkSpec& spec);

}  // namespace dfg::dataflow
