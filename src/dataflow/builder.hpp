// Dataflow layer: AST -> network specification translation.
//
// The parse-tree traversal of the paper's §III-A: filter invocations get
// generic temporary names as encountered, assignment statements map names
// onto their defining sub-trees, binary math lowers to the equivalent
// filter kinds, and bracket indexing lowers to "decompose" filters. The
// spec's constant deduplication and limited CSE apply during construction.
#pragma once

#include <string_view>

#include "dataflow/spec.hpp"
#include "expr/ast.hpp"

namespace dfg::dataflow {

/// Translates a parsed expression script to a network spec. The last
/// statement's value becomes the network output. Unknown function names,
/// arity mismatches and component-shape violations throw NetworkError with
/// the offending name in the message, and so does a network that would
/// exceed kMaxNetworkNodes.
NetworkSpec build_network(const expr::Script& script, SpecOptions options = {});

/// Convenience: parse + build in one call.
NetworkSpec build_network(std::string_view source, SpecOptions options = {});

}  // namespace dfg::dataflow
