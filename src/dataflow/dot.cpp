#include "dataflow/dot.hpp"

#include <cstdio>
#include <sstream>

#include "dataflow/network.hpp"
#include "support/string_util.hpp"

namespace dfg::dataflow {

namespace {

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string node_label(const SpecNode& node) {
  switch (node.type) {
    case NodeType::field_source:
      return node.field_name;
    case NodeType::constant:
      return support::format_float(node.const_value);
    case NodeType::filter:
      if (node.kind == "decompose") {
        return "decompose [" + std::to_string(node.component) + "]\\n" +
               node.label;
      }
      return node.kind + "\\n" + node.label;
  }
  return "?";
}

/// Short hex tag of a subtree fingerprint (low 32 bits — plenty to make
/// shared subtrees visually matchable in a rendered diagram; a hash is
/// enough for a label nobody computes with).
std::string short_hex(std::uint64_t fp) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x",
                static_cast<unsigned>(fp & 0xffffffffu));
  return buf;
}

}  // namespace

std::string to_dot(const NetworkSpec& spec, const DotOptions& options) {
  std::vector<std::uint64_t> fps;
  if (options.subtree_fingerprints) fps = subtree_fingerprints(spec);
  std::ostringstream os;
  os << "digraph \"" << escape(options.graph_name) << "\" {\n";
  os << "  rankdir=TB;\n";
  os << "  node [fontsize=10];\n";
  for (const SpecNode& node : spec.nodes()) {
    std::string label = node_label(node);
    if (options.subtree_fingerprints) {
      label += "\\n#" + short_hex(fps[static_cast<std::size_t>(node.id)]);
    }
    os << "  n" << node.id << " [label=\"" << escape(label) << "\"";
    switch (node.type) {
      case NodeType::field_source:
        os << ", shape=ellipse, style=filled, fillcolor=lightblue";
        break;
      case NodeType::constant:
        os << ", shape=ellipse, style=filled, fillcolor=lightgray";
        break;
      case NodeType::filter:
        os << ", shape=box";
        break;
    }
    if (node.id == spec.output_id()) {
      os << ", penwidth=2, color=red";
    }
    os << "];\n";
  }
  for (const SpecNode& node : spec.nodes()) {
    for (std::size_t arg = 0; arg < node.inputs.size(); ++arg) {
      os << "  n" << node.inputs[arg] << " -> n" << node.id;
      if (options.label_argument_positions && node.inputs.size() > 1) {
        os << " [label=\"" << arg << "\", fontsize=8]";
      }
      os << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace dfg::dataflow
