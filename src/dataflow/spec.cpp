#include "dataflow/spec.hpp"

#include <algorithm>
#include <sstream>

#include "kernels/primitives.hpp"
#include "support/string_util.hpp"

namespace dfg::dataflow {

NetworkSpec::NetworkSpec(SpecOptions options) : options_(options) {}

int NetworkSpec::push_node(SpecNode node) {
  if (nodes_.size() == kMaxNetworkNodes) {
    throw NetworkError("network has more than " +
                       std::to_string(kMaxNetworkNodes) +
                       " nodes, the limit per network");
  }
  node.id = static_cast<int>(nodes_.size());
  if (node.label.empty()) {
    node.label = "t" + std::to_string(next_temp_++);
  }
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

void NetworkSpec::check_id(int id, const char* context) const {
  if (id < 0 || id >= static_cast<int>(nodes_.size())) {
    throw NetworkError(std::string("invalid node id ") + std::to_string(id) +
                       " " + context);
  }
}

int NetworkSpec::add_field_source(const std::string& name) {
  if (name.empty()) {
    throw NetworkError("field source requires a non-empty name");
  }
  if (name.starts_with(kReservedFieldPrefix)) {
    throw NetworkError("field name '" + name + "' uses the prefix '" +
                       std::string(kReservedFieldPrefix) +
                       "', reserved for materialised intermediates");
  }
  const auto it = field_index_.find(name);
  if (it != field_index_.end()) return it->second;
  SpecNode node;
  node.type = NodeType::field_source;
  node.kind = "field";
  node.field_name = name;
  node.label = name;
  node.components = 1;
  const int id = push_node(std::move(node));
  field_index_[name] = id;
  return id;
}

int NetworkSpec::add_constant(double value) {
  if (options_.dedup_constants) {
    const auto it = constant_index_.find(value);
    if (it != constant_index_.end()) return it->second;
  }
  SpecNode node;
  node.type = NodeType::constant;
  node.kind = "const";
  node.const_value = value;
  node.components = 1;
  const int id = push_node(std::move(node));
  if (options_.dedup_constants) constant_index_[value] = id;
  return id;
}

int NetworkSpec::add_filter(const std::string& kind,
                            const std::vector<int>& inputs, int component) {
  const kernels::PrimitiveInfo* info = kernels::find_primitive(kind);
  if (info == nullptr) {
    throw NetworkError("unknown filter '" + kind + "'");
  }
  if (kind == "const_fill") {
    throw NetworkError(
        "'const_fill' is an execution-strategy kernel, not a network filter; "
        "use add_constant");
  }
  if (static_cast<int>(inputs.size()) != info->arity) {
    throw NetworkError("filter '" + kind + "' expects " +
                       std::to_string(info->arity) + " inputs, got " +
                       std::to_string(inputs.size()));
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    check_id(inputs[i], ("as input to '" + kind + "'").c_str());
    const int want = i < info->input_components.size()
                         ? info->input_components[i]
                         : 1;
    const int have = nodes_[inputs[i]].components;
    if (have != want) {
      throw NetworkError("filter '" + kind + "' input " + std::to_string(i) +
                         " ('" + nodes_[inputs[i]].label + "') has " +
                         std::to_string(have) + " component(s), needs " +
                         std::to_string(want));
    }
  }
  if (kind == "decompose" && (component < 0 || component > 2)) {
    throw NetworkError("decompose component " + std::to_string(component) +
                       " out of range [0, 2]");
  }
  if (kind == "grad3d") {
    // The gradient's mesh operands (dims and the coordinate arrays) must be
    // host-bound field arrays. The *field* operand may be any scalar value:
    // staged and roundtrip stencil its whole buffer naturally, and the
    // fusion strategy materialises computed fields via its partitioned
    // pipeline (one fused kernel per materialisation barrier).
    for (std::size_t i = 1; i < inputs.size(); ++i) {
      if (nodes_[inputs[i]].type != NodeType::field_source) {
        throw NetworkError("grad3d input " + std::to_string(i) + " ('" +
                           nodes_[inputs[i]].label +
                           "') must be a host-bound mesh array");
      }
    }
    if (nodes_[inputs[0]].type == NodeType::constant) {
      throw NetworkError(
          "grad3d of a constant is identically zero; refusing the "
          "degenerate network");
    }
  }

  std::vector<int> key_inputs = inputs;
  const bool commutative =
      kind == "add" || kind == "mult" || kind == "min" || kind == "max";
  if (options_.canonicalize_commutative && commutative) {
    std::sort(key_inputs.begin(), key_inputs.end());
  }
  std::string key;
  if (options_.cse) {
    std::ostringstream os;
    os << kind << '/' << component;
    for (int id : key_inputs) os << ':' << id;
    key = os.str();
    const auto it = cse_index_.find(key);
    if (it != cse_index_.end()) return it->second;
  }

  SpecNode node;
  node.type = NodeType::filter;
  node.kind = kind;
  node.inputs = inputs;
  node.component = component;
  node.components = info->result_components;
  const int id = push_node(std::move(node));
  if (options_.cse) cse_index_[key] = id;
  return id;
}

void NetworkSpec::set_output(int id) {
  check_id(id, "as network output");
  if (nodes_[id].components != 1) {
    throw NetworkError("network output '" + nodes_[id].label +
                       "' must be scalar; decompose vector values first");
  }
  output_id_ = id;
}

void NetworkSpec::rewire_input(int id, std::size_t arg, int new_input) {
  check_id(id, "in rewire_input");
  check_id(new_input, "as rewired input");
  SpecNode& node = nodes_[id];
  if (node.type != NodeType::filter) {
    throw NetworkError("rewire_input: node '" + node.label +
                       "' is not a filter");
  }
  if (arg >= node.inputs.size()) {
    throw NetworkError("rewire_input: '" + node.kind + "' has no argument " +
                       std::to_string(arg));
  }
  if (new_input >= id) {
    throw NetworkError(
        "rewire_input: producer must precede consumer (rewiring node " +
        std::to_string(id) + " to " + std::to_string(new_input) +
        " would break construction order)");
  }
  const SpecNode& incoming = nodes_[new_input];
  const SpecNode& displaced = nodes_[node.inputs[arg]];
  if (incoming.components != displaced.components) {
    throw NetworkError("rewire_input: '" + incoming.label + "' produces " +
                       std::to_string(incoming.components) +
                       " components where '" + displaced.label +
                       "' produced " + std::to_string(displaced.components));
  }
  node.inputs[arg] = new_input;
}

void NetworkSpec::set_label(int id, const std::string& label) {
  check_id(id, "in set_label");
  nodes_[id].label = label;
}

const SpecNode& NetworkSpec::node(int id) const {
  check_id(id, "in node()");
  return nodes_[id];
}

std::size_t NetworkSpec::filter_count() const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(), [](const SpecNode& n) {
        return n.type == NodeType::filter;
      }));
}

std::size_t NetworkSpec::source_count() const {
  return nodes_.size() - filter_count();
}

std::vector<std::string> NetworkSpec::field_names() const {
  std::vector<std::string> names;
  for (const SpecNode& n : nodes_) {
    if (n.type == NodeType::field_source) names.push_back(n.field_name);
  }
  return names;
}

std::string NetworkSpec::to_script() const {
  std::ostringstream os;
  os << "net = NetworkSpec()\n";
  for (const SpecNode& n : nodes_) {
    os << 'n' << n.id << " = ";
    switch (n.type) {
      case NodeType::field_source:
        os << "net.add_field_source(\"" << n.field_name << "\")";
        break;
      case NodeType::constant:
        os << "net.add_constant(" << support::format_float(n.const_value)
           << ")";
        break;
      case NodeType::filter: {
        std::vector<std::string> args;
        args.reserve(n.inputs.size());
        for (int in : n.inputs) args.push_back("n" + std::to_string(in));
        os << "net.add_filter(\"" << n.kind << "\", ["
           << support::join(args, ", ") << "]";
        if (n.kind == "decompose") os << ", component=" << n.component;
        os << ")";
        break;
      }
    }
    os << "  # " << n.label << "\n";
  }
  if (output_id_ >= 0) {
    os << "net.set_output(n" << output_id_ << ")\n";
  }
  return os.str();
}

NetworkSpec prune_unreachable(const NetworkSpec& spec) {
  if (spec.output_id() < 0) {
    throw NetworkError("prune_unreachable requires a network output");
  }
  // Mark everything reachable from the output.
  std::vector<bool> keep(spec.nodes().size(), false);
  std::vector<int> stack{spec.output_id()};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (keep[static_cast<std::size_t>(id)]) continue;
    keep[static_cast<std::size_t>(id)] = true;
    for (const int in : spec.node(id).inputs) stack.push_back(in);
  }

  // Rebuild through the public API with compacted ids. Dedup/CSE is
  // disabled during the rebuild: folding already happened (or was
  // deliberately off) in the source spec.
  SpecOptions rebuild_options = spec.options();
  rebuild_options.cse = false;
  rebuild_options.dedup_constants = false;
  NetworkSpec pruned(rebuild_options);
  std::vector<int> remap(spec.nodes().size(), -1);
  for (const SpecNode& node : spec.nodes()) {
    if (!keep[static_cast<std::size_t>(node.id)]) continue;
    int new_id = -1;
    switch (node.type) {
      case NodeType::field_source:
        new_id = pruned.add_field_source(node.field_name);
        break;
      case NodeType::constant:
        new_id = pruned.add_constant(node.const_value);
        break;
      case NodeType::filter: {
        std::vector<int> inputs;
        inputs.reserve(node.inputs.size());
        for (const int in : node.inputs) inputs.push_back(remap[in]);
        new_id = pruned.add_filter(node.kind, inputs, node.component);
        break;
      }
    }
    pruned.set_label(new_id, node.label);
    remap[node.id] = new_id;
  }
  pruned.set_output(remap[spec.output_id()]);
  return pruned;
}

}  // namespace dfg::dataflow
