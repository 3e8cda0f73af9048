#include "runtime/bindings.hpp"

#include "support/error.hpp"
#include "vcl/resident_pool.hpp"

namespace dfg::runtime {

FieldBindings::~FieldBindings() {
  for (const auto& [name, values] : owned_) {
    vcl::note_host_mutation(values.data());
  }
}

void FieldBindings::bind(const std::string& name,
                         std::span<const float> values) {
  if (name.empty()) {
    throw NetworkError("cannot bind an array to an empty field name");
  }
  arrays_[name] = values;
}

void FieldBindings::bind_owned(const std::string& name,
                               std::vector<float> values) {
  const auto it = owned_.find(name);
  if (it != owned_.end()) {
    // The replaced array's storage is about to be freed; retire its tag.
    vcl::note_host_mutation(it->second.data());
  }
  owned_[name] = std::move(values);
  bind(name, owned_[name]);
}

void FieldBindings::bind_mesh(const mesh::RectilinearMesh& mesh) {
  bind_owned("x", mesh.cell_center_array(0));
  bind_owned("y", mesh.cell_center_array(1));
  bind_owned("z", mesh.cell_center_array(2));
  bind_owned("dims", mesh.dims_array());
}

bool FieldBindings::has(const std::string& name) const {
  return arrays_.count(name) != 0;
}

std::span<const float> FieldBindings::get(const std::string& name) const {
  const auto it = arrays_.find(name);
  if (it == arrays_.end()) {
    throw NetworkError("expression references unbound field '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> FieldBindings::names() const {
  std::vector<std::string> out;
  out.reserve(arrays_.size());
  for (const auto& [name, view] : arrays_) out.push_back(name);
  return out;
}

std::size_t FieldBindings::element_count(
    const std::vector<std::string>& field_names) const {
  for (const std::string& name : field_names) {
    if (name == "x" || name == "y" || name == "z" || name == "dims") continue;
    const auto it = arrays_.find(name);
    if (it != arrays_.end()) return it->second.size();
  }
  return 0;
}

}  // namespace dfg::runtime
