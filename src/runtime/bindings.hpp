// Runtime layer: host field bindings.
//
// The host-interface data contract of the paper's §III-D: the host
// application hands the framework views of its existing arrays (velocity
// components, axis coordinates, dims) keyed by the names the expression
// uses. Arrays are never copied on binding — the framework operates on the
// host's memory in situ; copies happen only as profiled host-to-device
// transfers.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "mesh/mesh.hpp"

namespace dfg::runtime {

class FieldBindings {
 public:
  FieldBindings() = default;
  /// Retires the generation tags of owned arrays (see vcl/resident_pool.hpp):
  /// their heap addresses may be recycled, and a recycled address must never
  /// satisfy a resident-pool lookup keyed on the dead array.
  ~FieldBindings();
  // Move-only: bound views may reference this object's owned arrays.
  FieldBindings(FieldBindings&&) = default;
  FieldBindings& operator=(FieldBindings&&) = default;
  FieldBindings(const FieldBindings&) = delete;
  FieldBindings& operator=(const FieldBindings&) = delete;

  /// Binds (or rebinds) a named host array. The view must stay valid for
  /// the lifetime of evaluations using it.
  void bind(const std::string& name, std::span<const float> values);

  /// Binds a named array whose storage the bindings own (used for derived
  /// arrays like mesh coordinates).
  void bind_owned(const std::string& name, std::vector<float> values);

  /// Binds the mesh-provided arrays a gradient expression needs: the
  /// problem-sized cell-center coordinate arrays "x", "y", "z" and the
  /// 3-entry "dims" array. The coordinate arrays are generated from the
  /// mesh and owned by the bindings; the mesh may be discarded afterwards.
  void bind_mesh(const mesh::RectilinearMesh& mesh);

  bool has(const std::string& name) const;

  /// Throws NetworkError naming the missing field.
  std::span<const float> get(const std::string& name) const;

  std::vector<std::string> names() const;

  /// Length of the first array bound under one of `field_names` that is not
  /// a mesh array (x, y, z, dims); 0 when none is bound. This is how an
  /// evaluation without a mesh infers its element count.
  std::size_t element_count(const std::vector<std::string>& field_names) const;

 private:
  std::map<std::string, std::span<const float>> arrays_;
  /// Backing storage for bind_owned; map nodes keep vector storage stable
  /// under container moves, so the spans in arrays_ stay valid.
  std::map<std::string, std::vector<float>> owned_;
};

}  // namespace dfg::runtime
