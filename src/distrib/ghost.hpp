// Distributed layer: ghost-data generation.
//
// The paper's distributed run "explicitly requests ghost data generation
// from VisIt", which duplicates and exchanges a stencil of cells around
// each sub-grid so the gradient primitive computes proper values on
// sub-grid boundaries. This module is that mechanism: given per-block
// interior arrays, it assembles per-block padded arrays whose ghost layers
// are copied from face neighbours, counting the simulated messages and
// bytes exchanged. Ghost layers are clamped at the global domain boundary,
// where the gradient falls back to the same one-sided stencil a
// single-grid run uses — making distributed results bit-identical to
// serial ones on every interior cell.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "distrib/decomposition.hpp"
#include "mesh/mesh.hpp"

namespace dfg::distrib {

/// One block's array padded with ghost layers. Low-side ghost widths give
/// the offset of the interior region inside `values`.
struct PaddedBlock {
  mesh::Dims dims;  ///< padded cell dims
  std::size_t lo_i = 0, lo_j = 0, lo_k = 0;
  std::vector<float> values;

  std::size_t index(std::size_t i, std::size_t j, std::size_t k) const {
    return i + dims.nx * (j + dims.ny * k);
  }
};

class GhostExchanger {
 public:
  GhostExchanger(const GridDecomposition& decomposition, std::size_t width = 1);

  /// Splits one global cell-centered array into per-block interiors (the
  /// per-rank data a simulation would own).
  std::vector<std::vector<float>> scatter(
      std::span<const float> global_values) const;

  /// Assembles padded blocks from interiors, exchanging face ghost layers
  /// between neighbouring blocks. Edge/corner ghost slots (never read by
  /// the axis-aligned gradient stencil) are zero-filled.
  std::vector<PaddedBlock> exchange(
      const std::vector<std::vector<float>>& interiors);

  /// Copies each padded block's interior back into a global array.
  std::vector<float> gather(const std::vector<PaddedBlock>& blocks) const;

  /// Ghost width actually applied on each side of a block (0 at the domain
  /// boundary).
  void applied_widths(std::size_t block_id, std::size_t lo[3],
                      std::size_t hi[3]) const;

  std::size_t width() const { return width_; }
  /// Cumulative exchange traffic across all exchange() calls.
  std::size_t messages() const { return messages_; }
  std::size_t bytes() const { return bytes_; }

 private:
  const GridDecomposition* decomposition_;
  std::size_t width_;
  std::size_t messages_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace dfg::distrib
