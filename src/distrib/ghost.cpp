#include "distrib/ghost.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dfg::distrib {

GhostExchanger::GhostExchanger(const GridDecomposition& decomposition,
                               std::size_t width)
    : decomposition_(&decomposition), width_(width) {
  const mesh::Dims block = decomposition.block_dims();
  if (width >= block.nx || width >= block.ny || width >= block.nz) {
    throw Error("ghost width " + std::to_string(width) +
                " too large for block dims " + mesh::to_string(block));
  }
}

std::vector<std::vector<float>> GhostExchanger::scatter(
    std::span<const float> global_values) const {
  const mesh::Dims g = decomposition_->global_dims();
  if (global_values.size() < g.cell_count()) {
    throw Error("global array smaller than the global grid");
  }
  std::vector<std::vector<float>> interiors(decomposition_->block_count());
  for (std::size_t b = 0; b < decomposition_->block_count(); ++b) {
    const BlockExtent e = decomposition_->extent(b);
    const mesh::Dims d = e.dims();
    std::vector<float>& interior = interiors[b];
    interior.resize(d.cell_count());
    for (std::size_t k = 0; k < d.nz; ++k) {
      for (std::size_t j = 0; j < d.ny; ++j) {
        const std::size_t src = (e.i_begin) +
                                g.nx * ((e.j_begin + j) +
                                        g.ny * (e.k_begin + k));
        const std::size_t dst = d.nx * (j + d.ny * k);
        std::copy_n(global_values.begin() + static_cast<long>(src), d.nx,
                    interior.begin() + static_cast<long>(dst));
      }
    }
  }
  return interiors;
}

void GhostExchanger::applied_widths(std::size_t block_id, std::size_t lo[3],
                                    std::size_t hi[3]) const {
  for (int axis = 0; axis < 3; ++axis) {
    lo[axis] =
        decomposition_->neighbor(block_id, axis, -1).has_value() ? width_ : 0;
    hi[axis] =
        decomposition_->neighbor(block_id, axis, +1).has_value() ? width_ : 0;
  }
}

std::vector<PaddedBlock> GhostExchanger::exchange(
    const std::vector<std::vector<float>>& interiors) {
  if (interiors.size() != decomposition_->block_count()) {
    throw Error("exchange expects one interior array per block");
  }
  const mesh::Dims bd = decomposition_->block_dims();
  for (const auto& interior : interiors) {
    if (interior.size() != bd.cell_count()) {
      throw Error("interior array size does not match the block dims");
    }
  }

  const auto interior_at = [&](std::size_t block, std::size_t i,
                               std::size_t j, std::size_t k) {
    return interiors[block][i + bd.nx * (j + bd.ny * k)];
  };

  std::vector<PaddedBlock> blocks(decomposition_->block_count());
  for (std::size_t b = 0; b < decomposition_->block_count(); ++b) {
    std::size_t lo[3], hi[3];
    applied_widths(b, lo, hi);
    PaddedBlock& padded = blocks[b];
    padded.lo_i = lo[0];
    padded.lo_j = lo[1];
    padded.lo_k = lo[2];
    padded.dims = mesh::Dims{bd.nx + lo[0] + hi[0], bd.ny + lo[1] + hi[1],
                             bd.nz + lo[2] + hi[2]};
    padded.values.assign(padded.dims.cell_count(), 0.0f);

    // Own interior.
    for (std::size_t k = 0; k < bd.nz; ++k) {
      for (std::size_t j = 0; j < bd.ny; ++j) {
        for (std::size_t i = 0; i < bd.nx; ++i) {
          padded.values[padded.index(i + lo[0], j + lo[1], k + lo[2])] =
              interior_at(b, i, j, k);
        }
      }
    }

    // Face ghost layers from neighbours: one simulated message per face.
    for (int axis = 0; axis < 3; ++axis) {
      for (const int dir : {-1, +1}) {
        const auto nb = decomposition_->neighbor(b, axis, dir);
        if (!nb) continue;
        std::size_t copied = 0;
        for (std::size_t layer = 0; layer < width_; ++layer) {
          // Padded index of the ghost plane and neighbour-interior index of
          // the source plane along `axis`.
          const std::size_t axis_extent =
              axis == 0 ? bd.nx : (axis == 1 ? bd.ny : bd.nz);
          // Ghost plane p on the low side holds the neighbour's plane
          // (extent - width + p): padded coordinates stay globally
          // contiguous across the block boundary.
          const std::size_t ghost_pos =
              dir < 0 ? layer
                      : ((axis == 0 ? lo[0] : axis == 1 ? lo[1] : lo[2]) +
                         axis_extent + layer);
          const std::size_t src_pos =
              dir < 0 ? (axis_extent - width_ + layer) : layer;
          // Sweep the two transverse axes over the *interior* range.
          const std::size_t t1 = axis == 0 ? bd.ny : bd.nx;
          const std::size_t t2 = axis == 2 ? bd.ny : bd.nz;
          for (std::size_t b2 = 0; b2 < t2; ++b2) {
            for (std::size_t a1 = 0; a1 < t1; ++a1) {
              std::size_t pi, pj, pk;  // padded coords
              std::size_t si, sj, sk;  // neighbour interior coords
              if (axis == 0) {
                pi = ghost_pos;
                pj = a1 + lo[1];
                pk = b2 + lo[2];
                si = src_pos;
                sj = a1;
                sk = b2;
              } else if (axis == 1) {
                pi = a1 + lo[0];
                pj = ghost_pos;
                pk = b2 + lo[2];
                si = a1;
                sj = src_pos;
                sk = b2;
              } else {
                pi = a1 + lo[0];
                pj = b2 + lo[1];
                pk = ghost_pos;
                si = a1;
                sj = b2;
                sk = src_pos;
              }
              padded.values[padded.index(pi, pj, pk)] =
                  interior_at(*nb, si, sj, sk);
              ++copied;
            }
          }
        }
        messages_ += 1;
        bytes_ += copied * sizeof(float);
      }
    }
  }
  return blocks;
}

std::vector<float> GhostExchanger::gather(
    const std::vector<PaddedBlock>& blocks) const {
  if (blocks.size() != decomposition_->block_count()) {
    throw Error("gather expects one padded block per block");
  }
  const mesh::Dims g = decomposition_->global_dims();
  const mesh::Dims bd = decomposition_->block_dims();
  std::vector<float> global_values(g.cell_count(), 0.0f);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BlockExtent e = decomposition_->extent(b);
    const PaddedBlock& padded = blocks[b];
    for (std::size_t k = 0; k < bd.nz; ++k) {
      for (std::size_t j = 0; j < bd.ny; ++j) {
        for (std::size_t i = 0; i < bd.nx; ++i) {
          global_values[(e.i_begin + i) +
                        g.nx * ((e.j_begin + j) + g.ny * (e.k_begin + k))] =
              padded.values[padded.index(i + padded.lo_i, j + padded.lo_j,
                                         k + padded.lo_k)];
        }
      }
    }
  }
  return global_values;
}

}  // namespace dfg::distrib
