// Runtime layer: execution strategies.
//
// The paper's §III-C: a strategy controls data movement and how the
// per-primitive kernels are composed to compute a network's result. Three
// are provided — roundtrip, staged and fusion — all consuming the same
// primitive library; adding a strategy means adding a StrategyKind, its
// walk template and its case in runtime::walk(), never touching a kernel.
//
//  * roundtrip — one kernel per filter; every kernel-argument occurrence is
//    uploaded, every result downloaded, so intermediates live in host
//    memory. Decompose happens on the host (array slicing) and constants
//    are materialised host-side. Slowest, but the least device memory: its
//    footprint is the largest single kernel's working set.
//  * staged — one kernel per filter with intermediates staged in device
//    global memory; unique inputs upload once, one final download.
//    Decompose and constant materialisation become kernels. Fastest per
//    byte moved, but the largest device footprint (bounded by reference
//    counting, which releases intermediates after their last consumer).
//  * fusion — the dynamic kernel generator fuses the whole network into one
//    kernel whose intermediates live in registers; unique inputs upload
//    once, one kernel, one download.
//
// A fourth strategy implements the paper's future work:
//
//  * streamed — the fused kernel executed over z-plane slabs sized to a
//    device budget (gradient halos included), bounding device memory at
//    O(chunk) so data sets larger than the device still run.
//
// Each strategy's command order is written once, as a walk template in
// runtime/walk.hpp, and runtime::walk() there is the one map from a
// StrategyKind to its walk: execute() and the fallback ladder run it on a
// DeviceTarget, and the planner runs it on a Tally to price it.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dataflow/network.hpp"
#include "kernels/program.hpp"
#include "kernels/vm.hpp"
#include "runtime/bindings.hpp"
#include "vcl/profiling.hpp"
#include "vcl/queue.hpp"

namespace dfg::runtime {

enum class StrategyKind { roundtrip, staged, fusion, streamed };

const char* strategy_name(StrategyKind kind);

/// One execution strategy: its kind and, for streamed, the chunk size.
/// execute() runs the kind's walk (runtime/walk.hpp) on the device.
class Strategy {
 public:
  /// `streamed_chunk_cells` applies to the streamed strategy only: the
  /// target cells per chunk, 0 meaning auto-size from the device's free
  /// memory.
  explicit Strategy(StrategyKind kind, std::size_t streamed_chunk_cells = 0)
      : kind_(kind), streamed_chunk_cells_(streamed_chunk_cells) {}

  StrategyKind kind() const { return kind_; }
  const char* name() const { return strategy_name(kind_); }

  /// Executes the network over `elements` output cells, pulling inputs from
  /// the bindings and producing the derived field on the host. All device
  /// traffic goes through `device` and is recorded in `log`. Throws
  /// DeviceOutOfMemory when the strategy's working set exceeds the device
  /// (the paper's failed GPU test cases), and NetworkError, before any
  /// device command, on an unbound field or one the network reads that
  /// holds fewer than `elements` values.
  std::vector<float> execute(const dataflow::Network& network,
                             const FieldBindings& bindings,
                             std::size_t elements, vcl::Device& device,
                             vcl::ProfilingLog& log) const;

 private:
  StrategyKind kind_;
  std::size_t streamed_chunk_cells_;
};

std::unique_ptr<Strategy> make_strategy(StrategyKind kind,
                                        std::size_t streamed_chunk_cells = 0);

/// Shared helper: dispatches `program` over `elements` items through the
/// queue, with the VM as the kernel body. `inputs` views device buffers;
/// `out` must hold elements * program.out_stride() floats.
void launch_program(vcl::CommandQueue& queue, const kernels::Program& program,
                    std::vector<kernels::BufferBinding> inputs,
                    std::span<float> out, std::size_t elements);

}  // namespace dfg::runtime
