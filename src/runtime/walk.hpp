// Runtime layer: each strategy's device walk, written once.
//
// A walk is the ordered command stream a strategy issues (allocations,
// transfers, launches, and releases as handles drop) plus the host-side
// array work between them. Each strategy's walk is one function template
// over a command target, defined below, and walk() at the end maps a
// StrategyKind to its walk. Every caller runs walk(), on one of two targets:
//
//  * DeviceTarget executes the commands on a device through one profiled
//    queue — Strategy::execute and the fallback ladder;
//  * Tally records them without executing — the planner's estimates. It
//    tracks live and peak device floats (a handle's floats return when it
//    drops) and, when built with a cost model, sums each transfer's and
//    launch's simulated seconds. Host arrays reduce to their sizes, so a
//    tally reads no field value and allocates no element-sized array.
//
// Because both estimators run the very code that executes, the planner's
// footprint and duration equal the cold-path measurement by construction.
// The one place the targets differ is streamed chunk sizing
// (chunk_planes): see there.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/network.hpp"
#include "kernels/generator.hpp"
#include "kernels/program.hpp"
#include "kernels/program_cache.hpp"
#include "kernels/vm.hpp"
#include "runtime/bindings.hpp"
#include "runtime/slab.hpp"
#include "runtime/strategy.hpp"
#include "support/error.hpp"
#include "vcl/cost_model.hpp"
#include "vcl/device.hpp"
#include "vcl/profiling.hpp"
#include "vcl/queue.hpp"

namespace dfg::runtime {

/// Executes a walk's commands on `device`, recording them in `log`.
class DeviceTarget {
 public:
  /// A device value a walk holds; a field may share a pool-resident upload.
  using Value = std::shared_ptr<const vcl::Buffer>;
  /// A freshly allocated kernel output, writable until it becomes a Value.
  using Output = std::shared_ptr<vcl::Buffer>;
  using Result = std::vector<float>;

  /// A host array: a view of a bound array, or storage this target made.
  struct Host {
    Host() = default;
    explicit Host(std::span<const float> bound) : view(bound) {}
    explicit Host(std::vector<float> data)
        : owned(std::move(data)), view(owned) {}
    Host(Host&&) = default;
    Host& operator=(Host&&) = default;

    std::vector<float> owned;
    std::span<const float> view;
  };

  /// One launch's kernel arguments, in parameter order.
  struct Args {
    explicit Args(std::size_t count) { bindings.reserve(count); }
    void add(const Value& value) {
      bindings.push_back({value->device_view().data(), value->size()});
    }
    std::vector<kernels::BufferBinding> bindings;
  };

  DeviceTarget(vcl::Device& device, vcl::ProfilingLog& log)
      : queue_(device, log) {}

  static Host host_field(std::span<const float> bound) { return Host(bound); }
  /// A problem-sized host array of `value`.
  static Host host_fill(std::size_t floats, float value) {
    return Host(std::vector<float>(floats, value));
  }
  /// Lane `lane` of a 4-wide interleaved array, `count` cells.
  static Host host_slice(const Host& in, int lane, std::size_t count);
  /// Copies `count` floats of `from` at `offset` into `to` at `at`.
  static void host_copy(const Host& from, std::size_t offset,
                        std::size_t count, Host& to, std::size_t at);
  /// The first `elements` floats of `host`.
  static Result result(Host&& host, std::size_t elements);

  /// Stages `host` under `label`. When `poolable` and the device's
  /// resident pool is enabled, the pool is consulted first: a hit
  /// eliminates the transfer, a miss uploads and leaves the buffer
  /// resident, and either way the handle keeps the entry from eviction
  /// while held. Otherwise this is the cold path: allocate plus one
  /// profiled write, and the handle is the buffer's only owner. Only
  /// bindings-backed field arrays may pass poolable = true, so a
  /// freed-and-reused host address can never alias a live pool entry.
  /// `generation_key` follows ResidentPool::acquire (slab sub-ranges pass
  /// the base array).
  Value upload(std::span<const float> host, const std::string& label,
               bool poolable = true, const void* generation_key = nullptr);
  Value upload(const Host& host, const std::string& label,
               bool poolable = true) {
    return upload(host.view, label, poolable);
  }
  Output allocate(std::size_t floats) {
    return std::make_shared<vcl::Buffer>(queue_.device().allocate(floats));
  }
  void launch(const kernels::Program& program, Args&& args,
              const Output& out, std::size_t items);
  Host read(const Value& buffer, const std::string& label);

  /// Interior planes per streamed chunk for `chunk_cells` cells; 0
  /// auto-sizes the slab working set (inputs + output of `program`) to
  /// half the device's effective free memory, leaving room for the host's
  /// other buffers. The effective headroom respects an injected synthetic
  /// capacity, so a degraded run sizes its chunks to the capacity that
  /// actually binds.
  std::size_t chunk_planes(const SlabPlan& plan,
                           const kernels::Program& program,
                           std::size_t chunk_cells);

 private:
  vcl::CommandQueue queue_;
};

/// Records a walk's commands: device floats live and at peak, and, when
/// built with a cost model, the simulated seconds of every transfer and
/// launch.
class Tally {
 public:
  /// Returns a reservation's floats to the tally when its handle drops.
  struct Release {
    std::size_t floats = 0;
    void operator()(Tally* tally) const { tally->live_ -= floats; }
  };
  /// Device floats held from allocation until the handle drops.
  using Reservation = std::unique_ptr<Tally, Release>;

  using Value = Reservation;
  using Output = Reservation;
  /// A host array, reduced to its float count.
  using Host = std::size_t;
  /// The result's float count.
  using Result = std::size_t;

  struct Args {
    explicit Args(std::size_t) {}
    void add(const Reservation&) {}
  };

  Tally() = default;
  Tally(const vcl::CostModel& cost, double efficiency)
      : cost_(&cost), efficiency_(efficiency) {}
  Tally(const Tally&) = delete;
  Tally& operator=(const Tally&) = delete;

  static Host host_field(std::span<const float> bound) {
    return bound.size();
  }
  static Host host_fill(std::size_t floats, float) { return floats; }
  static Host host_slice(Host, int, std::size_t count) { return count; }
  static void host_copy(Host, std::size_t, std::size_t, Host&, std::size_t) {}
  static Result result(Host, std::size_t elements) { return elements; }

  Reservation upload(std::size_t floats, const std::string&,
                     bool = true, const void* = nullptr) {
    Reservation held = allocate(floats);
    transfer(floats);
    return held;
  }
  Reservation upload(std::span<const float> host, const std::string& label,
                     bool poolable = true,
                     const void* generation_key = nullptr) {
    return upload(host.size(), label, poolable, generation_key);
  }
  Reservation allocate(std::size_t floats) {
    live_ += floats;
    if (live_ > peak_) peak_ = live_;
    return Reservation(this, Release{floats});
  }
  void launch(const kernels::Program& program, Args&&, const Reservation&,
              std::size_t items) {
    if (cost_ == nullptr) return;
    seconds_ += cost_->kernel_seconds(
        program.flops_per_item() * items,
        program.global_bytes_per_item() * items,
        program.max_live_scalar_registers(), efficiency_);
  }
  Host read(const Reservation& buffer, const std::string&) {
    transfer(buffer.get_deleter().floats);
    return buffer.get_deleter().floats;
  }
  /// Prices exactly the chunk asked for: 0 (or under one plane) is
  /// one-plane chunks, the streamed strategy's memory floor. A tally sees
  /// no device, so it cannot auto-size as DeviceTarget does.
  static std::size_t chunk_planes(const SlabPlan& plan,
                                  const kernels::Program&,
                                  std::size_t chunk_cells) {
    return chunk_planes_for(plan, chunk_cells);
  }

  std::size_t high_water_bytes() const { return peak_ * sizeof(float); }
  double seconds() const { return seconds_; }

 private:
  void transfer(std::size_t floats) {
    if (cost_ != nullptr) {
      seconds_ += cost_->transfer_seconds(floats * sizeof(float));
    }
  }

  const vcl::CostModel* cost_ = nullptr;
  double efficiency_ = 0.0;
  std::size_t live_ = 0;
  std::size_t peak_ = 0;
  double seconds_ = 0.0;
};

/// Throws NetworkError, before any device command, when a field the
/// network reads is unbound or holds fewer than `elements` values. A field
/// read only as grad3d's `dims` operand is exempt from the length rule, a
/// field no node reads is not checked, and a bare-field output counts as a
/// read. A longer binding is legal; a bare-field result keeps its first
/// `elements` values.
void check_bindings(const dataflow::Network& network,
                    const FieldBindings& bindings, std::size_t elements);

/// The per-filter walks' one liveness rule: one value per network node,
/// each dropped once its last consumer has taken it. The counts start at
/// Network::use_counts(), whose extra use for the output keeps it to the
/// end.
template <class Value>
class LiveValues {
 public:
  explicit LiveValues(const dataflow::Network& network)
      : values_(network.spec().nodes().size()), refs_(network.use_counts()) {}

  Value& operator[](int id) { return values_[static_cast<std::size_t>(id)]; }

  /// Counts one use of each of `node`'s inputs, dropping the values whose
  /// last consumer `node` is.
  void consumed(const dataflow::SpecNode& node) {
    for (const int in : node.inputs) {
      if (--refs_[static_cast<std::size_t>(in)] == 0) (*this)[in] = Value();
    }
  }

 private:
  std::vector<Value> values_;
  std::vector<int> refs_;
};

/// Roundtrip execution strategy (paper §III-C1).
///
/// One kernel dispatch per filter, with *every* kernel argument uploaded at
/// dispatch time (an argument used twice is written twice) and every result
/// transferred straight back to the host. Intermediates therefore live in
/// host memory, each dropped once its last consumer has uploaded it, and
/// the device only ever holds one kernel's working set — the
/// least-constrained strategy, at the cost of maximal PCIe traffic.
/// Decompose runs on the host as array slicing, and constants are
/// materialised as host arrays uploaded per use (both per the device-event
/// accounting of the paper's Table II).
template <class Target>
typename Target::Result walk_roundtrip(const dataflow::Network& network,
                                       const FieldBindings& bindings,
                                       std::size_t elements, Target& target) {
  const auto& spec = network.spec();
  // Every node's value is held on the host, dropped once the node's last
  // consumer has uploaded (or sliced) it.
  LiveValues<typename Target::Host> values(network);

  for (const int id : network.topo_order()) {
    const dataflow::SpecNode& node = spec.node(id);
    switch (node.type) {
      case dataflow::NodeType::field_source:
        values[id] = target.host_field(bindings.get(node.field_name));
        continue;
      case dataflow::NodeType::constant:
        // Constant source filters materialise a problem-sized host array;
        // it is uploaded as a buffer argument by each consuming kernel.
        values[id] = target.host_fill(elements,
                                      static_cast<float>(node.const_value));
        continue;
      case dataflow::NodeType::filter:
        break;
    }

    if (node.kind == "decompose") {
      // Host-side slicing of the transferred vector-valued array: roundtrip
      // already holds the intermediate on the host, so no kernel is needed.
      values[id] =
          target.host_slice(values[node.inputs[0]], node.component, elements);
      values.consumed(node);
      continue;
    }

    const std::shared_ptr<const kernels::Program> program =
        kernels::ProgramCache::instance().standalone(node.kind,
                                                     node.component);

    // Upload one buffer per argument occurrence. Only bound field arrays
    // are pool-eligible: host intermediates die at the end of this
    // evaluation and must stay transient.
    std::vector<typename Target::Value> arg_buffers;
    arg_buffers.reserve(node.inputs.size());
    typename Target::Args args(node.inputs.size());
    for (const int input : node.inputs) {
      const bool poolable =
          spec.node(input).type == dataflow::NodeType::field_source;
      arg_buffers.push_back(target.upload(
          values[input], node.kind + ":" + spec.node(input).label, poolable));
      args.add(arg_buffers.back());
    }
    values.consumed(node);

    const typename Target::Output out =
        target.allocate(elements * program->out_stride());
    target.launch(*program, std::move(args), out, elements);
    values[id] = target.read(out, node.label);
    // arg_buffers and out release here: the device never holds more than
    // one filter's working set.
  }

  return target.result(std::move(values[spec.output_id()]), elements);
}

/// Staged execution strategy (paper §III-C2).
///
/// One kernel per filter, but intermediates never leave the device: unique
/// external inputs are uploaded once, results are staged in device global
/// memory between kernel invocations, and only the network output is read
/// back. Consequences measured by the paper: host-device traffic collapses
/// to (unique inputs + 1), kernel count grows — decompose becomes a kernel
/// moving intermediate lanes on the device, and each unique constant is
/// materialised by one constant-fill kernel — and the device footprint is
/// the largest of the three strategies, bounded by reference counting that
/// releases each intermediate after its last consumer has run.
template <class Target>
typename Target::Result walk_staged(const dataflow::Network& network,
                                    const FieldBindings& bindings,
                                    std::size_t elements, Target& target) {
  const auto& spec = network.spec();
  // One device value per node: filter outputs and constants are owned
  // here, a field may share a pool-resident upload.
  LiveValues<typename Target::Value> values(network);

  // Sources are materialised lazily, at their first consumer: each unique
  // external input still uploads exactly once and each unique constant is
  // filled by exactly one kernel, but buffers do not occupy device memory
  // before they are needed (this is what gives the paper's Figure 2 example
  // its staged footprint of 4 arrays rather than 5).
  const auto materialise_source = [&](int id) {
    const dataflow::SpecNode& node = spec.node(id);
    if (node.type == dataflow::NodeType::field_source) {
      values[id] =
          target.upload(bindings.get(node.field_name), node.field_name);
    } else {  // constant
      typename Target::Output buffer = target.allocate(elements);
      const std::shared_ptr<const kernels::Program> fill =
          kernels::ProgramCache::instance().standalone(
              "const_fill", 0, static_cast<float>(node.const_value));
      target.launch(*fill, typename Target::Args(0), buffer, elements);
      values[id] = std::move(buffer);
    }
  };

  const auto input_of = [&](int id) -> const typename Target::Value& {
    if (!values[id]) {
      if (spec.node(id).type == dataflow::NodeType::filter) {
        throw NetworkError("staged execution consumed '" +
                           spec.node(id).label +
                           "' after its buffer was released");
      }
      materialise_source(id);
    }
    return values[id];
  };

  for (const int id : network.topo_order()) {
    const dataflow::SpecNode& node = spec.node(id);
    if (node.type != dataflow::NodeType::filter) continue;

    const std::shared_ptr<const kernels::Program> program =
        kernels::ProgramCache::instance().standalone(node.kind,
                                                     node.component);
    typename Target::Args args(node.inputs.size());
    for (const int in : node.inputs) args.add(input_of(in));

    typename Target::Output out =
        target.allocate(elements * program->out_stride());
    target.launch(*program, std::move(args), out, elements);
    values[id] = std::move(out);

    // Reference counting: release intermediates after their last consumer.
    // Dropping the sole owner frees the buffer; dropping a share of a
    // resident upload leaves it in the pool for the next evaluation — that
    // is the transfer saving.
    values.consumed(node);
  }

  const int out_id = spec.output_id();
  if (!values[out_id]) {
    // The output can be a bare source (e.g. "r = 3.0") that no filter
    // consumed; materialise it now.
    if (spec.node(out_id).type == dataflow::NodeType::filter) {
      throw NetworkError("staged execution lost the output buffer");
    }
    materialise_source(out_id);
  }
  return target.result(target.read(values[out_id], spec.node(out_id).label),
                       elements);
}

/// Fusion execution strategy (paper §III-C3).
///
/// The dynamic kernel generator fuses the entire network into one kernel:
/// unique external inputs upload once, a single dispatch computes the whole
/// expression with intermediates in registers (constants inlined at source
/// level, decompose lowered to vector-component selects, gradients reading
/// global memory directly), and one transfer returns the result. Global
/// memory holds only the inputs and the output — the footprint the paper's
/// Figure 2 annotates as "all filters combined into a single kernel".
///
/// Networks that take gradients of *computed* values cannot fuse into one
/// kernel (a stencil cannot read registers); for those the strategy runs
/// the partitioned pipeline: one fused kernel per materialisation barrier,
/// intermediates staying on the device, still with (unique inputs) uploads
/// and a single readback.
///
/// The pipeline comes from the process-wide ProgramCache (generated once per
/// network structure), and buffer-name lookups are resolved to dense slot
/// indices up front, so the per-evaluation path performs no string-keyed map
/// lookups.
template <class Target>
typename Target::Result walk_fusion(const dataflow::Network& network,
                                    const kernels::FusedPipeline& pipeline,
                                    const FieldBindings& bindings,
                                    std::size_t elements, Target& target) {
  // Per-stage buffer wiring with every parameter name resolved to a dense
  // slot index (resolved once per pipeline, reused across stages).
  struct StagePlan {
    std::vector<std::size_t> param_slots;
    std::size_t out_slot = 0;
  };
  // Resolve every buffer name (fields, materialised intermediates, the
  // output) to a slot index.
  std::vector<std::string> slot_names;
  std::map<std::string, std::size_t> slot_index;
  const auto slot_for = [&](const std::string& name) {
    const auto it = slot_index.find(name);
    if (it != slot_index.end()) return it->second;
    const std::size_t slot = slot_names.size();
    slot_names.push_back(name);
    slot_index.emplace(name, slot);
    return slot;
  };
  const int output_id = network.output_id();
  std::vector<StagePlan> plans;
  plans.reserve(pipeline.stages.size());
  for (const kernels::FusedPipeline::Stage& stage : pipeline.stages) {
    StagePlan plan;
    plan.param_slots.reserve(stage.program.params().size());
    for (const kernels::BufferParam& param : stage.program.params()) {
      plan.param_slots.push_back(slot_for(param.name));
    }
    plan.out_slot = slot_for(
        stage.node_id == output_id && !pipeline.partitioned()
            ? std::string("out")
            : kernels::materialized_param_name(stage.node_id));
    plans.push_back(std::move(plan));
  }
  const std::size_t final_slot =
      slot_index.at(pipeline.partitioned()
                        ? kernels::materialized_param_name(output_id)
                        : std::string("out"));

  // Device values live for the whole pipeline: field uploads happen once at
  // first use (in stage-parameter order, matching the uncached event
  // stream); materialised intermediates are written by their stage and
  // read by later stages' kernels without further transfers. A field slot
  // may share a pool-resident buffer.
  std::vector<typename Target::Value> values(slot_names.size());
  for (std::size_t s = 0; s < pipeline.stages.size(); ++s) {
    const kernels::FusedPipeline::Stage& stage = pipeline.stages[s];
    const StagePlan& plan = plans[s];
    typename Target::Args args(plan.param_slots.size());
    for (const std::size_t slot : plan.param_slots) {
      if (!values[slot]) {
        // A field parameter seen for the first time: stage the binding.
        // (Materialised parameters are created by their producing stage
        // and are always present by the time a consumer asks.)
        values[slot] =
            target.upload(bindings.get(slot_names[slot]), slot_names[slot]);
      }
      args.add(values[slot]);
    }
    typename Target::Output out =
        target.allocate(elements * stage.program.out_stride());
    target.launch(stage.program, std::move(args), out, elements);
    values[plan.out_slot] = std::move(out);
  }

  return target.result(
      target.read(values[final_slot], network.spec().node(output_id).label),
      elements);
}

/// Streamed-fusion execution strategy: the paper's first future-work item
/// ("we plan to investigate the runtime performance of our execution
/// strategies in a streaming context").
///
/// Generates the same fused kernel as the fusion strategy but executes it
/// over z-plane slabs whose working set fits a configurable device budget,
/// re-uploading each slab's sub-ranges (plus gradient halo planes) and
/// reading each slab's interior back. Device memory becomes O(chunk) instead
/// of O(problem), so expressions whose fusion working set exceeds the device
/// still run — at the price of extra transfers and dispatches. Interior
/// results are bit-identical to single-kernel fusion.
///
/// `program` is a single-kernel fused pipeline's stage; the caller picks
/// `chunk_planes`, the interior planes per chunk. Every slab lies inside
/// the plan's `total_elements()`, which check_bindings guarantees each
/// slabbed field holds.
template <class Target>
typename Target::Result walk_streamed(const kernels::Program& program,
                                      const SlabPlan& plan,
                                      std::size_t chunk_planes,
                                      const FieldBindings& bindings,
                                      Target& target) {
  const std::vector<SlabParam> params = resolve_slab_params(program, bindings);
  const std::string read_label = program.name() + "@slab";
  typename Target::Host result = target.host_fill(plan.total_elements(), 0.0f);
  for (std::size_t begin = 0; begin < plan.total_planes;
       begin += chunk_planes) {
    const std::size_t end =
        std::min(plan.total_planes, begin + chunk_planes);
    // The slab: the chunk's planes plus the halo on each side, clamped at
    // the domain faces.
    const std::size_t lo = begin > plan.halo ? begin - plan.halo : 0;
    const std::size_t hi = std::min(plan.total_planes, end + plan.halo);
    const std::size_t slab_cells = (hi - lo) * plan.plane_cells;

    // The per-slab dims array: local plane count, same transverse shape.
    const std::array<float, 3> local_dims{static_cast<float>(plan.nx),
                                          static_cast<float>(plan.ny),
                                          static_cast<float>(hi - lo)};

    // The handles pin resident sub-range buffers while this chunk's kernel
    // can still read them; they drop at the end of the chunk, so a scan
    // larger than the pool watermark recycles LRU slabs between chunks.
    std::vector<typename Target::Value> inputs;
    inputs.reserve(params.size());
    typename Target::Args args(params.size());
    for (const SlabParam& param : params) {
      if (param.is_dims) {
        // The dims array is a stack temporary rewritten per slab: never
        // pool-eligible.
        inputs.push_back(target.upload(std::span<const float>(local_dims),
                                       param.label, /*poolable=*/false));
      } else {
        const std::size_t offset = lo * plan.plane_cells;
        // Sub-range uploads key the pool on the slab pointer but follow the
        // *base* array's generation tag, so mutating the bound field
        // invalidates every one of its slabs.
        inputs.push_back(target.upload(param.view.subspan(offset, slab_cells),
                                       param.label, /*poolable=*/true,
                                       /*generation_key=*/param.view.data()));
      }
      args.add(inputs.back());
    }

    const typename Target::Output out =
        target.allocate(slab_cells * program.out_stride());
    target.launch(program, std::move(args), out, slab_cells);

    // Read the whole slab back (one transfer) and keep the interior planes.
    target.host_copy(target.read(out, read_label),
                     (begin - lo) * plan.plane_cells,
                     (end - begin) * plan.plane_cells, result,
                     begin * plan.plane_cells);
  }
  return target.result(std::move(result), plan.total_elements());
}

/// What one walk() produced: the target's result and the fused pipeline
/// the walk ran (fusion and streamed; null for roundtrip and staged).
template <class Target>
struct Walked {
  typename Target::Result result;
  std::shared_ptr<const kernels::FusedPipeline> pipeline;
};

/// Runs `kind`'s walk of `network` over `elements` cells on `target`: the
/// one place a strategy kind is wired to its walk, its fused pipeline and
/// its streamed chunking. Strategy::execute, the fallback ladder and the
/// planner all run it. The bindings are checked first (check_bindings), so
/// a short or unbound field is refused the same way on every strategy and
/// target. `streamed_chunk_cells` applies to streamed only (see
/// chunk_planes on each target).
template <class Target>
Walked<Target> walk(StrategyKind kind, const dataflow::Network& network,
                    const FieldBindings& bindings, std::size_t elements,
                    std::size_t streamed_chunk_cells, Target& target) {
  check_bindings(network, bindings, elements);
  kernels::ProgramCache& cache = kernels::ProgramCache::instance();
  switch (kind) {
    case StrategyKind::roundtrip:
      return {walk_roundtrip(network, bindings, elements, target), nullptr};
    case StrategyKind::staged:
      return {walk_staged(network, bindings, elements, target), nullptr};
    case StrategyKind::fusion: {
      std::shared_ptr<const kernels::FusedPipeline> pipeline =
          cache.fused_pipeline(network);
      return {walk_fusion(network, *pipeline, bindings, elements, target),
              std::move(pipeline)};
    }
    case StrategyKind::streamed: {
      std::shared_ptr<const kernels::FusedPipeline> pipeline =
          cache.fused_single(network);
      const kernels::Program& program = pipeline->stages.front().program;
      const SlabPlan plan = make_slab_plan(program, bindings, elements);
      return {walk_streamed(program, plan,
                            target.chunk_planes(plan, program,
                                                streamed_chunk_cells),
                            bindings, target),
              std::move(pipeline)};
    }
  }
  throw Error("unknown strategy kind");
}

}  // namespace dfg::runtime
