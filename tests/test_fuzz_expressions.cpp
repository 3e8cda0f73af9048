// Seeded expression-grammar fuzzer.
//
// Generates random expression scripts (depth-bounded, covering every
// expression-language operation including grad3d), executes each through
// all four execution strategies crossed with all three execution backends
// (scalar interpreter, tiled VM, jit-compiled native code), and requires
// every combination to be bit-exact against the scalar-interpreter
// reference (the NaN-class rule of tests/bitwise.hpp). Input fields carry
// NaN / infinity / signed-zero specials so non-finite propagation is
// exercised on every path — including through the jit's generated C.
//
// On a failure the script is greedily shrunk — statements dropped, nodes
// replaced by their children or by a constant — while it still fails, and
// the minimal reproducer is printed together with the seed, so a failure
// in CI is directly replayable with
//   DFGEN_FUZZ_SEED=<seed> ./test_fuzz_expressions
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "kernels/backend.hpp"
#include "kernels/generator.hpp"
#include "kernels/program.hpp"
#include "kernels/vm.hpp"
#include "mesh/mesh.hpp"
#include "runtime/bindings.hpp"
#include "runtime/planner.hpp"
#include "service/service.hpp"
#include "support/env.hpp"
#include "vcl/device.hpp"
#include "vcl/resident_pool.hpp"

#include "bitwise.hpp"

namespace {

using namespace dfg;

// ----- the expression tree the generator and shrinker share -----

struct FNode;
using FNodePtr = std::unique_ptr<FNode>;

enum class FKind {
  field,     ///< u / v / w leaf
  constant,  ///< literal from kConstPool
  ref,       ///< reference to an earlier statement's name
  infix,     ///< + - * / and the six comparisons
  call,      ///< named scalar function (sqrt .. ceil, min/max/pow, select)
  neg,       ///< unary minus
  gradc,     ///< grad3d(field, dims, x, y, z)[component]
  cfd,       ///< vector-field operator op(f1, f2, f3, dims, x, y, z)
};

struct FNode {
  FKind kind;
  std::string text;  ///< field/ref name, infix operator, or callee
  int component = 0;
  /// cfd only: the three velocity-slot field names (host-bound arrays, the
  /// same restriction gradc carries).
  std::vector<std::string> fields;
  std::vector<FNodePtr> kids;
};

const char* kFields[] = {"u", "v", "w"};
const char* kConstPool[] = {"0", "1", "2", "0.5", "1.5", "3.25", "100"};
const char* kInfixOps[] = {"+", "-",  "*",  "/",  ">",  "<",
                           ">=", "<=", "==", "!="};
struct CallOp {
  const char* name;
  int arity;
};
const CallOp kCallOps[] = {{"sqrt", 1}, {"abs", 1},  {"sin", 1},
                           {"cos", 1},  {"tan", 1},  {"exp", 1},
                           {"log", 1},  {"tanh", 1}, {"floor", 1},
                           {"ceil", 1}, {"min", 2},  {"max", 2},
                           {"pow", 2},  {"select", 3}};
/// The CFD vector-field builtins, all at the 7-argument signature
/// op(f1, f2, f3, dims, x, y, z). "div" doubles as scalar division at
/// arity 2, so including it here exercises the arity dispatch; curl is the
/// one vector-valued result and is always component-indexed.
const char* kCfdOps[] = {"divergence", "div",       "curl",
                         "vorticity_mag", "enstrophy", "helicity",
                         "qcriterion", "lambda2"};

FNodePtr clone(const FNode& node) {
  auto copy = std::make_unique<FNode>();
  copy->kind = node.kind;
  copy->text = node.text;
  copy->component = node.component;
  copy->fields = node.fields;
  for (const FNodePtr& kid : node.kids) copy->kids.push_back(clone(*kid));
  return copy;
}

void render(const FNode& node, std::string& out) {
  switch (node.kind) {
    case FKind::field:
    case FKind::constant:
    case FKind::ref:
      out += node.text;
      return;
    case FKind::neg:
      out += "(-";
      render(*node.kids[0], out);
      out += ")";
      return;
    case FKind::infix:
      out += "(";
      render(*node.kids[0], out);
      out += " " + node.text + " ";
      render(*node.kids[1], out);
      out += ")";
      return;
    case FKind::call:
      out += node.text;
      out += "(";
      for (std::size_t i = 0; i < node.kids.size(); ++i) {
        if (i != 0) out += ", ";
        render(*node.kids[i], out);
      }
      out += ")";
      return;
    case FKind::gradc:
      out += "grad3d(" + node.text + ", dims, x, y, z)[" +
             std::to_string(node.component) + "]";
      return;
    case FKind::cfd:
      out += node.text + "(" + node.fields[0] + ", " + node.fields[1] +
             ", " + node.fields[2] + ", dims, x, y, z)";
      if (node.text == "curl") {
        out += "[" + std::to_string(node.component) + "]";
      }
      return;
  }
}

struct Stmt {
  std::string name;
  FNodePtr expr;
};
using FScript = std::vector<Stmt>;

std::string render(const FScript& script) {
  std::string out;
  for (const Stmt& stmt : script) {
    out += stmt.name + " = ";
    render(*stmt.expr, out);
    out += "\n";
  }
  return out;
}

// ----- generation -----

struct Generator {
  std::mt19937_64 rng;

  explicit Generator(std::uint64_t seed) : rng(seed) {}

  std::size_t pick(std::size_t bound) {
    return std::uniform_int_distribution<std::size_t>(0, bound - 1)(rng);
  }

  FNodePtr leaf(const std::vector<std::string>& temps) {
    auto node = std::make_unique<FNode>();
    const std::size_t roll = pick(temps.empty() ? 2 : 3);
    if (roll == 0) {
      node->kind = FKind::field;
      node->text = kFields[pick(std::size(kFields))];
    } else if (roll == 1) {
      node->kind = FKind::constant;
      node->text = kConstPool[pick(std::size(kConstPool))];
    } else {
      node->kind = FKind::ref;
      node->text = temps[pick(temps.size())];
    }
    return node;
  }

  FNodePtr gradc() {
    auto node = std::make_unique<FNode>();
    node->kind = FKind::gradc;
    // The gradient's field operand must be a host-bound array (the spec
    // rejects anything else for the mesh operands, and restricting the
    // field operand too keeps every strategy — streamed has no partitioned
    // pipeline — able to execute the script).
    node->text = kFields[pick(std::size(kFields))];
    node->component = static_cast<int>(pick(3));
    return node;
  }

  FNodePtr cfd(std::size_t op_index) {
    auto node = std::make_unique<FNode>();
    node->kind = FKind::cfd;
    node->text = kCfdOps[op_index];
    // The three velocity slots draw independently (repeats allowed —
    // lambda2(u, u, v, ...) is a legal, degenerate Jacobian) but must be
    // host-bound fields, the same restriction gradc carries.
    for (int i = 0; i < 3; ++i) {
      node->fields.push_back(kFields[pick(std::size(kFields))]);
    }
    node->component = static_cast<int>(pick(3));
    return node;
  }

  FNodePtr expr(int depth, const std::vector<std::string>& temps) {
    if (depth <= 0) return leaf(temps);
    switch (pick(11)) {
      case 0:
      case 1:
      case 2: {  // infix
        auto node = std::make_unique<FNode>();
        node->kind = FKind::infix;
        node->text = kInfixOps[pick(std::size(kInfixOps))];
        node->kids.push_back(expr(depth - 1, temps));
        node->kids.push_back(expr(depth - 1, temps));
        return node;
      }
      case 3:
      case 4: {  // call
        auto node = std::make_unique<FNode>();
        node->kind = FKind::call;
        const CallOp& op = kCallOps[pick(std::size(kCallOps))];
        node->text = op.name;
        for (int i = 0; i < op.arity; ++i) {
          node->kids.push_back(expr(depth - 1, temps));
        }
        return node;
      }
      case 5: {  // unary minus
        auto node = std::make_unique<FNode>();
        node->kind = FKind::neg;
        node->kids.push_back(expr(depth - 1, temps));
        return node;
      }
      case 6:
        return gradc();
      case 7:  // stencil builtins keep composite weight: ~1 in 11 interior
               // nodes is a CFD operator, so they appear nested inside
               // larger scalar expressions, not only at statement roots.
        return cfd(pick(std::size(kCfdOps)));
      default:
        return leaf(temps);
    }
  }

  /// One forced construct per script, cycling through every operation so a
  /// bounded run still covers the whole grammar.
  FNodePtr forced(std::size_t index, const std::vector<std::string>& temps) {
    constexpr std::size_t infix_count = std::size(kInfixOps);
    constexpr std::size_t call_count = std::size(kCallOps);
    constexpr std::size_t cfd_count = std::size(kCfdOps);
    index %= infix_count + call_count + 2 + cfd_count;
    auto node = std::make_unique<FNode>();
    if (index < infix_count) {
      node->kind = FKind::infix;
      node->text = kInfixOps[index];
      node->kids.push_back(leaf(temps));
      node->kids.push_back(leaf(temps));
      return node;
    }
    index -= infix_count;
    if (index < call_count) {
      node->kind = FKind::call;
      node->text = kCallOps[index].name;
      for (int i = 0; i < kCallOps[index].arity; ++i) {
        node->kids.push_back(leaf(temps));
      }
      return node;
    }
    index -= call_count;
    if (index == 0) return gradc();
    if (index == 1) {
      node->kind = FKind::neg;
      node->kids.push_back(leaf(temps));
      return node;
    }
    // The tail slots cycle through every CFD builtin, so a bounded corpus
    // is guaranteed to execute each operator at least once.
    return cfd(index - 2);
  }

  FScript script(std::size_t forced_index) {
    FScript result;
    std::vector<std::string> temps;
    const std::size_t statements = 2 + pick(3);
    for (std::size_t s = 0; s < statements; ++s) {
      Stmt stmt;
      stmt.name = "t" + std::to_string(s);
      if (s == 0) {
        // Splice the forced construct into a small surrounding expression.
        auto wrap = std::make_unique<FNode>();
        wrap->kind = FKind::infix;
        wrap->text = "+";
        wrap->kids.push_back(forced(forced_index, temps));
        wrap->kids.push_back(expr(3, temps));
        stmt.expr = std::move(wrap);
      } else {
        stmt.expr = expr(static_cast<int>(2 + pick(4)), temps);
      }
      temps.push_back(stmt.name);
      result.push_back(std::move(stmt));
    }
    // The output must depend on at least one bound field or the network
    // has no element count of its own.
    const std::string text = render(result);
    if (text.find('u') == std::string::npos &&
        text.find('v') == std::string::npos &&
        text.find('w') == std::string::npos) {
      auto anchor = std::make_unique<FNode>();
      anchor->kind = FKind::infix;
      anchor->text = "+";
      auto field = std::make_unique<FNode>();
      field->kind = FKind::field;
      field->text = "u";
      anchor->kids.push_back(std::move(result.back().expr));
      anchor->kids.push_back(std::move(field));
      result.back().expr = std::move(anchor);
    }
    return result;
  }
};

// ----- execution harness -----

/// Generous capacity so every strategy (staged is the hungriest) runs the
/// whole corpus without tripping the allocator.
vcl::DeviceSpec fuzz_device_spec() {
  vcl::DeviceSpec spec;
  spec.name = "fuzz_cpu";
  spec.type = vcl::DeviceType::cpu;
  spec.global_mem_bytes = std::size_t{1} << 30;
  spec.compute_units = 4;
  spec.transfer_gbps = 10.0;
  spec.global_mem_gbps = 30.0;
  spec.gflops = 50.0;
  return spec;
}

struct Fixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 6, 5});
  std::vector<float> u, v, w;
  vcl::Device device{fuzz_device_spec()};

  explicit Fixture(std::uint64_t seed) {
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    const auto field = [&] {
      std::vector<float> values(mesh.cell_count());
      std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
      for (float& x : values) x = dist(rng);
      // Sprinkle the special values whose propagation the comparator's
      // NaN-class rule exists for.
      const auto sprinkle = [&](float special, std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
          values[rng() % values.size()] = special;
        }
      };
      sprinkle(std::numeric_limits<float>::quiet_NaN(), 4);
      sprinkle(std::numeric_limits<float>::infinity(), 2);
      sprinkle(-std::numeric_limits<float>::infinity(), 2);
      sprinkle(-0.0f, 2);
      return values;
    };
    u = field();
    v = field();
    w = field();
  }

  runtime::FieldBindings bindings() const {
    runtime::FieldBindings b;
    b.bind_mesh(mesh);
    b.bind("u", u);
    b.bind("v", v);
    b.bind("w", w);
    return b;
  }
};

/// Scalar-interpreter reference: the fused program of the script's network
/// executed element-at-a-time. grad3d is restricted to host-bound fields,
/// so the network always fuses to a single stage.
std::vector<float> reference(const std::string& text, const Fixture& fx) {
  const dataflow::Network network(dataflow::build_network(text));
  const kernels::Program program = kernels::generate_fused(network);
  const runtime::FieldBindings bindings = fx.bindings();
  std::vector<kernels::BufferBinding> inputs;
  for (const kernels::BufferParam& param : program.params()) {
    const std::span<const float> values = bindings.get(param.name);
    inputs.push_back({values.data(), values.size()});
  }
  const std::size_t cells = fx.mesh.cell_count();
  std::vector<float> out(cells * program.out_stride(), 0.0f);
  kernels::run_scalar(program, inputs, out.data(), out.size(), 0, cells);
  return out;
}

const runtime::StrategyKind kStrategies[] = {
    runtime::StrategyKind::roundtrip, runtime::StrategyKind::staged,
    runtime::StrategyKind::fusion, runtime::StrategyKind::streamed};

/// The backend dimension: every strategy must reproduce the reference bits
/// no matter how launch bodies execute. The jit entry degrades to the VM
/// when the toolchain is missing, which is itself a correct run (the
/// fallback path must stay bit-exact too).
const kernels::BackendKind kBackends[] = {kernels::BackendKind::scalar,
                                          kernels::BackendKind::vm,
                                          kernels::BackendKind::jit};

/// Residency state each iteration drives through every strategy: whether
/// the resident-buffer pool is on, how many warm re-evaluations run before
/// the result is compared again, and an optional in-place host mutation
/// (announced via Engine::invalidate) after the warm runs. Derived from
/// the iteration's seeded rng, so a reported seed replays the schedule.
struct ResidencySchedule {
  bool pool = false;
  int warm_runs = 1;       ///< evaluations expected to reproduce `want`
  int mutate_field = -1;   ///< index into kFields; -1 = no mutation step
  std::size_t mutate_index = 0;

  std::string describe() const {
    if (!pool) return "pool off";
    std::string out = "pool on, " + std::to_string(warm_runs) + " warm run(s)";
    if (mutate_field >= 0) {
      out += ", mutate " + std::string(kFields[mutate_field]) + "[" +
             std::to_string(mutate_index) + "]";
    }
    return out;
  }
};

/// Empty string when every strategy reproduces the reference bits across
/// the whole residency schedule; a description of the first divergence
/// otherwise. The fixture's fields are restored (and their generation tags
/// bumped) before returning, so repeated calls — the shrinker — see
/// identical inputs.
std::string check(const std::string& text, Fixture& fx,
                  const ResidencySchedule& sched = {}) {
  std::vector<float> want;
  try {
    want = reference(text, fx);
  } catch (const std::exception& e) {
    return std::string("reference failed: ") + e.what();
  }
  std::vector<float>* fields[] = {&fx.u, &fx.v, &fx.w};
  for (const kernels::BackendKind backend : kBackends)
  for (const runtime::StrategyKind kind : kStrategies) {
    std::string failure;
    try {
      EngineOptions options;
      options.strategy = kind;
      options.resident_pool = sched.pool;
      options.backend = backend;
      Engine engine(fx.device, options);
      engine.bind_mesh(fx.mesh);
      engine.bind("u", fx.u);
      engine.bind("v", fx.v);
      engine.bind("w", fx.w);
      const auto run_against = [&](const std::vector<float>& expect,
                                   const char* phase) {
        const EvaluationReport report = engine.evaluate(text);
        const std::size_t mismatch =
            test::first_bit_mismatch(report.values, expect);
        if (mismatch != static_cast<std::size_t>(-1)) {
          failure = std::string(runtime::strategy_name(kind)) + " on the " +
                    kernels::backend_name(backend) + " backend (" + phase +
                    ") diverges from the scalar reference at element " +
                    std::to_string(mismatch);
          return false;
        }
        return true;
      };
      bool ok = true;
      for (int r = 0; ok && r < std::max(1, sched.warm_runs); ++r) {
        ok = run_against(want, r == 0 ? "cold" : "warm");
      }
      if (ok && sched.mutate_field >= 0) {
        // Sign-flip one element in place (exact involution), announce it,
        // and require the next evaluation to track the mutated bits.
        std::vector<float>& field = *fields[sched.mutate_field];
        const std::size_t at = sched.mutate_index % field.size();
        field[at] = -field[at];
        engine.invalidate(kFields[sched.mutate_field]);
        std::vector<float> want_post;
        try {
          want_post = reference(text, fx);
          run_against(want_post, "post-mutation");
        } catch (const std::exception& e) {
          failure = std::string("post-mutation reference failed: ") + e.what();
        }
        field[at] = -field[at];
        // The restore is itself a host mutation other strategies' pooled
        // entries must observe.
        vcl::note_host_mutation(field.data());
      }
    } catch (const std::exception& e) {
      failure = std::string(runtime::strategy_name(kind)) + " on the " +
                kernels::backend_name(backend) + " backend threw: " + e.what();
    }
    if (!failure.empty()) return failure;
  }
  return {};
}

// ----- shrinking -----

void collect(FNode& node, std::vector<FNode*>& out) {
  out.push_back(&node);
  for (const FNodePtr& kid : node.kids) collect(*kid, out);
}

/// Replaces every reference to `name` with the constant 1 (used when the
/// defining statement is dropped).
void strip_refs(FNode& node, const std::string& name) {
  if (node.kind == FKind::ref && node.text == name) {
    node.kind = FKind::constant;
    node.text = "1";
    node.kids.clear();
    return;
  }
  for (const FNodePtr& kid : node.kids) strip_refs(*kid, name);
}

FScript clone(const FScript& script) {
  FScript copy;
  for (const Stmt& stmt : script) {
    copy.push_back({stmt.name, clone(*stmt.expr)});
  }
  return copy;
}

/// Greedy shrink: keep applying the first still-failing reduction until no
/// reduction fails, bounded by a re-execution budget. The residency
/// schedule is held fixed through every candidate re-execution, so a
/// failure that needs warm state (or a mutation step) to manifest keeps
/// failing while the script shrinks.
FScript shrink(FScript script, Fixture& fx, const ResidencySchedule& sched) {
  int budget = 400;
  bool reduced = true;
  while (reduced && budget > 0) {
    reduced = false;

    // Drop whole statements (the last one is the output and must stay).
    for (std::size_t s = 0; s + 1 < script.size() && !reduced; ++s) {
      FScript candidate = clone(script);
      const std::string dropped = candidate[s].name;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(s));
      for (Stmt& stmt : candidate) strip_refs(*stmt.expr, dropped);
      if (--budget <= 0) break;
      if (!check(render(candidate), fx, sched).empty()) {
        script = std::move(candidate);
        reduced = true;
      }
    }

    // Replace a node with one of its children, or with the constant 1.
    for (std::size_t s = 0; s < script.size() && !reduced; ++s) {
      std::vector<FNode*> nodes;
      collect(*script[s].expr, nodes);
      for (std::size_t n = 0; n < nodes.size() && !reduced; ++n) {
        const std::size_t options = nodes[n]->kids.size() +
                                    (nodes[n]->kind != FKind::constant ? 1 : 0);
        for (std::size_t o = 0; o < options && !reduced; ++o) {
          FScript candidate = clone(script);
          std::vector<FNode*> copy_nodes;
          collect(*candidate[s].expr, copy_nodes);
          FNode& target = *copy_nodes[n];
          if (o < target.kids.size()) {
            FNodePtr replacement = std::move(target.kids[o]);
            target = std::move(*replacement);
          } else {
            target.kind = FKind::constant;
            target.text = "1";
            target.kids.clear();
          }
          if (--budget <= 0) break;
          if (!check(render(candidate), fx, sched).empty()) {
            script = std::move(candidate);
            reduced = true;
          }
        }
      }
    }
  }
  return script;
}

// ----- the fuzz loop -----

TEST(FuzzExpressions, StrategiesMatchScalarReference) {
  const std::uint64_t base_seed = static_cast<std::uint64_t>(
      support::env::get_int("DFGEN_FUZZ_SEED", 20260805));
  const int iterations = support::env::get_int("DFGEN_FUZZ_ITERATIONS", 40);

  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    Generator gen(seed);
    Fixture fx(seed);
    FScript script = gen.script(static_cast<std::size_t>(i));

    // Randomize the residency state the script executes under: roughly
    // half the corpus runs with the pool on, re-evaluating warm and
    // sometimes mutating a field mid-iteration. Drawn from the same seeded
    // rng, so the reported seed reproduces the schedule too.
    ResidencySchedule sched;
    sched.pool = gen.pick(2) == 0;
    if (sched.pool) {
      sched.warm_runs = 1 + static_cast<int>(gen.pick(2));
      if (gen.pick(2) == 0) {
        sched.mutate_field = static_cast<int>(gen.pick(std::size(kFields)));
        sched.mutate_index = gen.pick(fx.mesh.cell_count());
      }
    }

    const std::string failure = check(render(script), fx, sched);
    if (failure.empty()) continue;

    const FScript minimal = shrink(std::move(script), fx, sched);
    const std::string minimal_text = render(minimal);
    ADD_FAILURE() << "fuzzer found a divergence (seed " << seed << "): "
                  << check(minimal_text, fx, sched)
                  << "\nresidency schedule: " << sched.describe()
                  << "\nminimal reproducer:\n" << minimal_text
                  << "replay with DFGEN_FUZZ_SEED=" << seed
                  << " DFGEN_FUZZ_ITERATIONS=" << (i + 1);
    return;
  }
}

// The planner's tallied walks against the executed ones: for every
// fuzzed network and strategy, on the cold path with an explicit streamed
// chunk, the predicted footprint equals the measured high-water mark and
// the predicted simulated time, priced at the executing backend's
// efficiency, matches the measured one (PlannerExactness's tolerance).
TEST(FuzzExpressions, PlannerEstimatesMatchExecution) {
  const std::uint64_t base_seed = static_cast<std::uint64_t>(
      support::env::get_int("DFGEN_FUZZ_SEED", 20260805));
  const int iterations = support::env::get_int("DFGEN_FUZZ_ITERATIONS", 40);

  std::size_t mismatches = 0;
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    Generator gen(seed);
    Fixture fx(seed);
    const std::string text = render(gen.script(static_cast<std::size_t>(i)));
    const dataflow::Network network(dataflow::build_network(text));
    const runtime::FieldBindings bindings = fx.bindings();
    const std::size_t cells = fx.mesh.cell_count();
    const std::size_t chunk = 2 * fx.mesh.dims().nx * fx.mesh.dims().ny;
    for (const runtime::StrategyKind kind : kStrategies) {
      EngineOptions options;
      options.strategy = kind;
      options.streamed_chunk_cells = chunk;
      Engine engine(fx.device, options);
      engine.bind_mesh(fx.mesh);
      engine.bind("u", fx.u);
      engine.bind("v", fx.v);
      engine.bind("w", fx.w);
      const EvaluationReport report = engine.evaluate(text);
      const std::size_t footprint = runtime::estimate_high_water(
          network, bindings, cells, kind, chunk);
      const double seconds = runtime::estimate_sim_seconds(
          network, bindings, cells, fx.device.spec(), kind, chunk,
          fx.device.backend().compute_efficiency());
      if (footprint == report.memory_high_water_bytes &&
          std::abs(seconds - report.sim_seconds) <=
              1e-12 + 1e-9 * report.sim_seconds) {
        continue;
      }
      ++mismatches;
      ADD_FAILURE() << runtime::strategy_name(kind) << " (seed " << seed
                    << "): predicted " << footprint << " B, " << seconds
                    << " s; measured " << report.memory_high_water_bytes
                    << " B, " << report.sim_seconds << " s\n"
                    << text;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// A deterministic guard that the harness itself works: a script exercising
// every construct class must round-trip through check() cleanly.
TEST(FuzzExpressions, HarnessAcceptsFullGrammar) {
  Fixture fx(7);
  const std::string text =
      "t0 = grad3d(u, dims, x, y, z)[0] + select(u > v, sin(u), cos(v))\n"
      "t1 = min(t0, max(v, 0.5)) * pow(abs(w) + 1, 0.5) - tanh(t0)\n"
      "t2 = select(t1 >= t0, exp(-abs(t1)), log(abs(t0) + 1)) / 1.5\n"
      "t3 = floor(t2) + ceil(t2) + (t2 == t1) + (t2 != t0) + (t1 <= t0) + "
      "(t1 < t0) + sqrt(abs(t2)) + tan(t2)\n";
  EXPECT_EQ(check(text, fx), "");
  // The CFD builtins, composed into surrounding scalar arithmetic the way
  // the generator splices them.
  const std::string cfd_text =
      "t0 = divergence(u, v, w, dims, x, y, z) + "
      "curl(u, v, w, dims, x, y, z)[2] * enstrophy(u, v, w, dims, x, y, z)\n"
      "t1 = helicity(u, v, w, dims, x, y, z) - "
      "min(qcriterion(u, v, w, dims, x, y, z), t0)\n"
      "t2 = select(t1 > t0, lambda2(u, v, w, dims, x, y, z), "
      "vorticity_mag(w, v, u, dims, x, y, z)) + div(u, v) + "
      "div(u, v, w, dims, x, y, z)\n";
  EXPECT_EQ(check(cfd_text, fx), "");
}

// ----- overlapping-request schedules (cross-request memoization) -----

/// Submits K scripts that share a common prelude through an EvalService —
/// two rounds, so round one can materialize shared subtrees and round two
/// can serve them from the intermediate cache — and requires every
/// ticket's values to be bit-exact (the NaN-class rule) against that
/// script's scalar reference. Returns "" on success, the first divergence
/// otherwise. With memo on and off the references are the same, so a pass
/// in both modes is byte-for-byte memo-on == memo-off.
std::string check_overlapping(const std::vector<std::string>& scripts,
                              Fixture& fx, bool memo,
                              std::size_t* hits_out = nullptr) {
  std::vector<std::vector<float>> wants;
  for (const std::string& text : scripts) {
    try {
      wants.push_back(reference(text, fx));
    } catch (const std::exception& e) {
      return std::string("reference failed: ") + e.what();
    }
  }
  service::ServiceOptions options;
  options.start_paused = true;
  options.memo = memo;
  service::EvalService svc({&fx.device}, options);
  std::vector<service::Ticket> tickets;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t k = 0; k < scripts.size(); ++k) {
      service::Request request;
      request.expression = scripts[k];
      request.mesh = &fx.mesh;
      request.fields = {{"u", fx.u}, {"v", fx.v}, {"w", fx.w}};
      request.session = "tenant-" + std::to_string(k);
      tickets.push_back(svc.submit(request));
    }
    if (round == 0) svc.resume();
    svc.drain();
  }
  if (hits_out != nullptr) *hits_out = svc.snapshot().memo_hits;
  for (std::size_t t = 0; t < tickets.size(); ++t) {
    const service::ServiceReport& report = tickets[t].wait();
    if (report.status != service::RequestStatus::completed) {
      return "request " + std::to_string(t) + " failed: " + report.error;
    }
    const std::vector<float>& want = wants[t % scripts.size()];
    const std::size_t mismatch =
        test::first_bit_mismatch(report.evaluation->values, want);
    if (mismatch != static_cast<std::size_t>(-1)) {
      return std::string(memo ? "memo" : "no-memo") +
             " service diverges from the scalar reference on request " +
             std::to_string(t) + " at element " + std::to_string(mismatch);
    }
  }
  return {};
}

TEST(FuzzExpressions, OverlappingRequestsMatchUnderMemo) {
  const std::uint64_t base_seed = static_cast<std::uint64_t>(
      support::env::get_int("DFGEN_FUZZ_SEED", 20260805));
  // Each iteration runs 2x(K+1) service evaluations plus K references;
  // scale the count down against the single-engine fuzz loop.
  const int iterations = std::max(
      1, support::env::get_int("DFGEN_FUZZ_ITERATIONS", 40) / 4);

  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t seed =
        (base_seed + static_cast<std::uint64_t>(i)) ^ 0x5eed5eedull;
    Generator gen(seed);
    Fixture fx(seed);
    // A shared prelude every variant includes, plus a per-variant output
    // statement anchored on the prelude's last temp — K different
    // networks guaranteed to share non-leaf subtrees.
    const FScript prelude = gen.script(static_cast<std::size_t>(i));
    std::vector<std::string> temps;
    for (const Stmt& stmt : prelude) temps.push_back(stmt.name);
    std::vector<std::string> scripts;
    const std::size_t variants = 2 + gen.pick(2);
    for (std::size_t k = 0; k < variants; ++k) {
      FScript variant = clone(prelude);
      auto anchor = std::make_unique<FNode>();
      anchor->kind = FKind::infix;
      anchor->text = "+";
      auto ref = std::make_unique<FNode>();
      ref->kind = FKind::ref;
      ref->text = temps.back();
      anchor->kids.push_back(std::move(ref));
      anchor->kids.push_back(gen.expr(2, temps));
      variant.push_back({"out", std::move(anchor)});
      scripts.push_back(render(variant));
    }

    std::string failure = check_overlapping(scripts, fx, true);
    if (failure.empty()) {
      // Plain service behaviour must match the same references bit-for-bit.
      failure = check_overlapping(scripts, fx, false);
    }
    if (failure.empty()) continue;

    std::string corpus;
    for (std::size_t k = 0; k < scripts.size(); ++k) {
      corpus += "--- script " + std::to_string(k) + " ---\n" + scripts[k];
    }
    ADD_FAILURE() << "overlapping-request fuzzer found a divergence (seed "
                  << seed << "): " << failure << "\n" << corpus
                  << "replay with DFGEN_FUZZ_SEED=" << base_seed
                  << " DFGEN_FUZZ_ITERATIONS=" << ((i + 1) * 4);
    return;
  }
}

// Deterministic guard that the overlapping harness works end to end: two
// networks over a shared heavy subtree must hit the intermediate cache
// while staying bit-exact, and memo off must pass the same check.
TEST(FuzzExpressions, HarnessAcceptsOverlappingSchedules) {
  Fixture fx(13);
  const std::vector<std::string> scripts = {
      "t0 = u*u + v*v + w*w\nout = sqrt(t0)",
      "t0 = u*u + v*v + w*w\nout = t0 * 0.5 + u",
  };
  std::size_t hits = 0;
  EXPECT_EQ(check_overlapping(scripts, fx, true, &hits), "");
  EXPECT_GE(hits, 1u);
  EXPECT_EQ(check_overlapping(scripts, fx, false, &hits), "");
  EXPECT_EQ(hits, 0u);
}

// Same guard under a fixed worst-case residency schedule: warm
// re-evaluations must reproduce the cold bits from resident buffers, and
// an announced mid-iteration mutation must be tracked by every strategy.
TEST(FuzzExpressions, HarnessAcceptsResidencySchedules) {
  Fixture fx(11);
  ResidencySchedule sched;
  sched.pool = true;
  sched.warm_runs = 2;
  sched.mutate_field = 0;
  sched.mutate_index = 3;
  const std::string text =
      "t0 = grad3d(u, dims, x, y, z)[1] + select(u > v, sin(u), cos(v))\n"
      "t1 = min(t0, max(v, 0.5)) * pow(abs(w) + 1, 0.5) - tanh(t0)\n";
  EXPECT_EQ(check(text, fx, sched), "");
}

}  // namespace
