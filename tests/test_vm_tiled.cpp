// Differential property tests for the tiled VM, the bytecode optimizer and
// the fused-program cache.
//
// The tiled interpreter, the optimizer and the cache are all required to be
// *bit-exact* against the element-at-a-time interpreter: randomized programs
// covering every opcode are executed through every path and compared at the
// bit-pattern level (NaN payloads and signed zeros included). A final guard
// re-runs a Table II expression through the engine twice and requires the
// cache-hit evaluation to replay a byte-identical device event stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "kernels/generator.hpp"
#include "kernels/optimizer.hpp"
#include "kernels/program.hpp"
#include "kernels/program_cache.hpp"
#include "kernels/vm.hpp"
#include "mesh/generators.hpp"
#include "support/parallel.hpp"
#include "vcl/catalog.hpp"

#include "bitwise.hpp"

namespace {

using namespace dfg::kernels;

// ----- randomized program construction -----

const Op kBinaryOps[] = {Op::add, Op::sub, Op::mul, Op::div,
                         Op::min, Op::max, Op::pow};
const Op kUnaryOps[] = {Op::sqrt, Op::neg,  Op::abs,   Op::sin,
                        Op::cos,  Op::tan,  Op::exp,   Op::log,
                        Op::tanh, Op::floor, Op::ceil};
const Op kCompareOps[] = {Op::cmp_gt, Op::cmp_lt, Op::cmp_ge,
                          Op::cmp_le, Op::cmp_eq, Op::cmp_ne};

/// Every opcode the random body can be forced to contain (loads are always
/// present in the preamble; store / store_vec alternate via out_components).
std::vector<Op> forceable_ops() {
  std::vector<Op> ops = {Op::load_global, Op::load_global_vec, Op::load_const,
                         Op::component,   Op::select,          Op::grad3d};
  for (Op op : kBinaryOps) ops.push_back(op);
  for (Op op : kUnaryOps) ops.push_back(op);
  for (Op op : kCompareOps) ops.push_back(op);
  return ops;
}

struct TestInputs {
  std::vector<std::vector<float>> buffers;
  std::size_t grad_cells = 0;

  std::vector<BufferBinding> bindings() const {
    std::vector<BufferBinding> b;
    b.reserve(buffers.size());
    for (const auto& v : buffers) b.push_back({v.data(), v.size()});
    return b;
  }
};

std::vector<float> random_floats(std::mt19937& rng, std::size_t count) {
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::vector<float> v(count);
  for (float& f : v) f = dist(rng);
  // Plant the special values bit-exactness is really about.
  if (count > 0) v[0] = 0.0f;
  if (count > 1) v[1] = -0.0f;
  if (count > 2) v[2] = std::numeric_limits<float>::quiet_NaN();
  if (count > 3) v[3] = std::numeric_limits<float>::infinity();
  return v;
}

/// Builds a random program over n elements whose body contains `forced`,
/// with the matching random input buffers. Parameter layout: a, b (scalar),
/// v4 (vec), then the grad3d field/dims/x/y/z buffers.
struct RandomProgram {
  Program program;
  TestInputs inputs;
};

RandomProgram make_random_program(std::mt19937& rng, Op forced, std::size_t n,
                                  int out_components) {
  ProgramBuilder b("random");
  const auto pa = b.add_param("a");
  const auto pb = b.add_param("b");
  const auto pv = b.add_param("v4", /*is_vec=*/true);
  const auto pf = b.add_param("gf");
  const auto pd = b.add_param("gdims");
  const auto px = b.add_param("gx");
  const auto py = b.add_param("gy");
  const auto pz = b.add_param("gz");

  std::vector<std::uint16_t> regs;
  regs.push_back(b.emit_load_global(pa));
  regs.push_back(b.emit_load_global(pb));
  regs.push_back(b.emit_load_global_vec(pv));
  regs.push_back(b.emit_load_const(1.5f));
  regs.push_back(b.emit_grad3d(pf, pd, px, py, pz));

  const auto pick = [&] {
    return regs[std::uniform_int_distribution<std::size_t>(
        0, regs.size() - 1)(rng)];
  };
  const auto emit = [&](Op op) {
    for (Op bin : kBinaryOps) {
      if (op == bin) {
        regs.push_back(b.emit_binary(op, pick(), pick()));
        return;
      }
    }
    for (Op un : kUnaryOps) {
      if (op == un) {
        regs.push_back(b.emit_unary(op, pick()));
        return;
      }
    }
    for (Op cmp : kCompareOps) {
      if (op == cmp) {
        regs.push_back(b.emit_binary(op, pick(), pick()));
        return;
      }
    }
    switch (op) {
      case Op::component:
        regs.push_back(b.emit_component(
            pick(), std::uniform_int_distribution<int>(0, 3)(rng)));
        break;
      case Op::select:
        regs.push_back(b.emit_select(pick(), pick(), pick()));
        break;
      case Op::grad3d:
        regs.push_back(b.emit_grad3d(pf, pd, px, py, pz));
        break;
      case Op::load_const:
        regs.push_back(b.emit_load_const(
            std::uniform_real_distribution<float>(-3.0f, 3.0f)(rng)));
        break;
      case Op::load_global:
        regs.push_back(b.emit_load_global(pa));
        break;
      case Op::load_global_vec:
        regs.push_back(b.emit_load_global_vec(pv));
        break;
      default:
        break;
    }
  };

  emit(forced);
  const std::vector<Op> pool = forceable_ops();
  for (int i = 0; i < 15; ++i) {
    emit(pool[std::uniform_int_distribution<std::size_t>(0, pool.size() - 1)(
        rng)]);
  }
  // Combine the two freshest values so the tail of the body stays live.
  regs.push_back(b.emit_binary(Op::add, regs[regs.size() - 1],
                               regs[regs.size() - 2]));

  RandomProgram result;
  result.program = b.finish(regs.back(), out_components);

  // Grid for grad3d: fixed transverse shape, enough planes to cover n.
  const std::size_t nx = 8, ny = 4;
  const std::size_t nz = (n + nx * ny - 1) / (nx * ny);
  const std::size_t cells = nx * ny * nz;
  result.inputs.grad_cells = cells;
  result.inputs.buffers.push_back(random_floats(rng, n));      // a
  result.inputs.buffers.push_back(random_floats(rng, n));      // b
  result.inputs.buffers.push_back(random_floats(rng, n * 4));  // v4
  result.inputs.buffers.push_back(random_floats(rng, cells));  // gf
  result.inputs.buffers.push_back({static_cast<float>(nx),
                                   static_cast<float>(ny),
                                   static_cast<float>(nz)});   // gdims
  result.inputs.buffers.push_back(random_floats(rng, cells));  // gx
  result.inputs.buffers.push_back(random_floats(rng, cells));  // gy
  result.inputs.buffers.push_back(random_floats(rng, cells));  // gz
  return result;
}

using dfg::test::expect_bits_equal;

std::vector<float> run_tiled(const Program& p, const TestInputs& in,
                             std::size_t n) {
  std::vector<float> out(n * p.out_stride(), -42.0f);
  const auto bindings = in.bindings();
  run(p, bindings, out.data(), out.size(), 0, n);
  return out;
}

std::vector<float> run_reference(const Program& p, const TestInputs& in,
                                 std::size_t n) {
  std::vector<float> out(n * p.out_stride(), -42.0f);
  const auto bindings = in.bindings();
  run_scalar(p, bindings, out.data(), out.size(), 0, n);
  return out;
}

// The tile-size edge cases: below, at, above, and well past one tile, plus
// the degenerate single element.
const std::size_t kSizes[] = {1, 1023, 1024, 1025, 3 * 1024 + 17};

// ----- tiled interpreter vs scalar reference -----

TEST(TiledVm, BitIdenticalToScalarInterpreterOnAllOps) {
  std::mt19937 rng(20120615);  // fixed seed: the test is deterministic
  for (Op forced : forceable_ops()) {
    for (std::size_t n : kSizes) {
      const int out_components = (n % 2 == 0) ? 3 : 1;
      const RandomProgram rp =
          make_random_program(rng, forced, n, out_components);
      SCOPED_TRACE(std::string("op ") + op_name(forced) + ", n " +
                   std::to_string(n));
      const std::vector<float> reference =
          run_reference(rp.program, rp.inputs, n);
      expect_bits_equal(run_tiled(rp.program, rp.inputs, n), reference,
                        "tiled vs scalar");

      // The optimized program must match the *unoptimized scalar* run.
      OptimizerStats stats;
      const Program optimized = optimize_program(rp.program, &stats);
      expect_bits_equal(run_tiled(optimized, rp.inputs, n), reference,
                        "optimized tiled vs scalar");
      expect_bits_equal(run_reference(optimized, rp.inputs, n), reference,
                        "optimized scalar vs scalar");
      EXPECT_LE(optimized.register_count(), rp.program.register_count());
    }
  }
}

TEST(TiledVm, UnalignedSubrangesMatchFullRun) {
  std::mt19937 rng(42);
  const std::size_t n = 2600;  // spans three tiles
  const RandomProgram rp = make_random_program(rng, Op::select, n, 1);
  const std::vector<float> full = run_tiled(rp.program, rp.inputs, n);

  // Split at a boundary nowhere near a tile edge; out is indexed with
  // absolute global ids, so the two halves land in the same buffer.
  std::vector<float> split(n * rp.program.out_stride(), -42.0f);
  const auto bindings = rp.inputs.bindings();
  run(rp.program, bindings, split.data(), split.size(), 0, 517);
  run(rp.program, bindings, split.data(), split.size(), 517, n);
  expect_bits_equal(split, full, "split vs full");
}

// ----- optimizer unit tests -----

TEST(Optimizer, FoldsLiteralArithmeticToOneConstant) {
  ProgramBuilder b("fold");
  const auto c2 = b.emit_load_const(2.0f);
  const auto c3 = b.emit_load_const(3.0f);
  const auto c4 = b.emit_load_const(4.0f);
  const auto mul = b.emit_binary(Op::mul, c3, c4);
  const auto sum = b.emit_binary(Op::add, c2, mul);
  const Program raw = b.finish(sum, 1);

  OptimizerStats stats;
  const Program opt = optimize_program(raw, &stats);
  EXPECT_GT(stats.folded_constants, 0u);
  EXPECT_GT(stats.removed_dead, 0u);
  // Everything folds away: one constant load plus the store.
  EXPECT_EQ(opt.code().size(), 2u);
  ASSERT_EQ(opt.code()[0].op, Op::load_const);
  EXPECT_EQ(opt.code()[0].imm, 14.0f);
  // The signature survives even though no parameter is read.
  EXPECT_EQ(opt.params().size(), raw.params().size());
}

TEST(Optimizer, NanLanesBlockFoldingOnlyWhenObserved) {
  // 0/0 is NaN in every lane; a load_const replacement can only represent
  // NaN in lane 0. A vector store observes lanes 1..3, so the fold must be
  // suppressed; a scalar store observes lane 0 only, so it may proceed.
  const auto build = [](int out_components) {
    ProgramBuilder b("nan");
    const auto zero = b.emit_load_const(0.0f);
    const auto nan = b.emit_binary(Op::div, zero, zero);
    return b.finish(nan, out_components);
  };

  const Program vec_raw = build(3);
  OptimizerStats vec_stats;
  const Program vec_opt = optimize_program(vec_raw, &vec_stats);
  EXPECT_EQ(vec_stats.folded_constants, 0u);

  const Program scalar_raw = build(1);
  OptimizerStats scalar_stats;
  const Program scalar_opt = optimize_program(scalar_raw, &scalar_stats);
  EXPECT_GT(scalar_stats.folded_constants, 0u);

  // Both directions stay bit-exact regardless of what the optimizer chose.
  TestInputs none;
  for (const Program* pair : {&vec_raw, &scalar_raw}) {
    const Program opt = optimize_program(*pair);
    expect_bits_equal(run_tiled(opt, none, 5), run_reference(*pair, none, 5),
                      "nan folding");
  }
}

/// Each lane-wise opcode's and comparison's meaning, stated apart from the
/// VM's one set of bodies: one std:: call or C operator per row.
float reference_value(Op op, float a, float b) {
  switch (op) {
    case Op::add: return a + b;
    case Op::sub: return a - b;
    case Op::mul: return a * b;
    case Op::div: return a / b;
    case Op::min: return std::fmin(a, b);
    case Op::max: return std::fmax(a, b);
    case Op::pow: return std::pow(a, b);
    case Op::sqrt: return std::sqrt(a);
    case Op::neg: return -a;
    case Op::abs: return std::fabs(a);
    case Op::sin: return std::sin(a);
    case Op::cos: return std::cos(a);
    case Op::tan: return std::tan(a);
    case Op::acos: return std::acos(a);
    case Op::exp: return std::exp(a);
    case Op::log: return std::log(a);
    case Op::tanh: return std::tanh(a);
    case Op::floor: return std::floor(a);
    case Op::ceil: return std::ceil(a);
    case Op::cmp_gt: return a > b ? 1.0f : 0.0f;
    case Op::cmp_lt: return a < b ? 1.0f : 0.0f;
    case Op::cmp_ge: return a >= b ? 1.0f : 0.0f;
    case Op::cmp_le: return a <= b ? 1.0f : 0.0f;
    case Op::cmp_eq: return a == b ? 1.0f : 0.0f;
    case Op::cmp_ne: return a != b ? 1.0f : 0.0f;
    default: break;
  }
  ADD_FAILURE() << "no reference for " << op_name(op);
  return 0.0f;
}

TEST(Optimizer, EveryFoldableOpcodeMatchesTheTiledVm) {
  // Each lane-wise and comparison opcode, over constant operands, must give
  // exactly the reference's bits three ways: folded by the optimizer, and
  // computed by the unoptimized program on the tiled interpreter and on the
  // element interpreter. The VM's two loop shapes and the folder share one
  // body per opcode, so only the reference can catch a wrong body.
  const float operands[] = {0.0f,
                            -0.0f,
                            1.0f,
                            -1.0f,
                            0.5f,
                            std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            3e38f};
  const TestInputs none;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const OpInfo& info = op_info(static_cast<Op>(i));
    if (info.form != OpForm::lanewise && info.form != OpForm::comparison) {
      continue;
    }
    for (const float a : operands) {
      for (const float b : operands) {
        if (info.operands == 1 && std::bit_cast<std::uint32_t>(b) != 0) {
          continue;  // a unary opcode reads only its first operand
        }
        ProgramBuilder builder("fold");
        const auto ca = builder.emit_load_const(a);
        const auto cb = builder.emit_load_const(b);
        const auto r = info.operands == 1
                           ? builder.emit_unary(info.op, ca)
                           : builder.emit_binary(info.op, ca, cb);
        const Program raw = builder.finish(r, 1);
        OptimizerStats stats;
        const Program opt = optimize_program(raw, &stats);
        SCOPED_TRACE(std::string(info.name) + "(" + std::to_string(a) + ", " +
                     std::to_string(b) + ")");
        EXPECT_EQ(stats.folded_constants, 1u);
        ASSERT_EQ(opt.code().size(), 2u);
        ASSERT_EQ(opt.code()[0].op, Op::load_const);
        const float want = reference_value(info.op, a, b);
        const std::pair<const char*, float> results[] = {
            {"folded", opt.code()[0].imm},
            {"run", run_tiled(raw, none, 1)[0]},
            {"run_scalar", run_reference(raw, none, 1)[0]}};
        for (const auto& [shape, got] : results) {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(got),
                    std::bit_cast<std::uint32_t>(want))
              << shape << ": " << got << " vs " << want;
          ++checked;
        }
      }
    }
  }
  // 12 unary opcodes over 10 operands, 13 binary ones over 100 pairs, each
  // checked folded, on run() and on run_scalar().
  EXPECT_EQ(checked, 3u * (12u * 10u + 13u * 100u));
}

TEST(Optimizer, EliminatesCommonSubexpressions) {
  ProgramBuilder b("cse");
  const auto pa = b.add_param("a");
  const auto u = b.emit_load_global(pa);
  const auto sq1 = b.emit_binary(Op::mul, u, u);
  const auto sq2 = b.emit_binary(Op::mul, u, u);
  const auto sum = b.emit_binary(Op::add, sq1, sq2);
  const Program raw = b.finish(sum, 1);

  OptimizerStats stats;
  const Program opt = optimize_program(raw, &stats);
  EXPECT_GT(stats.eliminated_common, 0u);
  std::size_t muls = 0;
  for (const Instr& in : opt.code()) muls += in.op == Op::mul ? 1 : 0;
  EXPECT_EQ(muls, 1u);

  std::mt19937 rng(7);
  TestInputs in;
  in.buffers.push_back(random_floats(rng, 100));
  expect_bits_equal(run_tiled(opt, in, 100), run_reference(raw, in, 100),
                    "cse");
}

TEST(Optimizer, DeadCodeEliminationKeepsGrad3dAnchors) {
  ProgramBuilder b("dce");
  const auto pa = b.add_param("a");
  const auto pf = b.add_param("gf");
  const auto pd = b.add_param("gdims");
  const auto px = b.add_param("gx");
  const auto py = b.add_param("gy");
  const auto pz = b.add_param("gz");
  const auto u = b.emit_load_global(pa);
  b.emit_grad3d(pf, pd, px, py, pz);    // result unused
  b.emit_binary(Op::mul, u, u);         // genuinely dead
  const Program raw = b.finish(u, 1);

  OptimizerStats stats;
  const Program opt = optimize_program(raw, &stats);
  EXPECT_GT(stats.removed_dead, 0u);
  std::size_t grads = 0, muls = 0;
  for (const Instr& in : opt.code()) {
    grads += in.op == Op::grad3d ? 1 : 0;
    muls += in.op == Op::mul ? 1 : 0;
  }
  // grad3d is a DCE root (it anchors slab planning and buffer validation);
  // the dead mul is not.
  EXPECT_EQ(grads, 1u);
  EXPECT_EQ(muls, 0u);
}

TEST(Optimizer, CoalescingShrinksTheRegisterFile) {
  ProgramBuilder b("chain");
  const auto pa = b.add_param("a");
  auto r = b.emit_load_global(pa);
  for (int i = 0; i < 20; ++i) {
    r = b.emit_binary(Op::add, r, b.emit_load_const(1.0f + i));
  }
  const Program raw = b.finish(r, 1);

  OptimizerStats stats;
  const Program opt = optimize_program(raw, &stats);
  EXPECT_LT(opt.register_count(), raw.register_count());
  EXPECT_LT(stats.registers_after, stats.registers_before);

  std::mt19937 rng(11);
  TestInputs in;
  in.buffers.push_back(random_floats(rng, 2000));
  expect_bits_equal(run_tiled(opt, in, 2000), run_reference(raw, in, 2000),
                    "coalesced chain");
}

// ----- fused-program cache -----

TEST(ProgramCacheTest, FingerprintIsStructuralNotObjectIdentity) {
  const dfg::dataflow::Network n1(dfg::dataflow::build_network("r = u + v"));
  const dfg::dataflow::Network n2(dfg::dataflow::build_network("r = u + v"));
  const dfg::dataflow::Network n3(dfg::dataflow::build_network("r = u - v"));
  EXPECT_EQ(n1.fingerprint(), n2.fingerprint());
  EXPECT_NE(n1.fingerprint(), n3.fingerprint());
}

TEST(ProgramCacheTest, SecondRequestIsAPointerIdenticalHit) {
  auto& cache = ProgramCache::instance();
  cache.clear();
  const dfg::dataflow::Network n1(
      dfg::dataflow::build_network("r = u * v + u"));
  const dfg::dataflow::Network n2(
      dfg::dataflow::build_network("r = u * v + u"));

  const ProgramCacheStats before = cache.stats();
  const auto first = cache.fused_pipeline(n1);
  const auto second = cache.fused_pipeline(n2);
  const ProgramCacheStats after = cache.stats();

  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(after.pipeline_misses - before.pipeline_misses, 1u);
  EXPECT_EQ(after.pipeline_hits - before.pipeline_hits, 1u);
}

TEST(ProgramCacheTest, PipelineCacheEvictsLeastRecentlyUsed) {
  auto& cache = ProgramCache::instance();
  cache.clear();
  const auto network = [](std::size_t i) {
    return dfg::dataflow::Network(dfg::dataflow::build_network(
        "r = u * v + " + std::to_string(i) + ".5"));
  };
  const auto held = cache.fused_pipeline(network(0));
  for (std::size_t i = 1; i <= ProgramCache::kPipelineCapacity; ++i) {
    cache.fused_pipeline(network(i));
  }
  // Capacity + 1 distinct networks: the first, least recently used, was
  // evicted and generates again.
  const ProgramCacheStats before = cache.stats();
  const auto again = cache.fused_pipeline(network(0));
  EXPECT_EQ(cache.stats().pipeline_misses, before.pipeline_misses + 1);
  EXPECT_NE(again.get(), held.get());
  // The handle taken before the eviction still owns its pipeline.
  ASSERT_EQ(held->stages.size(), again->stages.size());
  EXPECT_EQ(held->stages[0].program.fingerprint(),
            again->stages[0].program.fingerprint());
}

TEST(ProgramCacheTest, CachedPipelineMatchesFreshGeneration) {
  auto& cache = ProgramCache::instance();
  cache.clear();
  const dfg::dataflow::Network network(
      dfg::dataflow::build_network("r = sqrt(u*u + v*v + w*w)"));
  const auto cached = cache.fused_pipeline(network);
  const FusedPipeline fresh = generate_fused_pipeline(network);

  ASSERT_EQ(cached->stages.size(), fresh.stages.size());
  for (std::size_t s = 0; s < fresh.stages.size(); ++s) {
    const Program& a = cached->stages[s].program;
    const Program& b = fresh.stages[s].program;
    ASSERT_EQ(a.code().size(), b.code().size());
    for (std::size_t pc = 0; pc < a.code().size(); ++pc) {
      EXPECT_EQ(a.code()[pc].op, b.code()[pc].op) << "stage " << s;
      EXPECT_EQ(a.code()[pc].dst, b.code()[pc].dst) << "stage " << s;
      EXPECT_EQ(a.code()[pc].args, b.code()[pc].args) << "stage " << s;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(a.code()[pc].imm),
                std::bit_cast<std::uint32_t>(b.code()[pc].imm))
          << "stage " << s;
    }
  }
}

// A cache-hit evaluation must replay a byte-identical device event stream —
// the Table II counts and the simulated-time study both depend on it.
TEST(ProgramCacheTest, CacheHitReplaysIdenticalEventStream) {
  const dfg::mesh::RectilinearMesh mesh =
      dfg::mesh::RectilinearMesh::uniform({8, 8, 8});
  const dfg::mesh::VectorField field = dfg::mesh::rayleigh_taylor_flow(mesh);

  const auto evaluate = [&](dfg::EvaluationReport& report,
                            std::vector<dfg::vcl::Event>& events) {
    dfg::vcl::Device device(dfg::vcl::xeon_x5660_scaled());
    dfg::Engine engine(device,
                       {dfg::runtime::StrategyKind::fusion, {}});
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    report = engine.evaluate(dfg::expressions::kQCriterion);
    events = engine.log().events();
  };

  ProgramCache::instance().clear();
  dfg::EvaluationReport miss_report, hit_report;
  std::vector<dfg::vcl::Event> miss_events, hit_events;
  evaluate(miss_report, miss_events);
  evaluate(hit_report, hit_events);

  EXPECT_GE(miss_report.pipeline_cache_misses, 1u);
  EXPECT_EQ(hit_report.pipeline_cache_misses, 0u);
  EXPECT_GE(hit_report.pipeline_cache_hits, 1u);

  ASSERT_EQ(miss_events.size(), hit_events.size());
  for (std::size_t i = 0; i < miss_events.size(); ++i) {
    EXPECT_EQ(miss_events[i].kind, hit_events[i].kind) << "event " << i;
    EXPECT_EQ(miss_events[i].label, hit_events[i].label) << "event " << i;
    EXPECT_EQ(miss_events[i].bytes, hit_events[i].bytes) << "event " << i;
    EXPECT_EQ(miss_events[i].flops, hit_events[i].flops) << "event " << i;
    EXPECT_EQ(miss_events[i].sim_seconds, hit_events[i].sim_seconds)
        << "event " << i;
  }
  expect_bits_equal(hit_report.values, miss_report.values,
                    "cache-hit values");
}

// Every cache request an evaluation makes is charged to its report: summed
// over N evaluations the report counts equal the cache's own delta, and a
// fused evaluation (its kernel-source dump included) requests its pipeline
// exactly once.
TEST(ProgramCacheTest, ReportCountsMatchTheCacheDelta) {
  const dfg::mesh::RectilinearMesh mesh =
      dfg::mesh::RectilinearMesh::uniform({8, 8, 8});
  const dfg::mesh::VectorField field = dfg::mesh::rayleigh_taylor_flow(mesh);
  constexpr std::size_t kEvaluations = 10;
  for (const auto kind : {dfg::runtime::StrategyKind::fusion,
                          dfg::runtime::StrategyKind::streamed}) {
    dfg::vcl::Device device(dfg::vcl::xeon_x5660_scaled());
    dfg::EngineOptions options;
    options.strategy = kind;
    dfg::Engine engine(device, options);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);

    const ProgramCacheStats before = ProgramCache::instance().thread_stats();
    std::size_t hits = 0;
    std::size_t misses = 0;
    for (std::size_t i = 0; i < kEvaluations; ++i) {
      const dfg::EvaluationReport report =
          engine.evaluate(dfg::expressions::kQCriterion);
      EXPECT_FALSE(report.kernel_source.empty());
      hits += report.pipeline_cache_hits;
      misses += report.pipeline_cache_misses;
    }
    const ProgramCacheStats after = ProgramCache::instance().thread_stats();

    const char* name = dfg::runtime::strategy_name(kind);
    EXPECT_EQ(hits, (after.pipeline_hits - before.pipeline_hits) +
                        (after.standalone_hits - before.standalone_hits))
        << name;
    EXPECT_EQ(misses,
              (after.pipeline_misses - before.pipeline_misses) +
                  (after.standalone_misses - before.standalone_misses))
        << name;
    EXPECT_EQ(hits + misses, kEvaluations) << name;
  }
}

// ----- parallel_for grain -----

TEST(ParallelForGrain, ChunksAreGrainAlignedAndCoverTheRange) {
  dfg::support::set_worker_count(4);
  const std::size_t n = 5000, grain = 1024;
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  dfg::support::parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        std::scoped_lock lock(mutex);
        ranges.push_back({begin, end});
      },
      grain);
  dfg::support::set_worker_count(0);

  std::sort(ranges.begin(), ranges.end());
  ASSERT_FALSE(ranges.empty());
  std::size_t cursor = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, cursor);
    EXPECT_EQ(begin % grain, 0u) << "chunk not tile-aligned";
    EXPECT_LT(begin, end);
    cursor = end;
  }
  EXPECT_EQ(cursor, n);
}

TEST(ParallelForGrain, GrainOfOneReproducesHistoricalChunking) {
  dfg::support::set_worker_count(4);
  const std::size_t n = 10;
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  dfg::support::parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        std::scoped_lock lock(mutex);
        ranges.push_back({begin, end});
      },
      1);
  dfg::support::set_worker_count(0);

  // ceil(10/4) = 3: [0,3) [3,6) [6,9) [9,10).
  std::sort(ranges.begin(), ranges.end());
  const std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {0, 3}, {3, 6}, {6, 9}, {9, 10}};
  EXPECT_EQ(ranges, expected);
}

}  // namespace
