// Content identity: every cache whose hit supplies a result finds its
// entry by a 64-bit hash and then compares the canonical bytes. Each pair
// below shares the hash its cache looks up by, and each member must still
// get its own answer, bit for bit against the scalar interpreter.
//
// The colliding constants were found offline by a rho search over the
// constant's bytes (FNV-1a absorbs the last byte's difference, so the walk
// runs over 56 bits); they are committed as literals.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "kernels/backend.hpp"
#include "kernels/generator.hpp"
#include "kernels/program_cache.hpp"
#include "kernels/vm.hpp"
#include "mesh/generators.hpp"
#include "runtime/bindings.hpp"
#include "service/service.hpp"
#include "vcl/catalog.hpp"

#include "bitwise.hpp"

namespace {

using namespace dfg;

struct CollidingPair {
  const char* name;
  const char* first;
  const char* second;
  /// False for a pair that collided only under an earlier hash.
  bool same_fingerprint;
};

/// Differ only in the constant; share fingerprint 0xcd515d3a24207f04.
const CollidingPair kConstantPair{"constant", "r = u * 2.8436505177482765e-15",
                                  "r = u * -86.923529853286524", true};
/// Differ only in the field name; these shared a fingerprint when it was a
/// hash of 8-byte words per spec field.
const CollidingPair kNamePair{"name", "r = CbCiwtfyelfhi * 2.0",
                              "r = sstDnBrqCkiuf * 2.0", false};

struct Fixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({6, 5, 4});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  std::vector<float> ones = std::vector<float>(mesh.cell_count(), 1.0f);
  std::vector<float> fives = std::vector<float>(mesh.cell_count(), 5.0f);

  /// Binds every field either pair reads (on an Engine or FieldBindings).
  template <typename Target>
  void bind(Target& b) const {
    b.bind("u", field.u);
    b.bind("CbCiwtfyelfhi", ones);
    b.bind("sstDnBrqCkiuf", fives);
  }

  /// The scalar interpreter over a freshly generated program: no cache.
  std::vector<float> reference(const std::string& text) const {
    const dataflow::Network network(dataflow::build_network(text));
    const kernels::Program program = kernels::generate_fused(network);
    runtime::FieldBindings b;
    bind(b);
    std::vector<kernels::BufferBinding> inputs;
    for (const kernels::BufferParam& param : program.params()) {
      const std::span<const float> values = b.get(param.name);
      inputs.push_back({values.data(), values.size()});
    }
    std::vector<float> out(mesh.cell_count());
    kernels::run_scalar(program, inputs, out.data(), out.size(), 0,
                        out.size());
    return out;
  }
};

void expect_fingerprints(const CollidingPair& pair) {
  const dataflow::Network a(dataflow::build_network(pair.first));
  const dataflow::Network b(dataflow::build_network(pair.second));
  if (pair.same_fingerprint) {
    ASSERT_EQ(a.fingerprint(), b.fingerprint());
  }
  EXPECT_NE(a.identity(), b.identity());
}

using EngineCase = std::tuple<CollidingPair, kernels::BackendKind>;

class CollidingNetworks : public ::testing::TestWithParam<EngineCase> {};

TEST_P(CollidingNetworks, EachGetsItsOwnResultInEitherOrder) {
  const auto& [pair, backend] = GetParam();
  expect_fingerprints(pair);
  Fixture fx;
  EngineOptions options;
  options.backend = backend;
  for (const bool reversed : {false, true}) {
    kernels::ProgramCache::instance().clear();
    vcl::Device device(vcl::xeon_x5660_scaled());
    Engine engine(device, options);
    fx.bind(engine);
    for (const char* text : reversed ? std::vector{pair.second, pair.first}
                                     : std::vector{pair.first, pair.second}) {
      const EvaluationReport report =
          engine.evaluate(text, fx.mesh.cell_count());
      test::expect_bits_equal(report.values, fx.reference(text),
                              std::string(text) + " on " +
                                  kernels::backend_name(backend));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, CollidingNetworks,
    ::testing::Combine(::testing::Values(kConstantPair, kNamePair),
                       ::testing::Values(kernels::BackendKind::vm,
                                         kernels::BackendKind::jit,
                                         kernels::BackendKind::auto_select)),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             kernels::backend_name(std::get<1>(info.param));
    });

TEST(CollidingNetworks, ConcurrentServiceRequestsDoNotCoalesce) {
  expect_fingerprints(kConstantPair);
  Fixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  service::ServiceOptions options;
  options.start_paused = true;
  service::EvalService svc({&device}, options);
  const auto submit = [&](const char* text) {
    service::Request request;
    request.expression = text;
    request.mesh = &fx.mesh;
    request.fields = {{"u", fx.field.u}};
    return svc.submit(request);
  };
  const service::Ticket first = submit(kConstantPair.first);
  const service::Ticket second = submit(kConstantPair.second);
  svc.resume();
  svc.drain();
  for (const auto& [ticket, text] :
       {std::pair{&first, kConstantPair.first},
        std::pair{&second, kConstantPair.second}}) {
    const service::ServiceReport& report = ticket->wait();
    ASSERT_EQ(report.status, service::RequestStatus::completed)
        << report.error;
    EXPECT_EQ(report.coalesced_fanout, 1u);
    test::expect_bits_equal(report.evaluation->values, fx.reference(text),
                            text);
  }
  EXPECT_EQ(svc.snapshot().coalesced_requests, 0u);
}

}  // namespace
