// The cross-request subgraph memoizer: subtree fingerprints are value
// identities (label-insensitive, constant- and component-sensitive), the
// spec rewrites round-trip bit-exactly, the IntermediateCache admits,
// evicts by LRU-with-cost and invalidates on dependency mutation, and —
// the load-bearing property — a memo-enabled service serves overlapping
// requests bit-identically to plain evaluation while actually hitting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "memo/intermediate_cache.hpp"
#include "memo/subgraph.hpp"
#include "mesh/generators.hpp"
#include "service/service.hpp"
#include "vcl/catalog.hpp"
#include "vcl/resident_pool.hpp"

namespace {

using namespace dfg;
using service::EvalService;
using service::Request;
using service::RequestStatus;
using service::ServiceOptions;
using service::ServiceReport;
using service::ServiceSnapshot;
using service::Ticket;

void expect_bitwise_equal(const std::vector<float>& got,
                          const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool nan = std::isnan(want[i]);
    ASSERT_EQ(std::isnan(got[i]), nan) << "cell " << i;
    if (!nan) ASSERT_EQ(got[i], want[i]) << "cell " << i;
  }
}

// The ServiceFixture's shared subtree, then the same subtree under other
// labels and with its statements in another order.
const std::string kSharedSubtree = "ke = u*u + v*v + w*w\n";
const std::string kRelabeledSubtree =
    "uu = u*u\nvv = v*v\nke = uu + vv + w*w\n";
const std::string kReorderedSubtree =
    "vv = v*v\nuu = u*u\nke = uu + vv + w*w\n";

// ---------------------------------------------------------------------------
// Subtree fingerprints

TEST(SubtreeFingerprint, SharedAcrossDifferentNetworks) {
  const dataflow::Network a(
      dataflow::build_network("ke = u*u + v*v\nr = sqrt(ke)"));
  const dataflow::Network b(
      dataflow::build_network("ke = u*u + v*v\nr = ke * 0.5"));
  ASSERT_NE(a.fingerprint(), b.fingerprint());
  // The shared ke subtree fingerprints identically in both.
  const auto fps_a = dataflow::subtree_fingerprints(a.spec());
  std::uint64_t ke_a = 0;
  for (const auto& node : a.spec().nodes()) {
    if (node.label == "ke") ke_a = fps_a[node.id];
  }
  const auto fps_b = dataflow::subtree_fingerprints(b.spec());
  std::uint64_t ke_b = 0;
  for (const auto& node : b.spec().nodes()) {
    if (node.label == "ke") ke_b = fps_b[node.id];
  }
  ASSERT_NE(ke_a, 0u);
  EXPECT_EQ(ke_a, ke_b);
}

TEST(SubtreeFingerprint, LabelInsensitiveConstantAndComponentSensitive) {
  const auto fp_of_output = [](const std::string& script) {
    const dataflow::Network net(dataflow::build_network(script));
    return dataflow::subtree_fingerprints(net.spec())[net.output_id()];
  };
  // Same structure under different assignment names: same fingerprint
  // (value identity, not program identity)...
  EXPECT_EQ(fp_of_output("a = u*u"), fp_of_output("b = u*u"));
  // ...but different constants and different vector components differ.
  EXPECT_NE(fp_of_output("r = u * 2"), fp_of_output("r = u * 3"));
  EXPECT_NE(fp_of_output("du = grad3d(u, dims, x, y, z)\nr = du[0]"),
            fp_of_output("du = grad3d(u, dims, x, y, z)\nr = du[1]"));

  // The exact subtree identity keeps those matches: other labels inside
  // the subtree, and its statements in another order, still name ke.
  const auto ke_identity = [](const std::string& script) {
    const dataflow::Network net(dataflow::build_network(script));
    for (const auto& node : net.spec().nodes()) {
      if (node.label == "ke") {
        return dataflow::subtree_identity(net.spec(), node.id);
      }
    }
    return std::string();
  };
  const std::string ke = ke_identity(kSharedSubtree + "r = sqrt(ke)");
  ASSERT_FALSE(ke.empty());
  EXPECT_EQ(ke_identity(kRelabeledSubtree + "r = sqrt(ke)"), ke);
  EXPECT_EQ(ke_identity(kReorderedSubtree + "r = sqrt(ke)"), ke);
}

// ---------------------------------------------------------------------------
// Candidate enumeration and spec rewrites

TEST(SubgraphCandidates, EnumeratesBoundScalarNonOutputSubtrees) {
  const dataflow::Network net(
      dataflow::build_network("r = sqrt(u*u + v*v)"));
  std::vector<float> u(16, 1.0f), v(16, 2.0f);
  memo::EvalContext ctx;
  ctx.network = &net;
  ctx.elements = 16;
  ctx.fields = {{"u", u.data(), u.size()}, {"v", v.data(), v.size()}};
  const std::vector<memo::Candidate> candidates =
      memo::enumerate_candidates(ctx);
  // The only subtree with >= 2 filters that is not the output: the add.
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].filters, 3u);
  EXPECT_EQ(candidates[0].deps.size(), 2u);

  // An unbound leaf disqualifies every subtree through it.
  memo::EvalContext unbound = ctx;
  unbound.fields = {{"u", u.data(), u.size()}};
  EXPECT_TRUE(memo::enumerate_candidates(unbound).empty());
}

TEST(SubgraphCandidates, KeyTracksContentIdentity) {
  const dataflow::Network net(
      dataflow::build_network("r = sqrt(u*u + v*v)"));
  std::vector<float> u(16, 1.0f), v(16, 2.0f), other(16, 3.0f);
  memo::EvalContext ctx;
  ctx.network = &net;
  ctx.elements = 16;
  ctx.fields = {{"u", u.data(), u.size()}, {"v", v.data(), v.size()}};
  const auto base = memo::enumerate_candidates(ctx);
  // Same arrays -> same key; a different backing array -> different key.
  EXPECT_EQ(memo::enumerate_candidates(ctx)[0].key, base[0].key);
  ctx.fields[1] = {"v", other.data(), other.size()};
  EXPECT_NE(memo::enumerate_candidates(ctx)[0].key, base[0].key);
}

TEST(SubgraphRewrites, ExtractAndSpliceRoundTripBitExactly) {
  const std::string script =
      "ke = u*u + v*v + w*w\nr = sqrt(ke) * 0.5 + u";
  const dataflow::Network full(dataflow::build_network(script));
  int ke_root = -1;
  for (const auto& node : full.spec().nodes()) {
    if (node.label == "ke") ke_root = node.id;
  }
  ASSERT_GE(ke_root, 0);

  const mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({6, 5, 4});
  const mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh, 7);
  vcl::Device device(vcl::xeon_x5660_scaled());
  Engine engine(device);
  engine.bind_mesh(mesh);
  engine.bind("u", field.u);
  engine.bind("v", field.v);
  engine.bind("w", field.w);

  const std::vector<float> want =
      engine.evaluate_network(full, mesh.cell_count()).values;

  // Materialize the subtree standalone, splice it back as a field source.
  const dataflow::Network subtree(
      memo::extract_subtree(full.spec(), ke_root));
  const std::vector<float> ke =
      engine.evaluate_network(subtree, mesh.cell_count()).values;
  const dataflow::Network spliced(memo::splice_materialized(
      full.spec(), {{ke_root, std::string("_memo_test")}}));
  engine.bind("_memo_test", ke);
  const std::vector<float> got =
      engine.evaluate_network(spliced, mesh.cell_count()).values;
  expect_bitwise_equal(got, want);
  // The spliced network really lost the subtree interior.
  EXPECT_LT(spliced.spec().nodes().size(), full.spec().nodes().size());
}

// ---------------------------------------------------------------------------
// IntermediateCache

TEST(IntermediateCache, AdmitLookupAndOversizeRefusal) {
  memo::IntermediateCache cache({1024});
  EXPECT_EQ(cache.lookup("k1"), nullptr);  // miss
  const auto entry = cache.admit("k1", std::vector<float>(8, 2.0f), 0.5, {});
  ASSERT_NE(entry, nullptr);
  const auto hit = cache.lookup("k1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->values[0], 2.0f);
  // A value larger than the whole cache is refused outright.
  EXPECT_EQ(cache.admit("k2", std::vector<float>(1024, 0.0f), 9.0, {}),
            nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.admits, 1u);
  EXPECT_EQ(cache.resident_bytes(), 8 * sizeof(float));
}

TEST(IntermediateCache, EvictsLeastRecomputeSavedPerByte) {
  // Capacity fits exactly two 8-float entries.
  memo::IntermediateCache cache({2 * 8 * sizeof(float)});
  ASSERT_NE(cache.admit("k1", std::vector<float>(8, 1.0f), 0.001, {}), nullptr);
  ASSERT_NE(cache.admit("k2", std::vector<float>(8, 2.0f), 9.0, {}), nullptr);
  // Admitting a third evicts the cheapest-to-recompute entry (key 1).
  ASSERT_NE(cache.admit("k3", std::vector<float>(8, 3.0f), 1.0, {}), nullptr);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.lookup("k1"), nullptr);
  EXPECT_NE(cache.lookup("k2"), nullptr);
  EXPECT_NE(cache.lookup("k3"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(IntermediateCache, DependencyMutationInvalidatesOnLookup) {
  std::vector<float> input(8, 1.0f);
  memo::IntermediateCache cache({1024});
  const std::uint64_t generation = vcl::host_generation(input.data());
  ASSERT_NE(cache.admit("k7", std::vector<float>(8, 2.0f), 1.0,
                        {{input.data(), generation}}),
            nullptr);
  ASSERT_NE(cache.lookup("k7"), nullptr);
  // The host mutates the dependency: the cached value is stale.
  input[0] = 42.0f;
  vcl::note_host_mutation(input.data());
  EXPECT_EQ(cache.lookup("k7"), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(IntermediateCache, InvalidateDependentsDropsEagerly) {
  std::vector<float> a(8, 1.0f), b(8, 2.0f);
  memo::IntermediateCache cache({1024});
  cache.admit("k1", std::vector<float>(8, 0.0f), 1.0,
              {{a.data(), vcl::host_generation(a.data())}});
  cache.admit("k2", std::vector<float>(8, 0.0f), 1.0,
              {{b.data(), vcl::host_generation(b.data())}});
  cache.invalidate_dependents(a.data());
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_NE(cache.lookup("k2"), nullptr);
}

// ---------------------------------------------------------------------------
// SubgraphIndex

TEST(SubgraphIndex, PopularityCountsDistinctNetworks) {
  const dataflow::Network a(
      dataflow::build_network("ke = u*u + v*v\nr = sqrt(ke)"));
  const dataflow::Network b(
      dataflow::build_network("ke = u*u + v*v\nr = ke * 0.5"));
  std::vector<float> u(16, 1.0f), v(16, 2.0f);
  const auto ctx_for = [&](const dataflow::Network& net) {
    memo::EvalContext ctx;
    ctx.network = &net;
    ctx.elements = 16;
    ctx.fields = {{"u", u.data(), u.size()}, {"v", v.data(), v.size()}};
    return ctx;
  };
  memo::SubgraphIndex index;
  const auto cand_a = memo::enumerate_candidates(ctx_for(a));
  ASSERT_FALSE(cand_a.empty());
  // First sighting: nothing to share with yet.
  EXPECT_FALSE(index.observe(a, cand_a));
  EXPECT_EQ(index.popularity(cand_a[0].key).networks, 1u);
  // The same network again is not a near-miss (the coalescer's case)...
  EXPECT_FALSE(index.observe(a, cand_a));
  EXPECT_EQ(index.popularity(cand_a[0].key).networks, 1u);
  // ...but a *different* network sharing the ke subtree is.
  const auto cand_b = memo::enumerate_candidates(ctx_for(b));
  EXPECT_TRUE(index.observe(b, cand_b));
  std::uint64_t shared_key = 0;
  for (const auto& candidate : cand_b) {
    for (const auto& other : cand_a) {
      if (candidate.key == other.key) shared_key = candidate.key;
    }
  }
  ASSERT_NE(shared_key, 0u);
  EXPECT_EQ(index.popularity(shared_key).networks, 2u);
}

// ---------------------------------------------------------------------------
// Service end-to-end

struct ServiceFixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({12, 10, 8});
  mesh::VectorField field;
  // Two different networks hanging off the same heavy subtree.
  std::string shared = kSharedSubtree;
  std::string expr_a = shared + "r = sqrt(ke)";
  std::string expr_b = shared + "r = ke * 0.5 + u";

  ServiceFixture() : field(mesh::rayleigh_taylor_flow(mesh, 7)) {}

  Request request(const std::string& expression,
                  const std::string& session) const {
    Request r;
    r.expression = expression;
    r.mesh = &mesh;
    r.fields = {{"u", field.u}, {"v", field.v}, {"w", field.w}};
    r.session = session;
    return r;
  }

  std::vector<float> reference(const std::string& expression) const {
    vcl::Device device(vcl::xeon_x5660_scaled());
    Engine engine(device);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    return engine.evaluate(expression).values;
  }
};

TEST(MemoService, OverlappingRequestsHitBitExactly) {
  ServiceFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  ServiceOptions options;
  options.start_paused = true;
  options.memo = true;
  EvalService svc({&device}, options);

  // Both requests are observed at admission, so by the time the first
  // batch runs the ke subtree is popular across two distinct networks:
  // the first batch materializes it, the second serves it from cache.
  const Ticket ta = svc.submit(fx.request(fx.expr_a, "alice"));
  const Ticket tb = svc.submit(fx.request(fx.expr_b, "bob"));
  svc.resume();
  svc.drain();

  const ServiceReport& ra = ta.wait();
  const ServiceReport& rb = tb.wait();
  ASSERT_EQ(ra.status, RequestStatus::completed) << ra.error;
  ASSERT_EQ(rb.status, RequestStatus::completed) << rb.error;
  expect_bitwise_equal(ra.evaluation->values, fx.reference(fx.expr_a));
  expect_bitwise_equal(rb.evaluation->values, fx.reference(fx.expr_b));

  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_GE(snap.memo_admits, 1u);
  EXPECT_GE(snap.memo_hits, 1u);
  EXPECT_GT(snap.memo_bytes_saved, 0u);
  EXPECT_GE(snap.memo_candidate_requests, 1u);
}

TEST(MemoService, MemoOffIsBitExactAndStillCountsNearMisses) {
  ServiceFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  ServiceOptions options;
  options.start_paused = true;
  options.memo = false;
  EvalService svc({&device}, options);
  const Ticket ta = svc.submit(fx.request(fx.expr_a, "alice"));
  const Ticket tb = svc.submit(fx.request(fx.expr_b, "bob"));
  svc.resume();
  svc.drain();
  expect_bitwise_equal(ta.wait().evaluation->values,
                       fx.reference(fx.expr_a));
  expect_bitwise_equal(tb.wait().evaluation->values,
                       fx.reference(fx.expr_b));
  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.memo_hits, 0u);
  EXPECT_EQ(snap.memo_admits, 0u);
  // The near-miss counter observes regardless: memo-off deployments can
  // chart the hit-rate ceiling before enabling.
  EXPECT_GE(snap.memo_candidate_requests, 1u);
}

TEST(MemoService, HostMutationInvalidatesCachedIntermediates) {
  ServiceFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  ServiceOptions options;
  options.start_paused = true;
  options.memo = true;
  EvalService svc({&device}, options);
  {
    const Ticket ta = svc.submit(fx.request(fx.expr_a, "alice"));
    const Ticket tb = svc.submit(fx.request(fx.expr_b, "bob"));
    svc.resume();
    svc.drain();
    ASSERT_EQ(ta.wait().status, RequestStatus::completed);
    ASSERT_EQ(tb.wait().status, RequestStatus::completed);
  }
  ASSERT_GE(svc.snapshot().memo_admits, 1u);

  // The host mutates a shared input in place and declares it. Cached
  // intermediates derived from it must not be served again.
  for (float& value : fx.field.u) value += 1.0f;
  vcl::note_host_mutation(fx.field.u.data());

  const Ticket ta = svc.submit(fx.request(fx.expr_a, "alice"));
  const Ticket tb = svc.submit(fx.request(fx.expr_b, "bob"));
  svc.drain();
  const ServiceReport& ra = ta.wait();
  const ServiceReport& rb = tb.wait();
  ASSERT_EQ(ra.status, RequestStatus::completed) << ra.error;
  ASSERT_EQ(rb.status, RequestStatus::completed) << rb.error;
  // References computed from the mutated arrays.
  expect_bitwise_equal(ra.evaluation->values, fx.reference(fx.expr_a));
  expect_bitwise_equal(rb.evaluation->values, fx.reference(fx.expr_b));
}

TEST(MemoService, RepeatTrafficServesFromCacheAcrossRounds) {
  ServiceFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  ServiceOptions options;
  options.memo = true;
  EvalService svc({&device}, options);
  // Sequential rounds (no pause): after the warm-up round the subtree is
  // materialized and every later round hits it.
  for (int round = 0; round < 3; ++round) {
    const Ticket ta = svc.submit(fx.request(fx.expr_a, "alice"));
    const Ticket tb = svc.submit(fx.request(fx.expr_b, "bob"));
    svc.drain();
    expect_bitwise_equal(ta.wait().evaluation->values,
                         fx.reference(fx.expr_a));
    expect_bitwise_equal(tb.wait().evaluation->values,
                         fx.reference(fx.expr_b));
  }
  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_GE(snap.memo_hits, 3u);
  EXPECT_GT(snap.memo_recompute_saved_nanos, 0u);
}

TEST(MemoService, RelabeledAndReorderedSubtreesStillHit) {
  ServiceFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  ServiceOptions options;
  options.memo = true;
  EvalService svc({&device}, options);
  const Ticket ta = svc.submit(fx.request(fx.expr_a, "alice"));
  const Ticket tb = svc.submit(fx.request(fx.expr_b, "bob"));
  svc.drain();
  ASSERT_GE(svc.snapshot().memo_admits, 1u);

  // Each with its own tail: a tail shared by two requests would make the
  // larger subtree over ke popular, and it would be admitted instead.
  for (const std::string& expression :
       {kRelabeledSubtree + "r = sqrt(ke) + w",
        kReorderedSubtree + "r = ke * 0.25 + v"}) {
    const std::uint64_t hits = svc.snapshot().memo_hits;
    const Ticket ticket = svc.submit(fx.request(expression, "carol"));
    svc.drain();
    const ServiceReport& report = ticket.wait();
    ASSERT_EQ(report.status, RequestStatus::completed) << report.error;
    expect_bitwise_equal(report.evaluation->values,
                         fx.reference(expression));
    EXPECT_EQ(svc.snapshot().memo_hits, hits + 1) << expression;
  }
}

TEST(MemoService, SubtreesSharingAKeyHashGetTheirOwnValues) {
  // Found offline by a rho search over the constant's bytes: the two ke
  // subtrees share an identity hash, so their cache keys over the same
  // arrays do too.
  const std::string first =
      "ke = (u*u + v*v + w*w) * 8.4696427476686205e-18\n";
  const std::string second =
      "ke = (u*u + v*v + w*w) * 100372240605252.09\n";
  ServiceFixture fx;
  const auto ke_candidate = [&](const dataflow::Network& net) {
    memo::EvalContext ctx;
    ctx.network = &net;
    ctx.mesh = &fx.mesh;
    ctx.elements = fx.mesh.cell_count();
    ctx.fields = {{"u", fx.field.u.data(), fx.field.u.size()},
                  {"v", fx.field.v.data(), fx.field.v.size()},
                  {"w", fx.field.w.data(), fx.field.w.size()}};
    for (const memo::Candidate& candidate : memo::enumerate_candidates(ctx)) {
      if (net.spec().node(candidate.root).label == "ke") return candidate;
    }
    return memo::Candidate{};
  };
  const dataflow::Network first_net(
      dataflow::build_network(first + "r = ke + u"));
  const dataflow::Network second_net(
      dataflow::build_network(second + "r = ke + u"));
  const memo::Candidate first_key = ke_candidate(first_net);
  const memo::Candidate second_key = ke_candidate(second_net);
  ASSERT_EQ(first_key.key, second_key.key);
  EXPECT_NE(first_key.identity, second_key.identity);

  vcl::Device device(vcl::xeon_x5660_scaled());
  ServiceOptions options;
  options.memo = true;
  EvalService svc({&device}, options);
  const auto run = [&](const std::vector<std::string>& expressions) {
    std::vector<Ticket> tickets;
    for (const std::string& expression : expressions) {
      tickets.push_back(svc.submit(fx.request(expression, "alice")));
    }
    svc.drain();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const ServiceReport& report = tickets[i].wait();
      ASSERT_EQ(report.status, RequestStatus::completed) << report.error;
      expect_bitwise_equal(report.evaluation->values,
                           fx.reference(expressions[i]));
    }
  };
  // Two networks over each ke make it popular enough to admit.
  run({first + "r = ke + u", first + "r = ke * 0.5 + v"});
  const std::uint64_t admits = svc.snapshot().memo_admits;
  ASSERT_GE(admits, 1u);
  // The second ke misses the first one's entry and is admitted beside it.
  run({second + "r = ke + u", second + "r = ke * 0.5 + v"});
  EXPECT_EQ(svc.snapshot().memo_admits, admits + 1);
  // Neither overwrote the other: each hits its own entry.
  const std::uint64_t hits = svc.snapshot().memo_hits;
  run({first + "r = ke + u", second + "r = ke + u"});
  EXPECT_EQ(svc.snapshot().memo_hits, hits + 2);
  EXPECT_EQ(svc.snapshot().memo_admits, admits + 1);
}

TEST(MemoService, CallerFieldNamedLikeASplicedInputIsRefused) {
  // The memoizer splices a cached subtree in as the field "_memo_<key>"
  // and binds it on the batch's engine, over any caller binding of that
  // name. A caller field named after a live key would alias the cached
  // value (r = ke + ke instead of r = ke + own), so the front end refuses
  // the prefix before anything is queued.
  ServiceFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  ServiceOptions options;
  options.start_paused = true;
  options.memo = true;
  EvalService svc({&device}, options);
  const Ticket ta = svc.submit(fx.request(fx.expr_a, "alice"));
  const Ticket tb = svc.submit(fx.request(fx.expr_b, "bob"));
  svc.resume();
  svc.drain();
  ASSERT_GE(svc.snapshot().memo_admits, 1u);

  // The key ke is cached under: the same subtree over the same arrays.
  const dataflow::Network net(dataflow::build_network(fx.expr_a));
  memo::EvalContext ctx;
  ctx.network = &net;
  ctx.mesh = &fx.mesh;
  ctx.elements = fx.mesh.cell_count();
  ctx.fields = {{"u", fx.field.u.data(), fx.field.u.size()},
                {"v", fx.field.v.data(), fx.field.v.size()},
                {"w", fx.field.w.data(), fx.field.w.size()}};
  std::uint64_t key = 0;
  for (const memo::Candidate& candidate : memo::enumerate_candidates(ctx)) {
    if (net.spec().node(candidate.root).label == "ke") key = candidate.key;
  }
  ASSERT_NE(key, 0u);
  char name[32];
  std::snprintf(name, sizeof(name), "_memo_%016llx",
                static_cast<unsigned long long>(key));

  const std::vector<float> own(fx.mesh.cell_count(), 1000.0f);
  Request request = fx.request(fx.shared + "r = ke + " + name, "carol");
  request.fields.push_back({name, own});
  const Ticket tc = svc.submit(request);
  const ServiceReport& rc = tc.wait();
  EXPECT_EQ(rc.status, RequestStatus::failed);
  EXPECT_NE(rc.error.find("'_memo_'"), std::string::npos) << rc.error;
  EXPECT_EQ(rc.evaluation, nullptr);
}

}  // namespace
