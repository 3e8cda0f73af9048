// Unit tests for the support module: parallel_for and its worker team,
// string helpers, stopwatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "mesh/generators.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/stopwatch.hpp"
#include "support/string_util.hpp"
#include "vcl/catalog.hpp"

namespace {

using dfg::support::parallel_for;

TEST(ParallelFor, CoversWholeRangeExactlyOnce) {
  std::vector<std::atomic<int>> touched(1000);
  parallel_for(touched.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroElementsDoesNotInvokeBody) {
  bool called = false;
  parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleElement) {
  int sum = 0;
  parallel_for(1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) sum += static_cast<int>(i) + 5;
  });
  EXPECT_EQ(sum, 5);
}

TEST(ParallelFor, PropagatesBodyException) {
  EXPECT_THROW(
      parallel_for(100,
                   [](std::size_t begin, std::size_t) {
                     if (begin == 0) throw dfg::Error("boom");
                   }),
      dfg::Error);
}

TEST(ParallelFor, WorkerOverrideRestorable) {
  dfg::support::set_worker_count(3);
  EXPECT_EQ(dfg::support::worker_count(), 3u);
  std::atomic<int> total{0};
  parallel_for(10, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 10);
  dfg::support::set_worker_count(0);
  EXPECT_GE(dfg::support::worker_count(), 1u);
}

TEST(ParallelFor, ChunksAreDisjointAndOrdered) {
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(97, [&](std::size_t begin, std::size_t end) {
    std::scoped_lock lock(m);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  std::size_t covered = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, covered);
    EXPECT_GT(end, begin);
    covered = end;
  }
  EXPECT_EQ(covered, 97u);
}

using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

/// The (begin, end) chunks one parallel_for call hands its body, sorted.
Ranges recorded_chunks(std::size_t n, std::size_t grain) {
  std::mutex mutex;
  Ranges ranges;
  parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        std::scoped_lock lock(mutex);
        ranges.emplace_back(begin, end);
      },
      grain);
  std::sort(ranges.begin(), ranges.end());
  return ranges;
}

TEST(ParallelForTeam, PartitionIsTheDocumentedFormula) {
  struct Setting {
    std::size_t n, grain, workers;
  };
  // Worker counts below, at and above this host's core count: the
  // partition must not depend on how many team threads exist.
  const Setting settings[] = {{10, 1, 4},        {97, 1, 3},
                              {5000, 1024, 4},   {1000, 1024, 4},
                              {4096, 1024, 4},   {100, 1, 8},
                              {3 * 65536 + 5, 1, 2},
                              {1'000'003, 1024, 3}, {7, 1, 1}};
  for (const Setting& s : settings) {
    dfg::support::set_worker_count(s.workers);
    const Ranges ranges = recorded_chunks(s.n, s.grain);
    const std::size_t tiles = (s.n + s.grain - 1) / s.grain;
    const std::size_t workers = std::min(s.workers, tiles);
    Ranges expected;
    if (workers <= 1) {
      expected.emplace_back(0, s.n);
    } else {
      const std::size_t chunk = ((tiles + workers - 1) / workers) * s.grain;
      for (std::size_t begin = 0; begin < s.n; begin += chunk) {
        expected.emplace_back(begin, std::min(s.n, begin + chunk));
      }
    }
    EXPECT_EQ(ranges, expected) << "n=" << s.n << " grain=" << s.grain
                                << " workers=" << s.workers;
  }
  dfg::support::set_worker_count(0);
}

/// What one caller's chunk throws: the caller and call that raised it.
struct Tagged {
  int caller;
  int call;
};

TEST(ParallelForTeam, ConcurrentCallersEachGetOnlyTheirOwnException) {
  dfg::support::set_worker_count(4);
  constexpr int kCallers = 4;
  constexpr int kCalls = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int caller = 0; caller < kCallers; ++caller) {
    callers.emplace_back([caller, &failures] {
      for (int call = 0; call < kCalls; ++call) {
        const bool throws = call % 7 == 0;
        std::atomic<std::size_t> covered{0};
        try {
          parallel_for(
              4096,
              [&](std::size_t begin, std::size_t end) {
                covered.fetch_add(end - begin);
                // One chunk of every 7th call throws.
                if (throws && begin == 2048) throw Tagged{caller, call};
              },
              1024);
          if (throws) failures.fetch_add(1);  // the exception was lost
        } catch (const Tagged& tag) {
          if (!throws || tag.caller != caller || tag.call != call) {
            failures.fetch_add(1);  // another caller's exception
          }
        }
        // Every chunk ran before the call returned, thrown or not.
        if (covered.load() != 4096) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : callers) thread.join();
  dfg::support::set_worker_count(0);
  EXPECT_EQ(failures.load(), 0);
}

TEST(ParallelForTeam, NestedCallRunsInlineOnTheChunksThread) {
  dfg::support::set_worker_count(4);
  std::atomic<int> foreign{0};
  std::atomic<std::size_t> inner_total{0};
  parallel_for(
      4096,
      [&](std::size_t, std::size_t) {
        const std::thread::id outer = std::this_thread::get_id();
        const Ranges inner = recorded_chunks(4096, 1024);
        // Same partition as a top-level call: four chunks of one tile.
        if (inner.size() != 4) foreign.fetch_add(1);
        parallel_for(
            4096,
            [&](std::size_t begin, std::size_t end) {
              if (std::this_thread::get_id() != outer) foreign.fetch_add(1);
              inner_total.fetch_add(end - begin);
            },
            1024);
      },
      1024);
  dfg::support::set_worker_count(0);
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(inner_total.load(), 4u * 4096u);
}

/// The process's thread count, from /proc/self/status (0 if unreadable).
std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

TEST(ParallelForTeam, ThreadCountStaysBoundedAcrossEvaluations) {
  const std::size_t baseline = process_threads();
  if (baseline == 0) GTEST_SKIP() << "/proc/self/status is not readable";
  const auto mesh = dfg::mesh::RectilinearMesh::uniform({16, 16, 16});
  const auto field = dfg::mesh::rayleigh_taylor_flow(mesh);
  dfg::vcl::Device device(dfg::vcl::xeon_x5660_scaled());
  dfg::Engine engine(device, {});
  engine.bind_mesh(mesh);
  engine.bind("u", field.u);
  engine.bind("v", field.v);
  engine.bind("w", field.w);
  std::size_t peak = baseline;
  for (int i = 0; i < 1000; ++i) {
    engine.evaluate(dfg::expressions::kQCriterion);
    peak = std::max(peak, process_threads());
  }
  EXPECT_LE(peak, baseline + dfg::support::worker_count());
}

TEST(StringUtil, JoinEmpty) { EXPECT_EQ(dfg::support::join({}, ", "), ""); }

TEST(StringUtil, JoinSingle) {
  EXPECT_EQ(dfg::support::join({"a"}, ", "), "a");
}

TEST(StringUtil, JoinMany) {
  EXPECT_EQ(dfg::support::join({"a", "b", "c"}, " + "), "a + b + c");
}

TEST(StringUtil, FormatBytesUnits) {
  EXPECT_EQ(dfg::support::format_bytes(512), "512 B");
  EXPECT_EQ(dfg::support::format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(dfg::support::format_bytes(std::size_t(218) << 20), "218.0 MiB");
  EXPECT_EQ(dfg::support::format_bytes(std::size_t(3) << 30), "3.0 GiB");
}

TEST(StringUtil, FormatFloatAlwaysHasDecimalMarker) {
  EXPECT_EQ(dfg::support::format_float(0.5), "0.5");
  EXPECT_EQ(dfg::support::format_float(2.0), "2.0");
  EXPECT_EQ(dfg::support::format_float(-3.0), "-3.0");
  // Round-trips through strtod.
  EXPECT_EQ(std::stod(dfg::support::format_float(1e-7)), 1e-7);
}

TEST(Stopwatch, MeasuresNonNegativeMonotonicTime) {
  dfg::support::Stopwatch watch;
  const double t1 = watch.seconds();
  const double t2 = watch.seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  watch.reset();
  EXPECT_GE(watch.seconds(), 0.0);
}

TEST(Errors, DeviceOutOfMemoryCarriesContext) {
  const dfg::DeviceOutOfMemory err("gpu0", 100, 50, 120);
  EXPECT_EQ(err.device(), "gpu0");
  EXPECT_EQ(err.requested_bytes(), 100u);
  EXPECT_EQ(err.in_use_bytes(), 50u);
  EXPECT_EQ(err.capacity_bytes(), 120u);
  EXPECT_NE(std::string(err.what()).find("gpu0"), std::string::npos);
}

TEST(Errors, ParseErrorCarriesPosition) {
  const dfg::ParseError err("bad token", 3, 14);
  EXPECT_EQ(err.line(), 3);
  EXPECT_EQ(err.column(), 14);
  EXPECT_NE(std::string(err.what()).find("line 3"), std::string::npos);
}

}  // namespace
