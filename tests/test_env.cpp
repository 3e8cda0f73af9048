// Centralized DFGEN_* environment parsing: typed accessors, malformed
// values falling back instead of misbehaving, and typo detection via the
// unknown-variable scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "support/env.hpp"

namespace {

using namespace dfg::support;

struct ScopedEnv {
  std::string name;
  ScopedEnv(const std::string& n, const std::string& value) : name(n) {
    ::setenv(name.c_str(), value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

TEST(Env, TypedAccessorsParseAndFallBack) {
  {
    ScopedEnv runs("DFGEN_RUNS", "7");
    EXPECT_EQ(env::get_int("DFGEN_RUNS", 1), 7);
  }
  EXPECT_EQ(env::get_int("DFGEN_RUNS", 1), 1);  // unset -> fallback

  {
    ScopedEnv runs("DFGEN_RUNS", "banana");
    EXPECT_EQ(env::get_int("DFGEN_RUNS", 1), 1)
        << "malformed values fall back, never crash";
  }
  {
    ScopedEnv flag("DFGEN_FALLBACK", "1");
    EXPECT_TRUE(env::get_flag("DFGEN_FALLBACK"));
  }
  {
    ScopedEnv flag("DFGEN_FALLBACK", "0");
    EXPECT_FALSE(env::get_flag("DFGEN_FALLBACK"));
  }
  {
    ScopedEnv dir("DFGEN_TRACE_DIR", "/tmp/t");
    EXPECT_EQ(env::get_string("DFGEN_TRACE_DIR", ""), "/tmp/t");
  }
}

TEST(Env, UnknownVariablesAreReported) {
  ScopedEnv typo("DFGEN_FALBACK", "1");  // a plausible typo
  const auto unknowns = env::unknown_variables();
  EXPECT_NE(std::find(unknowns.begin(), unknowns.end(), "DFGEN_FALBACK"),
            unknowns.end());
}

TEST(Env, CanonicalVariablesAreKnown) {
  // The canonical set is pre-registered: none of these may be flagged.
  ScopedEnv a("DFGEN_RUNS", "1");
  ScopedEnv b("DFGEN_FALLBACK", "0");
  ScopedEnv c("DFGEN_SMOKE", "1");
  ScopedEnv d("DFGEN_METRICS_OUT", "/tmp/m.json");
  ScopedEnv e("DFGEN_TRACE_DIR", "/tmp/t");
  const auto unknowns = env::unknown_variables();
  for (const char* name : {"DFGEN_RUNS", "DFGEN_FALLBACK", "DFGEN_SMOKE",
                           "DFGEN_METRICS_OUT", "DFGEN_TRACE_DIR"}) {
    EXPECT_EQ(std::find(unknowns.begin(), unknowns.end(), name),
              unknowns.end())
        << name << " must be pre-registered";
  }
}

TEST(Env, BackendVariablesAreKnown) {
  ScopedEnv a("DFGEN_BACKEND", "jit");
  ScopedEnv b("DFGEN_JIT_CC", "cc");
  const auto unknowns = env::unknown_variables();
  for (const char* name : {"DFGEN_BACKEND", "DFGEN_JIT_CC"}) {
    EXPECT_EQ(std::find(unknowns.begin(), unknowns.end(), name),
              unknowns.end())
        << name << " must be pre-registered";
  }
}

TEST(Env, RemovedKnobsAreReportedAsUnknown) {
  // These settings no longer exist (their option fields or built-in
  // defaults decide): a user still exporting one must be warned, not
  // silently ignored.
  const char* removed[] = {
      "DFGEN_RESIDENT_POOL",       "DFGEN_NO_RESIDENT_POOL",
      "DFGEN_SERVICE_RESIDENT_POOL", "DFGEN_MEMO",
      "DFGEN_NO_MEMO",             "DFGEN_MEMO_CAP",
      "DFGEN_SERVICE_QUEUE_DEPTH", "DFGEN_SERVICE_QUOTA_MB",
      "DFGEN_SERVICE_BACKLOG_MB",  "DFGEN_SERVICE_COALESCE",
      "DFGEN_RESIDENT_WATERMARK",  "DFGEN_JIT_CACHE_CAP",
      "DFGEN_NO_PROGRAM_CACHE",    "DFGEN_NO_VM_OPTIMIZER",
      "DFGEN_CHECKPOINT_DIR",      "DFGEN_DEADLINE_FACTOR"};
  for (const char* name : removed) ::setenv(name, "1", 1);
  const auto unknowns = env::unknown_variables();
  for (const char* name : removed) ::unsetenv(name);
  for (const char* name : removed) {
    EXPECT_NE(std::find(unknowns.begin(), unknowns.end(), name),
              unknowns.end())
        << name << " must be reported as unknown";
  }
}

TEST(Env, BackendTypoSuggestionsNameTheNearestKnob) {
  EXPECT_EQ(env::suggestion_for("DFGEN_BACKEN"), "DFGEN_BACKEND");
  EXPECT_EQ(env::suggestion_for("DFGEN_JIT_CCC"), "DFGEN_JIT_CC");
}

TEST(Env, TypoSuggestionsNameTheNearestKnob) {
  EXPECT_EQ(env::suggestion_for("DFGEN_TRACE_DRI"), "DFGEN_TRACE_DIR");
  EXPECT_EQ(env::suggestion_for("DFGEN_METRIC_OUT"), "DFGEN_METRICS_OUT");
  EXPECT_EQ(env::suggestion_for("DFGEN_FUZZ_SEEDS"), "DFGEN_FUZZ_SEED");
  EXPECT_EQ(env::suggestion_for("DFGEN_COMPLETELY_UNRELATED_NAME"), "")
      << "nothing within edit distance 3 -> no suggestion";

  // The warn path reports the typo (with its suggestion) instead of
  // silently ignoring the knob.
  ScopedEnv typo("DFGEN_TRACE_DRI", "/tmp/t");
  EXPECT_GE(env::warn_unknown_variables(), 1u);
}

}  // namespace
