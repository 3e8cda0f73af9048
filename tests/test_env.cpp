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
    ScopedEnv factor("DFGEN_DEADLINE_FACTOR", "12.5");
    EXPECT_DOUBLE_EQ(env::get_double("DFGEN_DEADLINE_FACTOR", 8.0), 12.5);
  }
  {
    ScopedEnv factor("DFGEN_DEADLINE_FACTOR", "banana");
    EXPECT_DOUBLE_EQ(env::get_double("DFGEN_DEADLINE_FACTOR", 8.0), 8.0)
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
    ScopedEnv dir("DFGEN_CHECKPOINT_DIR", "/tmp/j");
    EXPECT_EQ(env::get_string("DFGEN_CHECKPOINT_DIR", ""), "/tmp/j");
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
  ScopedEnv c("DFGEN_DEADLINE_FACTOR", "8");
  ScopedEnv d("DFGEN_CHECKPOINT_DIR", "/tmp/j");
  ScopedEnv e("DFGEN_TRACE_DIR", "/tmp/t");
  ScopedEnv f("DFGEN_SERVICE_QUEUE_DEPTH", "16");
  ScopedEnv g("DFGEN_SERVICE_QUOTA_MB", "64");
  ScopedEnv h("DFGEN_SERVICE_BACKLOG_MB", "256");
  ScopedEnv i("DFGEN_SERVICE_COALESCE", "1");
  const auto unknowns = env::unknown_variables();
  for (const char* name :
       {"DFGEN_RUNS", "DFGEN_FALLBACK", "DFGEN_DEADLINE_FACTOR",
        "DFGEN_CHECKPOINT_DIR", "DFGEN_TRACE_DIR",
        "DFGEN_SERVICE_QUEUE_DEPTH", "DFGEN_SERVICE_QUOTA_MB",
        "DFGEN_SERVICE_BACKLOG_MB", "DFGEN_SERVICE_COALESCE"}) {
    EXPECT_EQ(std::find(unknowns.begin(), unknowns.end(), name),
              unknowns.end())
        << name << " must be pre-registered";
  }
}

TEST(Env, BackendVariablesAreKnown) {
  ScopedEnv a("DFGEN_BACKEND", "jit");
  ScopedEnv b("DFGEN_JIT_CC", "cc");
  ScopedEnv c("DFGEN_JIT_CACHE_CAP", "8");
  const auto unknowns = env::unknown_variables();
  for (const char* name :
       {"DFGEN_BACKEND", "DFGEN_JIT_CC", "DFGEN_JIT_CACHE_CAP"}) {
    EXPECT_EQ(std::find(unknowns.begin(), unknowns.end(), name),
              unknowns.end())
        << name << " must be pre-registered";
  }
}

TEST(Env, MemoVariablesAreKnown) {
  ScopedEnv a("DFGEN_MEMO", "1");
  ScopedEnv b("DFGEN_NO_MEMO", "1");
  ScopedEnv c("DFGEN_MEMO_CAP", "64");
  const auto unknowns = env::unknown_variables();
  for (const char* name :
       {"DFGEN_MEMO", "DFGEN_NO_MEMO", "DFGEN_MEMO_CAP"}) {
    EXPECT_EQ(std::find(unknowns.begin(), unknowns.end(), name),
              unknowns.end())
        << name << " must be pre-registered";
  }
}

TEST(Env, MemoTypoSuggestionsNameTheNearestKnob) {
  EXPECT_EQ(env::suggestion_for("DFGEN_MEMMO"), "DFGEN_MEMO");
  EXPECT_EQ(env::suggestion_for("DFGEN_NO_MEM"), "DFGEN_NO_MEMO");
  EXPECT_EQ(env::suggestion_for("DFGEN_MEMO_CAPS"), "DFGEN_MEMO_CAP");
}

TEST(Env, BackendTypoSuggestionsNameTheNearestKnob) {
  EXPECT_EQ(env::suggestion_for("DFGEN_BACKEN"), "DFGEN_BACKEND");
  EXPECT_EQ(env::suggestion_for("DFGEN_JIT_CCC"), "DFGEN_JIT_CC");
  EXPECT_EQ(env::suggestion_for("DFGEN_JIT_CACHECAP"),
            "DFGEN_JIT_CACHE_CAP");
}

TEST(Env, TypoSuggestionsNameTheNearestKnob) {
  EXPECT_EQ(env::suggestion_for("DFGEN_SERVICE_QUEUE_DEPT"),
            "DFGEN_SERVICE_QUEUE_DEPTH");
  EXPECT_EQ(env::suggestion_for("DFGEN_SERVCE_QUOTA_MB"),
            "DFGEN_SERVICE_QUOTA_MB");
  EXPECT_EQ(env::suggestion_for("DFGEN_SERVICE_COALESCING"),
            "DFGEN_SERVICE_COALESCE");
  EXPECT_EQ(env::suggestion_for("DFGEN_COMPLETELY_UNRELATED_NAME"), "")
      << "nothing within edit distance 3 -> no suggestion";

  // The warn path reports the typo (with its suggestion) instead of
  // silently ignoring the knob.
  ScopedEnv typo("DFGEN_SERVICE_QUEUE_DEPT", "8");
  EXPECT_GE(env::warn_unknown_variables(), 1u);
}

}  // namespace
