#include "support/env.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

extern "C" char** environ;

namespace dfg::support::env {

namespace {

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::set<std::string>& known_registry() {
  // Seeded with the canonical knob set so a variable is "known" even in a
  // process that never happens to read it (e.g. DFGEN_FUZZ_SEED in a
  // bench).
  static std::set<std::string> known = {
      "DFGEN_RUNS",
      "DFGEN_FALLBACK",
      "DFGEN_SMOKE",
      "DFGEN_TRACE_DIR",
      "DFGEN_BACKEND",
      "DFGEN_JIT_CC",
      "DFGEN_METRICS",
      "DFGEN_METRICS_OUT",
      "DFGEN_FUZZ_SEED",
      "DFGEN_FUZZ_ITERATIONS",
      "DFGEN_UPDATE_GOLDEN",
  };
  return known;
}

void report_malformed(const std::string& name, const char* value,
                      const char* wanted) {
  std::fprintf(stderr, "dfgen: ignoring %s='%s' (expected %s)\n",
               name.c_str(), value, wanted);
}

/// Classic two-row Levenshtein distance; the knob names are short enough
/// that quadratic cost is irrelevant.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

void register_known(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  known_registry().insert(name);
}

std::optional<std::string> raw(const std::string& name) {
  register_known(name);
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) return std::nullopt;
  return std::string(value);
}

int get_int(const std::string& name, int fallback) {
  const auto value = raw(name);
  if (!value) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0') {
    report_malformed(name, value->c_str(), "an integer");
    return fallback;
  }
  return static_cast<int>(parsed);
}

bool get_flag(const std::string& name, bool fallback) {
  const auto value = raw(name);
  if (!value) return fallback;
  if (value->empty()) return false;
  char* end = nullptr;
  const long parsed = std::strtol(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0') {
    report_malformed(name, value->c_str(), "0 or 1");
    return fallback;
  }
  return parsed != 0;
}

std::string get_string(const std::string& name, std::string fallback) {
  const auto value = raw(name);
  return value ? *value : std::move(fallback);
}

std::vector<std::string> unknown_variables() {
  std::vector<std::string> unknown;
  std::lock_guard<std::mutex> lock(registry_mutex());
  const auto& known = known_registry();
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const std::string pair(*entry);
    if (pair.rfind("DFGEN_", 0) != 0) continue;
    const std::size_t eq = pair.find('=');
    const std::string name = pair.substr(0, eq);
    if (known.find(name) == known.end()) unknown.push_back(name);
  }
  return unknown;
}

std::string suggestion_for(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::string best;
  std::size_t best_distance = 4;  // suggest only within distance 3
  for (const std::string& candidate : known_registry()) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

std::size_t warn_unknown_variables() {
  const std::vector<std::string> unknown = unknown_variables();
  for (const std::string& name : unknown) {
    const std::string suggestion = suggestion_for(name);
    if (suggestion.empty()) {
      std::fprintf(stderr,
                   "dfgen: unknown environment variable %s (DFGEN_ prefix is "
                   "reserved; is it misspelled?)\n",
                   name.c_str());
    } else {
      std::fprintf(stderr,
                   "dfgen: unknown environment variable %s (did you mean "
                   "%s?)\n",
                   name.c_str(), suggestion.c_str());
    }
  }
  return unknown.size();
}

}  // namespace dfg::support::env
