// Centralized DFGEN_* environment-variable parsing.
//
// Every knob the benches and engines read from the environment goes
// through these typed accessors instead of ad-hoc std::getenv calls, so
// (a) parsing is uniform (one definition of what "truthy" means, one
// bounds check), (b) the full set of recognised variables is enumerable,
// and (c) a typo like DFGEN_FALBACK=1 is caught: warn_unknown_variables()
// scans the process environment for DFGEN_-prefixed names that no accessor
// has registered and reports them instead of silently ignoring them.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace dfg::support::env {

/// Raw lookup; registers `name` as a known variable.
std::optional<std::string> raw(const std::string& name);

/// Typed accessors: return `fallback` when the variable is unset or fails
/// to parse (a malformed value is reported to stderr, never fatal).
int get_int(const std::string& name, int fallback);
/// Truthy = non-zero integer ("1", "2"); "0", "" and unset are false.
bool get_flag(const std::string& name, bool fallback = false);
std::string get_string(const std::string& name, std::string fallback);

/// DFGEN_-prefixed variables present in the process environment that no
/// accessor has registered (likely typos).
std::vector<std::string> unknown_variables();

/// The registered variable closest to `name` by edit distance, when close
/// enough to be a plausible typo (distance ≤ 3); empty string otherwise.
/// This is what turns "unknown DFGEN_TRACE_DRI" into an actionable
/// "did you mean DFGEN_TRACE_DIR?".
std::string suggestion_for(const std::string& name);

/// Prints one warning line per unknown DFGEN_* variable to stderr, with a
/// did-you-mean suggestion when a registered name is a near miss.
/// Returns the number of unknowns. Benches call this once at startup.
std::size_t warn_unknown_variables();

/// Pre-registers the canonical variable set so unknown_variables() is
/// meaningful even before any accessor ran. Called by the accessors'
/// registry on first use.
void register_known(const std::string& name);

}  // namespace dfg::support::env
