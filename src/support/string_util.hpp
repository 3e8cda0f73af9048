// Small string helpers shared by the source printer, script dump and
// diagnostics. Kept deliberately tiny; anything heavier belongs in the
// module that needs it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dfg::support {

/// Joins parts with the given separator ("a, b, c" style).
std::string join(const std::vector<std::string>& parts,
                 const std::string& separator);

/// Formats a byte count with a binary-unit suffix ("218.0 MiB").
std::string format_bytes(std::size_t bytes);

/// Formats a floating point literal so it round-trips and always carries a
/// decimal point or exponent (matching source-level constant insertion in
/// generated kernel code).
std::string format_float(double value);

/// Escapes text for a JSON string literal: quote, backslash and control
/// characters. Shared by every JSON exporter (metrics snapshot, span and
/// device traces).
std::string json_escape(const std::string& text);

}  // namespace dfg::support
