// The one strictly-parsed TREEMEM_* environment layer.
//
// Every runtime knob of the library reads its override through this file:
// TREEMEM_THREADS (support/parallel_for.hpp), TREEMEM_TRACE
// (obs/trace.hpp), and the bench harness's TREEMEM_SCALE / TREEMEM_OUT
// (bench/bench_common.hpp); the solver's options are set in code only.
// Parsing is strict with *errors*: a malformed value throws treemem::Error
// naming the variable and the offending text, so a typo surfaces at
// startup instead of silently running the experiment with a different
// configuration. An unset or empty variable is simply "no override"
// (std::nullopt).
#pragma once

#include <optional>
#include <string>

namespace treemem {

/// Raw value of the variable; nullopt when unset or set to "".
std::optional<std::string> env_string(const char* name);

/// Parses `text` as a decimal integer in [min_value, max_value]. The whole
/// string must be consumed (no sign prefixes beyond '-', no trailing
/// characters, no leading whitespace). Throws Error mentioning `what` on
/// malformed or out-of-range input.
long long parse_int_strict(const std::string& text, long long min_value,
                           long long max_value, const std::string& what);

/// Integer environment variable in [min_value, max_value]; nullopt when
/// unset/empty, Error (naming the variable) when malformed or out of range.
std::optional<long long> env_int(const char* name, long long min_value,
                                 long long max_value);

/// Floating-point environment variable in [min_value, max_value]; same
/// unset/malformed contract as env_int.
std::optional<double> env_double(const char* name, double min_value,
                                 double max_value);

}  // namespace treemem
