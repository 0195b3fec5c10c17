#include "support/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "support/check.hpp"

namespace treemem {

std::optional<std::string> env_string(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return std::nullopt;
  }
  return std::string(value);
}

long long parse_int_strict(const std::string& text, long long min_value,
                           long long max_value, const std::string& what) {
  // Reject anything strtoll would quietly tolerate: leading whitespace,
  // '+' signs, hex prefixes, partial parses. Only [-]digits is an integer.
  std::size_t start = 0;
  if (!text.empty() && text[0] == '-') {
    start = 1;
  }
  bool all_digits = start < text.size();
  for (std::size_t i = start; i < text.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
      all_digits = false;
      break;
    }
  }
  TM_CHECK(all_digits,
           what << ": '" << text << "' is not an integer");
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  TM_CHECK(errno != ERANGE && *end == '\0',
           what << ": '" << text << "' is not a representable integer");
  TM_CHECK(parsed >= min_value && parsed <= max_value,
           what << ": " << parsed << " is outside [" << min_value << ", "
                << max_value << "]");
  return parsed;
}

std::optional<long long> env_int(const char* name, long long min_value,
                                 long long max_value) {
  const std::optional<std::string> raw = env_string(name);
  if (!raw) {
    return std::nullopt;
  }
  return parse_int_strict(*raw, min_value, max_value, name);
}

std::optional<double> env_double(const char* name, double min_value,
                                 double max_value) {
  const std::optional<std::string> raw = env_string(name);
  if (!raw) {
    return std::nullopt;
  }
  // Same strictness as parse_int_strict: plain decimal forms only —
  // [-]digits[.digits][e±exp]. strtod alone would also take leading
  // whitespace, '+', hex floats and inf/nan; reject those up front so the
  // two parsers share one documented contract.
  const std::string& text = *raw;
  std::size_t i = text[0] == '-' ? 1 : 0;
  bool well_formed = i < text.size() &&
                     (std::isdigit(static_cast<unsigned char>(text[i])) ||
                      text[i] == '.');
  for (std::size_t k = i; well_formed && k < text.size(); ++k) {
    const char c = text[k];
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.' &&
        c != 'e' && c != 'E' && c != '-' && c != '+') {
      well_formed = false;
    }
  }
  TM_CHECK(well_formed, name << ": '" << text << "' is not a number");
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  TM_CHECK(errno != ERANGE && *end == '\0',
           name << ": '" << text << "' is not a number");
  TM_CHECK(parsed >= min_value && parsed <= max_value,
           name << ": " << parsed << " is outside [" << min_value << ", "
                << max_value << "]");
  return parsed;
}

}  // namespace treemem
