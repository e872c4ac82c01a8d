#include "common/env.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace zi {

namespace {

[[noreturn]] void throw_invalid(const char* name, const char* value,
                                const char* expected) {
  throw Error(std::string(name) + "='" + value + "' is not " + expected +
              " (the whole value must parse; no suffixes or units)");
}

}  // namespace

double getenv_f64(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  double out = 0.0;
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, out);
  // from_chars accepts 'inf'/'nan'; a NaN here would make every deadline
  // comparison silently false — exactly the misconfiguration class this
  // helper exists to reject.
  if (ec != std::errc() || ptr != end || !std::isfinite(out)) {
    throw_invalid(name, v, "a finite number");
  }
  return out;
}

std::uint64_t getenv_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::uint64_t out = 0;
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, out, 10);
  if (ec != std::errc() || ptr != end) {
    throw_invalid(name, v, "a valid base-10 unsigned integer");
  }
  return out;
}

int getenv_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::uint64_t out = getenv_u64(name, 0);
  if (out > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    throw Error(std::string(name) + "='" + v + "' exceeds INT_MAX (" +
                std::to_string(std::numeric_limits<int>::max()) + ")");
  }
  return static_cast<int>(out);
}

bool getenv_bool(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::string s(v);
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (s == "1" || s == "true" || s == "on" || s == "yes") return true;
  if (s == "0" || s == "false" || s == "off" || s == "no") return false;
  throw_invalid(name, v, "a valid boolean (0/1/true/false/on/off/yes/no)");
}

}  // namespace zi
