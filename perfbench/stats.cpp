#include "stats.hpp"

#include <algorithm>

namespace perfbench {

std::optional<double> percentile(std::vector<double> values, int pct) {
  if (pct < 1 || pct > 99 || values.empty()) return std::nullopt;
  const std::size_t n = values.size();
  // Nearest rank: the k-th smallest sample, k = ceil(pct/100 * n).
  const std::size_t k = (static_cast<std::size_t>(pct) * n + 99) / 100;
  if (n - k < kMinTail) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k - 1),
                   values.end());
  return values[k - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Digest::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

}  // namespace perfbench
