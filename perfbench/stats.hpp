// Small statistics and hashing helpers shared by the workload runner and
// its tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile. A p90 needs
/// at least 100 samples, a p95 at least 200.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank percentile (`pct` in 1..99). Refuses (nullopt) when fewer
/// than kMinTail samples lie beyond the rank, so a tail figure is never
/// read off a handful of points.
std::optional<double> percentile(std::vector<double> values, int pct);

/// Median of `values` (mean of the middle pair for even sizes); 0 when
/// empty. For small per-run aggregates such as one value per setup.
double median(std::vector<double> values);

/// 64-bit FNV-1a over raw bytes: the run's fingerprint of a loss sequence
/// or of a set of token streams.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n);
  template <typename T>
  void add(std::span<const T> values) {
    add_bytes(values.data(), values.size_bytes());
  }
  template <typename T>
  void add_value(const T& v) {
    add_bytes(&v, sizeof(T));
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
