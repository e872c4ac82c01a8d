#include "obs/serve_report.hpp"

#include <algorithm>
#include <cmath>

namespace zi {

double RequestReport::total_seconds() const {
  return queue_seconds + prefill_seconds + decode_seconds;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double clamped = std::min(100.0, std::max(0.0, p));
  // Nearest-rank: ceil(p/100 * N), 1-indexed.
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

ServeReport aggregate_requests(const std::vector<RequestReport>& requests,
                               double elapsed_seconds) {
  ServeReport agg;
  agg.requests = static_cast<std::int64_t>(requests.size());
  agg.elapsed_seconds = elapsed_seconds;
  std::vector<double> latencies;
  latencies.reserve(requests.size());
  for (const RequestReport& r : requests) {
    agg.tokens_in += r.tokens_in;
    agg.tokens_out += r.tokens_out;
    latencies.push_back(r.total_seconds());
  }
  agg.p50_latency_seconds = percentile(latencies, 50.0);
  agg.p99_latency_seconds = percentile(latencies, 99.0);
  agg.tokens_per_second =
      elapsed_seconds > 0.0
          ? static_cast<double>(agg.tokens_out) / elapsed_seconds
          : 0.0;
  return agg;
}

}  // namespace zi
