// Per-request latency accounting for the serving engine (src/serve).
//
// One RequestReport per completed request, emitted as one JSONL line (the
// serving analogue of StepReport, but request-scoped: a request's life is
// queue -> prefill -> decode, not step-scoped compute). A ServeReport
// aggregates a run: request count, token totals, p50/p99 end-to-end
// latency, and throughput. Both are declared once as field lists
// (obs/report.hpp) and share StepReport's JSON-line writer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/report.hpp"

namespace zi {

// clang-format off
#define ZI_REQUEST_REPORT_FIELDS(X)                                            \
  X(request_id, std::int64_t, 0, kValue, "Request id as submitted.")           \
  X(tokens_in, std::int64_t, 0, kValue, "Prompt length in tokens.")            \
  X(tokens_out, std::int64_t, 0, kValue, "Generated tokens.")                  \
  X(queue_seconds, double, 0.0, kValue, "Arrival to admission.")               \
  X(prefill_seconds, double, 0.0, kValue, "Admission to first token.")         \
  X(decode_seconds, double, 0.0, kValue, "First token to completion.")         \
  X(total_seconds, double, 0.0, kDerived,                                      \
    "End-to-end latency: queue + prefill + decode.")

#define ZI_SERVE_REPORT_FIELDS(X)                                              \
  X(requests, std::int64_t, 0, kValue, "Completed requests.")                  \
  X(tokens_in, std::int64_t, 0, kValue, "Prompt tokens over all requests.")    \
  X(tokens_out, std::int64_t, 0, kValue,                                       \
    "Generated tokens over all requests.")                                     \
  X(p50_latency_seconds, double, 0.0, kValue,                                  \
    "Nearest-rank p50 end-to-end request latency.")                            \
  X(p99_latency_seconds, double, 0.0, kValue,                                  \
    "Nearest-rank p99 end-to-end request latency.")                            \
  X(elapsed_seconds, double, 0.0, kValue, "`run()` wall time.")                \
  X(tokens_per_second, double, 0.0, kValue,                                    \
    "`tokens_out / elapsed_seconds` (0 when elapsed is 0).")
// clang-format on

/// Lifecycle accounting for one served request.
struct RequestReport {
  ZI_REPORT_BODY(ZI_REQUEST_REPORT_FIELDS)
};

/// Aggregate over one serving run.
struct ServeReport {
  ZI_REPORT_BODY(ZI_SERVE_REPORT_FIELDS)
};

/// Nearest-rank percentile of `values` for p in [0, 100]; 0 when empty.
/// Takes a copy because it sorts.
double percentile(std::vector<double> values, double p);

/// Fold per-request reports into the run aggregate.
ServeReport aggregate_requests(const std::vector<RequestReport>& requests,
                               double elapsed_seconds);

}  // namespace zi
