#include "obs/metrics.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "common/error.hpp"  // header-only: no link dependency on zi_common

namespace zi {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

namespace {
template <FieldKind K, typename T>
void subtract_if_delta(T& value, const T& base) {
  if constexpr (K == FieldKind::kDelta) value -= base;
}
}  // namespace

StepReport subtract_deltas(StepReport cumulative, const StepReport& base) {
#define ZI_SUBTRACT_DELTA(name, type, init, kind, doc) \
  subtract_if_delta<FieldKind::kind>(cumulative.name, base.name);
  ZI_STEP_REPORT_FIELDS(ZI_SUBTRACT_DELTA)
#undef ZI_SUBTRACT_DELTA
  return cumulative;
}

struct MetricsSink::Impl {
  std::mutex mutex;
  std::ofstream out;
};

MetricsSink::Impl& MetricsSink::impl() const {
  static Impl* impl = new Impl;  // leaked: writes may race static teardown
  return *impl;
}

MetricsSink& MetricsSink::instance() {
  static MetricsSink* sink = new MetricsSink;
  return *sink;
}

void MetricsSink::open(const std::string& path) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  im.out.close();
  im.out.clear();
  im.out.open(path, std::ios::trunc);
  if (!im.out.good()) {
    detail::g_metrics_enabled.store(false, std::memory_order_relaxed);
    throw Error("metrics sink: cannot open '" + path + "' for writing");
  }
  detail::g_metrics_enabled.store(true, std::memory_order_relaxed);
}

void MetricsSink::close() {
  detail::g_metrics_enabled.store(false, std::memory_order_relaxed);
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  im.out.flush();
  im.out.close();
}

void MetricsSink::init_from_env() {
  const char* path = std::getenv("ZI_METRICS");
  if (path == nullptr || path[0] == '\0') return;
  open(path);
}

void MetricsSink::write(const StepReport& report) {
  const std::string line = report.to_json_line();
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  if (!im.out.is_open()) return;
  im.out << line << '\n';
  im.out.flush();  // step granularity: durability beats buffering
}

namespace {
/// Static-init activation: ZI_METRICS=<path> arms the sink before main().
/// A path that cannot be opened ends the process: a run asked for metrics
/// must not go on without them.
struct MetricsEnvInit {
  MetricsEnvInit() {
    try {
      MetricsSink::instance().init_from_env();
    } catch (const Error& e) {
      std::fprintf(stderr, "[zi] ZI_METRICS: %s\n", e.what());
      std::exit(1);
    }
  }
};
MetricsEnvInit g_metrics_env_init;
}  // namespace

}  // namespace zi
