// Observability layer tests: Tracer ring buffers and Chrome trace-event
// export, MetricsSink JSONL step reports, env-var activation, and the
// acceptance criterion — a short ZeRO-3 + NVMe run must produce spans from
// all four layers (engine phase, coordinator gather/prefetch, AIO
// sub-request, collective) on named per-thread tracks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/coordinator.hpp"
#include "core/engine.hpp"
#include "model/gpt.hpp"
#include "obs/metrics.hpp"
#include "obs/serve_report.hpp"
#include "obs/trace.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

// Structural JSON check: strings/escapes honored, braces/brackets balanced,
// no trailing garbage. Enough to guarantee Perfetto/chrome://tracing can
// parse the document without pulling in a JSON library.
bool json_structurally_valid(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  bool seen_root = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        if (seen_root && stack.empty()) return false;  // trailing garbage
        seen_root = true;
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return seen_root && stack.empty() && !in_string;
}

// The key/value pairs of one flat JSON object line, in order (values are
// numbers or bools: no nesting, no commas inside a value).
std::vector<std::pair<std::string, std::string>> json_fields(
    const std::string& line) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 1;  // past '{'
  while (i < line.size() && line[i] == '"') {
    const std::size_t key_end = line.find('"', i + 1);
    const std::size_t value_end = line.find_first_of(",}", key_end + 2);
    out.emplace_back(line.substr(i + 1, key_end - i - 1),
                     line.substr(key_end + 2, value_end - key_end - 2));
    i = value_end + 1;
  }
  return out;
}

// The distinct value the round-trip and golden tests give field number i.
template <typename T>
T distinct_value(int i) {
  if constexpr (std::is_same_v<T, bool>) {
    return true;
  } else if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(i + 1) / 7;
  } else {
    return static_cast<T>((i + 1) * 1000003);
  }
}

#define ZI_TEST_SET(name, type, init, kind, doc) ZI_TEST_SET_##kind(name, type)
#define ZI_TEST_SET_kValue(name, type) r.name = distinct_value<type>(i++);
#define ZI_TEST_SET_kDelta(name, type) r.name = distinct_value<type>(i++);
#define ZI_TEST_SET_kDerived(name, type) ++i;
#define ZI_TEST_NAME(name, type, init, kind, doc) #name,

StepReport distinct_step_report() {
  StepReport r;
  int i = 0;
  ZI_STEP_REPORT_FIELDS(ZI_TEST_SET)
  return r;
}

RequestReport distinct_request_report() {
  RequestReport r;
  int i = 0;
  ZI_REQUEST_REPORT_FIELDS(ZI_TEST_SET)
  return r;
}

ServeReport distinct_serve_report() {
  ServeReport r;
  int i = 0;
  ZI_SERVE_REPORT_FIELDS(ZI_TEST_SET)
  return r;
}

// `report`'s JSON line carries exactly the declared keys, in declaration
// order, and every value parses back to the field's value.
template <typename Report>
void expect_round_trip(const Report& report,
                       const std::vector<std::string>& declared) {
  const std::string line = report.to_json_line();
  EXPECT_TRUE(json_structurally_valid(line)) << line;
  const auto fields = json_fields(line);
  std::vector<std::string> keys;
  for (const auto& kv : fields) keys.push_back(kv.first);
  ASSERT_EQ(keys, declared) << line;
  std::size_t i = 0;
  report.for_each_field([&](const char* name, auto value) {
    using T = decltype(value);
    const std::string& text = fields[i++].second;
    if constexpr (std::is_same_v<T, bool>) {
      EXPECT_EQ(text, value ? "true" : "false") << name;
    } else if constexpr (std::is_floating_point_v<T>) {
      EXPECT_NEAR(std::stod(text), value, 1e-8 * std::fabs(value)) << name;
    } else if constexpr (std::is_signed_v<T>) {
      EXPECT_EQ(std::stoll(text), value) << name;
    } else {
      EXPECT_EQ(std::stoull(text), value) << name;
    }
  });
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("zi_obs_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    Tracer::instance().set_enabled(false);
    Tracer::instance().reset();
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().set_output_path({});  // defang the atexit flush
    Tracer::instance().reset();
    MetricsSink::instance().close();
    ::unsetenv("ZI_TRACE");
    ::unsetenv("ZI_METRICS");
    fs::remove_all(dir_);
  }
  fs::path dir_;
};

GptConfig tiny_model() {
  GptConfig cfg;
  cfg.vocab = 32;
  cfg.seq = 8;
  cfg.hidden = 16;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.checkpoint_activations = false;
  return cfg;
}

TEST_F(ObsTest, FormatEventRendersLegacyStrings) {
  DataMovementEvent e;
  e.kind = DataMovementEvent::Kind::kGather;
  e.param = "m.a.w";
  e.tier = Placement::kNvme;
  e.for_backward = true;
  EXPECT_EQ(format_event(e), "allgather  m.a.w  <- NVMe  (for backward)");
  e.broadcast = true;
  e.for_backward = false;
  EXPECT_EQ(format_event(e), "broadcast  m.a.w  <- NVMe  (for forward)");
  e.kind = DataMovementEvent::Kind::kRelease;
  EXPECT_EQ(format_event(e), "release    m.a.w");
  e.kind = DataMovementEvent::Kind::kPrefetch;
  e.pinned_staging = true;
  EXPECT_EQ(format_event(e), "prefetch   m.a.w  (async, pinned buffer)");
  e.pinned_staging = false;
  EXPECT_EQ(format_event(e), "prefetch   m.a.w  (async, heap staging)");
  e.kind = DataMovementEvent::Kind::kReduceScatter;
  e.tier = Placement::kCpu;
  EXPECT_EQ(format_event(e), "reducescat m.a.w  -> grad shard on CPU");
}

TEST_F(ObsTest, DisabledMacrosRecordNothing) {
  ASSERT_FALSE(Tracer::enabled());
  const auto before = Tracer::instance().stats().events_recorded;
  ZI_TRACE_SPAN("test", "never");
  ZI_TRACE_INSTANT("test", "never");
  EXPECT_EQ(Tracer::instance().stats().events_recorded, before);
}

TEST_F(ObsTest, SpanAndInstantExportAsChromeTraceJson) {
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);
  Tracer::set_thread_name("main");
  {
    ZI_TRACE_SPAN("test", "outer", "\"k\":1");
    ZI_TRACE_INSTANT("test", "tick");
  }
  tracer.set_enabled(false);
  const std::string json = tracer.export_json();
  EXPECT_TRUE(json_structurally_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":1"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_GE(tracer.stats().events_recorded, 2u);
}

TEST_F(ObsTest, RingWrapOverwritesOldestAndCountsDrops) {
  Tracer& tracer = Tracer::instance();
  tracer.set_ring_capacity(8);
  tracer.set_enabled(true);
  // Fresh thread → fresh ring with the small capacity.
  std::thread t([&] {
    Tracer::set_thread_name("wrap");
    for (int i = 0; i < 100; ++i) {
      std::string name = "e";
      name += std::to_string(i);
      tracer.record_instant("test", std::move(name));
    }
  });
  t.join();
  tracer.set_enabled(false);
  const auto stats = tracer.stats();
  EXPECT_GE(stats.events_dropped, 92u);
  const std::string json = tracer.export_json();
  EXPECT_TRUE(json_structurally_valid(json)) << json;
  EXPECT_EQ(json.find("\"name\":\"e0\""), std::string::npos);  // overwritten
  EXPECT_NE(json.find("\"name\":\"e99\""), std::string::npos);  // newest kept
  tracer.set_ring_capacity(1 << 16);
}

// The acceptance criterion: a 3-step ZeRO-3 + NVMe run with tracing on
// yields a valid Chrome trace with spans from all four layers, one track
// per rank thread plus the AIO pool threads.
TEST_F(ObsTest, ZeroThreeNvmeRunTracesAllFourLayers) {
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);

  const GptConfig mc = tiny_model();
  EngineConfig cfg = preset_zero_infinity_nvme();
  cfg.nvme_dir = (dir_ / "trace").string();
  cfg.loss_scale.init_scale = 1024.0f;
  AioEngine aio;
  run_ranks(2, [&](Communicator& comm) {
    Gpt model(mc);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens(static_cast<std::size_t>(mc.seq), 1);
    std::vector<std::int32_t> targets(tokens.size(), 2);
    for (int s = 0; s < 3; ++s) engine.train_step(tokens, targets);
  });
  tracer.set_enabled(false);

  const std::string json = tracer.export_json();
  ASSERT_TRUE(json_structurally_valid(json));
  // All four instrumentation layers present…
  EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"coord\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"comm\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"aio\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"mem\""), std::string::npos);
  // …with the expected span names.
  EXPECT_NE(json.find("\"name\":\"step\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fwd\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"bwd\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"opt\""), std::string::npos);
  EXPECT_NE(json.find("gather:"), std::string::npos);
  EXPECT_NE(json.find("prefetch:"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"allgather\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"reduce_scatter\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"read\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"arena_alloc\""), std::string::npos);
  // One named track per rank thread plus the AIO workers.
  EXPECT_NE(json.find("\"name\":\"rank0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"aio0\""), std::string::npos);
  // write_json round-trips to disk.
  const std::string path = (dir_ / "trace.json").string();
  ASSERT_TRUE(tracer.write_json(path));
  EXPECT_GT(fs::file_size(path), 0u);
}

TEST_F(ObsTest, MetricsSinkWritesOneJsonLinePerStep) {
  const std::string path = (dir_ / "metrics.jsonl").string();
  MetricsSink::instance().open(path);
  ASSERT_TRUE(MetricsSink::enabled());

  const GptConfig mc = tiny_model();
  EngineConfig cfg = preset_zero_infinity_nvme();
  cfg.nvme_dir = (dir_ / "metrics").string();
  cfg.loss_scale.init_scale = 1024.0f;
  AioEngine aio;
  // Each kDelta field's source counter, cumulative after the last step.
  std::map<std::string, double> source;
  run_ranks(1, [&](Communicator& comm) {
    Gpt model(mc);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens(static_cast<std::size_t>(mc.seq), 1);
    std::vector<std::int32_t> targets(tokens.size(), 2);
    for (int s = 0; s < 3; ++s) engine.train_step(tokens, targets);

    const CommTraffic& t = comm.traffic();
    const AioEngine::Stats a = aio.stats();
    const ParamCoordinator::Stats& cs = engine.coordinator()->stats();
    const DataMover::Stats mv = engine.resources().mover().stats();
    auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    auto route = [&](Route r) { return n(mv.route(r).bytes); };
    auto queue = [&](TransferClass c) {
      return n(mv.sched.queue_ns[static_cast<std::size_t>(c)]) * 1e-9;
    };
    source = {
        {"fetch_seconds", cs.fetch_seconds},
        {"reduce_seconds", cs.reduce_seconds},
        {"allgather_bytes", n(t.allgather_bytes.load())},
        {"reduce_scatter_bytes", n(t.reduce_scatter_bytes.load())},
        {"broadcast_bytes", n(t.broadcast_bytes.load())},
        {"allreduce_bytes", n(t.allreduce_bytes.load())},
        {"collectives", n(t.collectives.load())},
        {"barriers", n(t.barriers.load())},
        {"aio_bytes_read", n(a.bytes_read)},
        {"aio_bytes_written", n(a.bytes_written)},
        {"aio_requests", n(a.requests)},
        {"aio_retries", n(a.retries)},
        {"fetches", n(cs.fetches)},
        {"releases", n(cs.releases)},
        {"prefetches_issued", n(cs.prefetches_issued)},
        {"prefetch_hits", n(cs.prefetch_hits)},
        {"prefetch_drops", n(cs.prefetch_drops)},
        {"grads_reduced", n(cs.grads_reduced)},
        {"move_gpu_fetch_bytes", route(Route::kGpuFetch)},
        {"move_gpu_spill_bytes", route(Route::kGpuSpill)},
        {"move_cpu_fetch_bytes", route(Route::kCpuFetch)},
        {"move_cpu_spill_bytes", route(Route::kCpuSpill)},
        {"move_nvme_fetch_bytes", route(Route::kNvmeFetch)},
        {"move_nvme_spill_bytes", route(Route::kNvmeSpill)},
        {"move_kv_fetch_bytes", route(Route::kKvFetch)},
        {"move_kv_spill_bytes", route(Route::kKvSpill)},
        {"move_transfers", n(mv.total_transfers())},
        {"move_wait_seconds", mv.total_seconds()},
        {"staged_pinned", n(mv.staged_pinned)},
        {"staged_heap", n(mv.staged_heap)},
        {"coalesced_transfers", n(mv.sched.coalesced_transfers)},
        {"sched_preemptions", n(mv.sched.preemptions)},
        {"sched_latency_wait_seconds", queue(TransferClass::kLatency)},
        {"sched_bulk_wait_seconds", queue(TransferClass::kBulk)},
    };
  });
  MetricsSink::instance().close();
  EXPECT_FALSE(MetricsSink::enabled());

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  std::map<std::string, double> sums;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(json_structurally_valid(line)) << line;
    for (const auto& [key, value] : json_fields(line)) {
      if (value != "true" && value != "false") sums[key] += std::stod(value);
    }
    EXPECT_NE(line.find("\"step\":" + std::to_string(lines)),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"step_seconds\":"), std::string::npos);
    EXPECT_NE(line.find("\"allgather_bytes\":"), std::string::npos);
    EXPECT_NE(line.find("\"aio_bytes_read\":"), std::string::npos);
    EXPECT_NE(line.find("\"prefetch_hit_rate\":"), std::string::npos);
    EXPECT_NE(line.find("\"gpu_peak\":"), std::string::npos);
  }
  EXPECT_EQ(lines, 3);  // one report per (step, rank)

  // The per-step deltas add up to each source counter's cumulative value:
  // exactly for counts and bytes, to the lines' %.9g rounding for seconds.
#define ZI_TEST_DELTA_SUM(name, type, init, kind, doc)                    \
  if constexpr (FieldKind::kind == FieldKind::kDelta) {                   \
    ASSERT_EQ(source.count(#name), 1u) << #name " has no source counter"; \
    if constexpr (std::is_floating_point_v<type>) {                       \
      EXPECT_NEAR(sums[#name], source[#name], 1e-6) << #name;             \
    } else {                                                              \
      EXPECT_EQ(sums[#name], source[#name]) << #name;                     \
    }                                                                     \
  }
  ZI_STEP_REPORT_FIELDS(ZI_TEST_DELTA_SUM)
#undef ZI_TEST_DELTA_SUM
  EXPECT_GT(sums["aio_bytes_read"], 0.0);
  EXPECT_GT(sums["move_nvme_fetch_bytes"], 0.0);
}

TEST_F(ObsTest, MetricsSinkOpenFailureThrowsAndStaysDisabled) {
  const std::string path = (dir_ / "missing_dir" / "metrics.jsonl").string();
  try {
    MetricsSink::instance().open(path);
    ADD_FAILURE() << "open() of a path under a missing directory returned";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(MetricsSink::enabled());
}

TEST_F(ObsTest, StepReportJsonLineIsSelfContained) {
  expect_round_trip(distinct_step_report(),
                    {ZI_STEP_REPORT_FIELDS(ZI_TEST_NAME)});
  expect_round_trip(distinct_request_report(),
                    {ZI_REQUEST_REPORT_FIELDS(ZI_TEST_NAME)});
  expect_round_trip(distinct_serve_report(),
                    {ZI_SERVE_REPORT_FIELDS(ZI_TEST_NAME)});
  // Defaults round-trip too (bools as false, straggler_rank as -1).
  expect_round_trip(StepReport{}, {ZI_STEP_REPORT_FIELDS(ZI_TEST_NAME)});
}

// Byte-exact lines for fixed values, captured from the hand-written
// serializers the field tables replaced: key names, key order and number
// formatting (%.9g, integers, true/false) stay as consumers parse them.
TEST_F(ObsTest, ReportJsonLinesMatchGolden) {
  const std::string step =
      R"({"step":1000003,"rank":2000006,"world":3000009,"loss":0.571428597,)"
      R"("skipped":true,"step_seconds":0.857142857,"fwd_seconds":1,)"
      R"("bwd_seconds":1.14285714,"opt_seconds":1.28571429,)"
      R"("fetch_seconds":1.42857143,"reduce_seconds":1.57142857,)"
      R"("allgather_bytes":12000036,"reduce_scatter_bytes":13000039,)"
      R"("broadcast_bytes":14000042,"allreduce_bytes":15000045,)"
      R"("collectives":16000048,"barriers":17000051,"aio_bytes_read":18000054,)"
      R"("aio_bytes_written":19000057,"aio_requests":20000060,)"
      R"("aio_retries":21000063,"fetches":22000066,"releases":23000069,)"
      R"("prefetches_issued":24000072,"prefetch_hits":25000075,)"
      R"("prefetch_drops":26000078,"prefetch_hit_rate":3.85714286,)"
      R"("grads_reduced":28000084,"move_gpu_fetch_bytes":29000087,)"
      R"("move_gpu_spill_bytes":30000090,"move_cpu_fetch_bytes":31000093,)"
      R"("move_cpu_spill_bytes":32000096,"move_nvme_fetch_bytes":33000099,)"
      R"("move_nvme_spill_bytes":34000102,"move_kv_fetch_bytes":35000105,)"
      R"("move_kv_spill_bytes":36000108,"move_transfers":37000111,)"
      R"("move_wait_seconds":5.42857143,"staged_pinned":39000117,)"
      R"("staged_heap":40000120,"coalesced_transfers":41000123,)"
      R"("coalesce_ratio":6,"sched_preemptions":43000129,)"
      R"("sched_latency_wait_seconds":6.28571429,)"
      R"("sched_bulk_wait_seconds":6.42857143,"gpu_used":46000138,)"
      R"("gpu_peak":47000141,"cpu_used":48000144,"cpu_peak":49000147,)"
      R"("nvme_used":50000150,"nvme_peak":51000153,"arena_peak":52000156,)"
      R"("pinned_blocked":53000159,"comm_aborts":54000162,)"
      R"("elastic_restarts":55000165,"heartbeat_max_age_ms":8,)"
      R"("step_ewma_ms":8.14285714,"straggler_rank":58000174})";
  const std::string request =
      R"({"request_id":1000003,"tokens_in":2000006,"tokens_out":3000009,)"
      R"("queue_seconds":0.571428571,"prefill_seconds":0.714285714,)"
      R"("decode_seconds":0.857142857,"total_seconds":2.14285714})";
  const std::string serve =
      R"({"requests":1000003,"tokens_in":2000006,"tokens_out":3000009,)"
      R"("p50_latency_seconds":0.571428571,"p99_latency_seconds":0.714285714,)"
      R"("elapsed_seconds":0.857142857,"tokens_per_second":1})";
  EXPECT_EQ(distinct_step_report().to_json_line(), step);
  EXPECT_EQ(distinct_request_report().to_json_line(), request);
  EXPECT_EQ(distinct_serve_report().to_json_line(), serve);
}

TEST_F(ObsTest, EnvVarsActivateTracerAndMetrics) {
  const std::string tpath = (dir_ / "env_trace.json").string();
  const std::string mpath = (dir_ / "env_metrics.jsonl").string();
  ::setenv("ZI_TRACE", tpath.c_str(), 1);
  ::setenv("ZI_METRICS", mpath.c_str(), 1);
  Tracer::instance().init_from_env();
  MetricsSink::instance().init_from_env();
  EXPECT_TRUE(Tracer::enabled());
  EXPECT_TRUE(MetricsSink::enabled());

  ZI_TRACE_INSTANT("test", "env");
  Tracer::instance().flush();
  ASSERT_TRUE(fs::exists(tpath));
  std::ifstream in(tpath);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(json_structurally_valid(ss.str()));
  EXPECT_NE(ss.str().find("\"name\":\"env\""), std::string::npos);

  StepReport r;
  r.step = 1;
  MetricsSink::instance().write(r);
  MetricsSink::instance().close();
  ASSERT_TRUE(fs::exists(mpath));
  EXPECT_GT(fs::file_size(mpath), 0u);
}

}  // namespace
}  // namespace zi
