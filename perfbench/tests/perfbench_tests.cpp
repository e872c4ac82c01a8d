// The benchmark's own tests: inputs are a pure function of the seed, the
// two training placements produce the same loss sequence, the two serving
// placements and traffic shapes produce the same tokens, and the percentile
// helper refuses thin tails.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests
#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::filesystem::path work_dir() {
  return std::filesystem::current_path() / "perfbench-test-work";
}

RunOptions short_run(Workload w, std::uint64_t seed) {
  RunOptions opt;
  opt.workload = w;
  opt.seed = seed;
  opt.seconds = 0;
  opt.min_setups = 1;
  opt.timed_steps = 6;
  opt.requests = 12;
  opt.work_dir = work_dir();
  return opt;
}

TEST(Inputs, ArePureFunctionsOfTheSeed) {
  EXPECT_EQ(make_corpus(7), make_corpus(7));
  EXPECT_NE(make_corpus(7), make_corpus(8));
  EXPECT_EQ(make_arrivals(7, 1, 50, kPoissonRate),
            make_arrivals(7, 1, 50, kPoissonRate));
  EXPECT_NE(make_arrivals(7, 1, 50, kPoissonRate),
            make_arrivals(8, 1, 50, kPoissonRate));
  EXPECT_NE(make_arrivals(7, 1, 50, kPoissonRate),
            make_arrivals(7, 2, 50, kPoissonRate));
  for (std::int64_t id = 0; id < 20; ++id) {
    EXPECT_EQ(make_prompt(7, id), make_prompt(7, id));
  }
  EXPECT_NE(make_prompt(7, 0), make_prompt(8, 0));

  for (Workload w : {Workload::kServeNvmeBatch, Workload::kServeGpuPoisson}) {
    const auto a = make_requests(w, 7, 30);
    const auto b = make_requests(w, 7, 30);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].prompt, b[i].prompt);
      EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    }
  }
}

TEST(Inputs, StayInsideTheWorkloadShape) {
  const auto vocab = serve_model().vocab;
  for (std::int64_t id = 0; id < 200; ++id) {
    const auto p = make_prompt(3, id);
    EXPECT_GE(static_cast<int>(p.size()), kPromptMin);
    EXPECT_LE(static_cast<int>(p.size()), kPromptMax);
    for (std::int32_t t : p) {
      EXPECT_GE(t, 0);
      EXPECT_LT(t, vocab);
    }
  }
  const auto t = make_arrivals(3, 0, 140, kPoissonRate);
  EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
  EXPECT_GE(t.front(), 0.0);
  EXPECT_LT(t.back(), 140 / kPoissonRate);
  for (const auto& r : make_requests(Workload::kServeNvmeBatch, 3, 10)) {
    EXPECT_EQ(r.arrival_seconds, 0.0);  // closed loop: all queued at t=0
  }
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  auto ramp = [](int n) {
    std::vector<double> v(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = n - i;
    return v;
  };
  EXPECT_FALSE(percentile(ramp(99), 90).has_value());
  ASSERT_TRUE(percentile(ramp(100), 90).has_value());
  EXPECT_EQ(*percentile(ramp(100), 90), 90.0);
  EXPECT_FALSE(percentile(ramp(199), 95).has_value());
  ASSERT_TRUE(percentile(ramp(200), 95).has_value());
  EXPECT_EQ(*percentile(ramp(200), 95), 190.0);
  EXPECT_FALSE(percentile(ramp(19), 50).has_value());
  EXPECT_EQ(*percentile(ramp(20), 50), 10.0);
  EXPECT_FALSE(percentile({}, 50).has_value());
}

TEST(Digest, SeparatesOrderAndContent) {
  Digest a, b, c;
  const std::vector<float> x = {1.0f, 2.0f}, y = {2.0f, 1.0f};
  a.add(std::span<const float>(x));
  b.add(std::span<const float>(x));
  c.add(std::span<const float>(y));
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
}

// The strategy-exactness invariant: placement never changes arithmetic.
TEST(Exactness, TrainGpuAndTrainNvmeLossDigestsMatch) {
  const RunResult gpu = run_workload(short_run(Workload::kTrainGpu, 11));
  const RunResult nvme = run_workload(short_run(Workload::kTrainNvme, 11));
  ASSERT_TRUE(gpu.correct) << (gpu.errors.empty() ? "" : gpu.errors[0]);
  ASSERT_TRUE(nvme.correct) << (nvme.errors.empty() ? "" : nvme.errors[0]);
  EXPECT_EQ(gpu.digest, nvme.digest);
  const RunResult other = run_workload(short_run(Workload::kTrainGpu, 12));
  EXPECT_NE(gpu.digest, other.digest);  // the seed reaches the data
}

// Tokens depend on the prompt only: not on placement (NVMe streaming vs all
// on the GPU), batch composition, or arrival pattern (closed vs open loop).
TEST(Exactness, ServeTokensIgnorePlacementAndArrivals) {
  const RunResult nvme = run_workload(short_run(Workload::kServeNvmeBatch, 5));
  const RunResult gpu = run_workload(short_run(Workload::kServeGpuPoisson, 5));
  ASSERT_TRUE(nvme.correct) << (nvme.errors.empty() ? "" : nvme.errors[0]);
  ASSERT_TRUE(gpu.correct) << (gpu.errors.empty() ? "" : gpu.errors[0]);
  EXPECT_EQ(nvme.digest, gpu.digest);
}

TEST(Run, TracedRunReportsPerLayerMetricsAndWritesSpans) {
  RunOptions opt = short_run(Workload::kTrainNvme, 3);
  opt.trace = true;
  const RunResult r = run_workload(opt);
  ASSERT_TRUE(r.correct) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.setups, 4);  // untraced / traced alternate
  EXPECT_TRUE(std::filesystem::exists(r.trace_file));
  bool saw_nvme_fetch = false;
  for (const Metric& m : r.metrics) {
    if (m.name == "move.nvme_fetch.mb") saw_nvme_fetch = m.value > 0;
  }
  EXPECT_TRUE(saw_nvme_fetch);
}

}  // namespace
}  // namespace perfbench
