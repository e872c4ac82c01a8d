// The benchmark's workloads: input generation (a pure function of the
// seed), the timed runs over the program's public API, output checks, and
// the metrics each run reports. README.md in this directory documents the
// workloads, every metric, and why the clock starts where it does.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/gpt.hpp"
#include "serve/serve_engine.hpp"

namespace perfbench {

enum class Workload {
  kTrainGpu,
  kTrainNvme,
  kServeNvmeBatch,
  kServeGpuPoisson,
};

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);
bool is_train(Workload w);

// Load shape: one process on the inproc transport, kWorld rank threads plus
// kAioWorkers I/O worker threads (= 4, the core count the figures in
// README.md were taken on).
inline constexpr int kWorld = 2;
inline constexpr std::size_t kAioWorkers = 2;

// Training: a small per-rank micro-batch, the paper's small-batch regime.
inline constexpr std::int64_t kTrainBatch = 1;
inline constexpr int kWarmupSteps = 2;  ///< covers the trace-recording step
inline constexpr int kTimedSteps = 100;  ///< per setup: enough for its own p90
zi::GptConfig train_model();

// Serving: prompts of kPromptMin..kPromptMax tokens, kMaxNew tokens each.
inline constexpr int kMaxBatch = 8;
inline constexpr std::int64_t kMaxNew = 16;
inline constexpr int kPromptMin = 8;
inline constexpr int kPromptMax = 32;
inline constexpr int kClosedRequests = 200;   ///< per setup, all at t=0
/// Offered load of the open loop, requests/s: about half the all-GPU
/// closed-loop capacity (about 83 requests/s on a 4-core x86 box).
inline constexpr double kPoissonRate = 40.0;
inline constexpr int kPoissonRequests = 200;  ///< per setup (5 s of arrivals)
// Latency limits of slo_met_frac (serve_gpu_poisson): about 3x the p95s
// measured on a 4-core x86 box (TTFT 14.5 ms, ITL 4.0 ms).
inline constexpr double kTtftLimitMs = 45.0;
inline constexpr double kItlLimitMs = 12.0;
zi::GptConfig serve_model();

// --- Inputs: every one is a pure function of the seed ----------------------

/// The training corpus: a seeded sparse Markov chain over the vocabulary,
/// so the model has something to learn and the loss falls.
std::vector<std::int32_t> make_corpus(std::uint64_t seed);
/// Prompt of request `id`: kPromptMin..kPromptMax ids in [0, vocab).
std::vector<std::int32_t> make_prompt(std::uint64_t seed, std::int64_t id);
/// `n` Poisson arrivals at `rate` over [0, n / rate) (sorted uniforms: a
/// Poisson process conditioned on its count), so every seed offers the same
/// mean load. `pattern` selects one of the seed's independent draws.
std::vector<double> make_arrivals(std::uint64_t seed, std::uint64_t pattern,
                                  int n, double rate);
/// The timed requests of setup `pattern`: ids 0..n-1 with the same prompts
/// in every setup; arrivals at t=0 for the closed loop, and the setup's own
/// Poisson draw for the open loop (tokens must not depend on it).
std::vector<zi::ServeRequest> make_requests(Workload w, std::uint64_t seed,
                                            int n, std::uint64_t pattern = 0);

// --- Runs ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  Workload workload = Workload::kTrainGpu;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< keep setting up and measuring until this passes
  bool trace = false;     ///< the per-layer run (see README.md)
  std::filesystem::path work_dir = ".";
  int min_setups = 3;
  int timed_steps = kTimedSteps;  ///< train_*: steps per setup
  int requests = 0;               ///< serve_*: per setup; 0 = workload default
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Digest of rank 0's per-step global losses (train_*) or of every
  /// request's token stream in id order (serve_*), from the first setup.
  std::uint64_t digest = 0;
  int setups = 0;
  std::vector<std::string> errors;    ///< failed operations and checks
  std::vector<std::string> refusals;  ///< percentiles with too few samples
  /// End-to-end metrics (trace off) or per-layer metrics (trace on).
  std::vector<Metric> metrics;
  std::filesystem::path trace_file;  ///< spans, written when trace is on
};

RunResult run_workload(const RunOptions& opt);

}  // namespace perfbench
