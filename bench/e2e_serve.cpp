// Serving benchmark on the REAL continuous-batching engine: open-loop
// synthetic traffic (Poisson arrivals) swept over arrival rates, comparing
// ZeRO-3 + NVMe weight streaming (parameters and KV cache both tiered to
// NVMe) against an all-GPU control (parameters and KV resident). Reports
// per-rate p50/p99 request latency and decode throughput.
//
// The serving bit-identity invariant is asserted the same way the training
// benches assert loss trajectories: every variant at every arrival rate
// must produce byte-identical token streams — placement and load change
// when tokens arrive, never which tokens.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "model/gpt.hpp"
#include "serve/serve_engine.hpp"
#include "sim/report.hpp"

using namespace zi;
using zi::sim::Table;
using zi::sim::print_banner;

namespace {

constexpr int kWorld = 4;
constexpr int kRequests = 12;
constexpr int kMaxBatch = 4;
constexpr std::int64_t kMaxNew = 4;
const double kRates[] = {50.0, 400.0};  // requests/second offered load

GptConfig serve_model() {
  GptConfig cfg;
  cfg.vocab = 64;
  cfg.seq = 24;
  cfg.hidden = 32;
  cfg.layers = 3;
  cfg.heads = 4;
  cfg.tie_embeddings = true;
  cfg.checkpoint_activations = false;
  return cfg;
}

// Deterministic prompts; Poisson arrivals via exponential inter-arrival
// gaps from the counter-based Rng (stream keyed by the rate so sweeps
// are independent draws but reproducible run to run).
std::vector<ServeRequest> make_traffic(double rate, std::uint64_t stream) {
  Rng rng(0x5e27e5eedULL, stream);
  std::vector<ServeRequest> reqs;
  double t = 0.0;
  for (int i = 0; i < kRequests; ++i) {
    const double u = rng.next_uniform();
    t += -std::log(1.0 - u) / rate;
    ServeRequest r;
    r.id = i;
    r.arrival_seconds = t;
    const int len = 3 + (i % 5);
    for (int k = 0; k < len; ++k) {
      r.prompt.push_back(static_cast<std::int32_t>((i * 11 + k * 3 + 1) % 63));
    }
    reqs.push_back(std::move(r));
  }
  return reqs;
}

struct Outcome {
  std::vector<std::vector<std::int32_t>> tokens;  // by request id
  ServeReport report;
  std::uint64_t kv_fetch_bytes = 0, kv_spill_bytes = 0;
  std::uint64_t param_fetch_bytes = 0;  // NVMe shard reads (weight stream)
};

Outcome run(bool streamed, double rate, std::uint64_t stream,
            const std::filesystem::path& dir) {
  EngineConfig cfg = preset_zero_infinity_nvme();
  if (!streamed) {
    cfg.param_placement = Placement::kGpu;  // all-GPU control
  }
  cfg.nvme_dir = dir.string();
  cfg.prefetch_depth = 2;
  cfg.persistence_threshold_elems = 64;

  ServeConfig scfg;
  scfg.max_batch = kMaxBatch;
  scfg.max_new_tokens = kMaxNew;
  scfg.kv_tier = streamed ? KvTier::kNvme : KvTier::kGpu;

  const std::vector<ServeRequest> reqs = make_traffic(rate, stream);
  Outcome out;
  AioEngine aio;
  run_ranks(kWorld, [&](Communicator& comm) {
    Gpt model(serve_model());
    StreamEngine eng(model, comm, aio, cfg);
    ServeEngine serve(eng, model, scfg);
    std::vector<ServeResult> results = serve.run(reqs);
    if (comm.rank() == 0) {
      for (ServeResult& r : results) out.tokens.push_back(std::move(r.tokens));
      out.report = serve.report();
      const DataMover::Stats mv = eng.resources().mover().stats();
      out.kv_fetch_bytes = mv.route(Route::kKvFetch).bytes;
      out.kv_spill_bytes = mv.route(Route::kKvSpill).bytes;
      out.param_fetch_bytes = mv.route(Route::kNvmeFetch).bytes;
    }
  });
  return out;
}

struct Run {
  std::string name;
  double rate = 0;
  Outcome o;
};

}  // namespace

int main() {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("zi_serve_bench_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  print_banner(std::cout,
               "Serving: ZeRO-3 + NVMe weight streaming vs all-GPU control "
               "(open-loop Poisson traffic, 4 ranks, continuous batching)");

  std::vector<Run> runs;
  for (std::size_t i = 0; i < std::size(kRates); ++i) {
    const double rate = kRates[i];
    Run ctrl;
    ctrl.name = "all_gpu";
    ctrl.rate = rate;
    ctrl.o = run(false, rate, i, dir / ("gpu_" + std::to_string(i)));
    runs.push_back(std::move(ctrl));
    Run stream;
    stream.name = "zero3_nvme_stream";
    stream.rate = rate;
    stream.o = run(true, rate, i, dir / ("nvme_" + std::to_string(i)));
    runs.push_back(std::move(stream));
  }

  // Tokens must not depend on placement or offered load: same prompts →
  // same streams in every run at every rate.
  bool bit_identical = true;
  for (const Run& r : runs) {
    if (r.o.tokens != runs.front().o.tokens) bit_identical = false;
  }

  Table t({"mode", "rate req/s", "p50 ms", "p99 ms", "tok/s", "param fetch",
           "kv fetch", "kv spill"});
  for (const Run& r : runs) {
    t.add_row({r.name, Table::num(r.rate, 0),
               Table::num(r.o.report.p50_latency_seconds * 1e3, 2),
               Table::num(r.o.report.p99_latency_seconds * 1e3, 2),
               Table::num(r.o.report.tokens_per_second, 1),
               format_bytes(r.o.param_fetch_bytes),
               format_bytes(r.o.kv_fetch_bytes),
               format_bytes(r.o.kv_spill_bytes)});
  }
  t.print(std::cout);

  std::cout << "\nToken streams " << (bit_identical ? "ARE" : "ARE NOT")
            << " bit-identical across placements and arrival rates.\n";
  std::filesystem::remove_all(dir);
  // The placement sweep is only meaningful if it did not change tokens.
  return bit_identical ? 0 : 1;
}
