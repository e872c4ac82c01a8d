// Straggler rebalance A/B on the REAL engine: the same ZeRO-3 + NVMe
// training run on a 4-rank world where rank 3's compute is artificially
// slowed in proportion to the tokens it processes (an oversubscribed or
// thermally-throttled worker), once with uniform partitioning and once
// with RankWeights derived from the world's own busy-time EWMAs — the
// exact measurement the elastic supervisor rebalances from.
//
// In lockstep SPMD the world runs at the slowest rank's pace, so shifting
// sequences (and shard state) off the slow rank lowers the steady-state
// step time for everyone; the win is bounded by how much of the slow
// rank's step was its own compute. The uniform run doubles as the
// measurement pass: the trainer's straggler detector is armed with an
// unreachable conviction factor, so it times every step (busy = wall −
// sync-wait delta) without ever winding the run down.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "comm/world.hpp"
#include "core/engine.hpp"
#include "core/partition.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/tokenizer.hpp"
#include "model/gpt.hpp"
#include "sim/report.hpp"

using namespace zi;
using zi::sim::Table;
using zi::sim::print_banner;

namespace {

constexpr int kWorld = 4;
constexpr int kSlowRank = 3;
constexpr int kSteps = 12;
constexpr std::int64_t kBatchPerRank = 2;
constexpr std::int64_t kPerTokenUs = 750;  // injected slowdown per token

/// Decorator adding a per-token compute penalty on one rank. The sleep
/// scales with the micro-batch it is handed, so weighted batch sizing
/// genuinely shrinks the slow rank's step — unlike a fixed per-collective
/// stall, which no repartitioning could hide.
class SlowModel : public TrainableModel {
 public:
  SlowModel(GptConfig mc, bool slow) : inner_(mc), slow_(slow) {}

  Module& module() override { return inner_.module(); }

  float forward_loss(std::span<const std::int32_t> inputs,
                     std::span<const std::int32_t> targets) override {
    if (slow_) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          kPerTokenUs * static_cast<std::int64_t>(inputs.size())));
    }
    return inner_.forward_loss(inputs, targets);
  }

  void backward_loss(float loss_scale) override {
    inner_.backward_loss(loss_scale);
  }

  void set_activation_offloader(ActivationOffloader* offloader) override {
    inner_.set_activation_offloader(offloader);
  }

 private:
  Gpt inner_;
  bool slow_;
};

struct Outcome {
  double ms_per_step = 0;
  float first_loss = 0, last_loss = 0;
  std::vector<double> step_ewma;          // per-rank busy-time EWMA (s)
  std::vector<std::int64_t> rank_batches; // sequences per rank per micro-batch
};

Outcome run(const RankWeights& weights, const std::filesystem::path& dir,
            const TokenDataset& data, const GptConfig& mc) {
  EngineConfig cfg = preset_zero_infinity_nvme();
  cfg.nvme_dir = dir.string();
  cfg.loss_scale.init_scale = 1024.0f;
  if (cfg.params_partitioned() && cfg.bandwidth_centric) {
    cfg.rank_weights = weights;
  }

  TrainerConfig tc;
  tc.total_steps = kSteps;
  tc.batch_per_rank = kBatchPerRank;
  tc.micro_batches = 1;
  tc.schedule.base_lr = 5e-3f;
  tc.schedule.warmup_steps = 2;
  tc.schedule.total_steps = kSteps;
  tc.rank_weights = weights;

  // Armed-but-unconvictable detection: the trainer times every step into
  // per-rank busy EWMAs (the supervisor's rebalance input) and never winds
  // the run down.
  WorldOptions opts;
  opts.straggler_factor = 1e9;
  opts.straggler_steps = 3;

  Outcome out;
  out.rank_batches.assign(kWorld, 0);
  AioEngine aio;
  run_world(kWorld, opts, [&](Communicator& comm) {
    SlowModel model(mc, comm.rank() == kSlowRank);
    ZeroEngine engine(model, comm, aio, cfg);
    Trainer trainer(engine, comm, data, nullptr, tc);
    const auto t0 = std::chrono::steady_clock::now();
    const TrainerReport report = trainer.run();
    const auto t1 = std::chrono::steady_clock::now();
    if (comm.rank() == 0) {
      out.ms_per_step =
          std::chrono::duration<double, std::milli>(t1 - t0).count() /
          kSteps;
      out.first_loss = report.train_losses.front();
      out.last_loss = report.train_losses.back();
      out.step_ewma = trainer.step_ewma();
    }
    out.rank_batches[static_cast<std::size_t>(comm.rank())] =
        trainer.rank_batch();
  });
  return out;
}

/// The supervisor's rebalance rule (elastic.cpp): throughput ∝ 1/busy-time,
/// normalized to mean 1.
RankWeights weights_from_ewma(const std::vector<double>& ewma) {
  RankWeights w;
  double sum = 0.0;
  for (const double e : ewma) {
    if (e <= 0.0) return {};
    w.push_back(1.0 / e);
    sum += 1.0 / e;
  }
  for (double& x : w) x *= static_cast<double>(w.size()) / sum;
  return w;
}

}  // namespace

int main() {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("zi_straggler_bench_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  print_banner(std::cout,
               "ZeRO-3 + NVMe under a slow rank: uniform vs weighted "
               "partitioning (tiny GPT, 4 ranks, 12 steps, rank 3 slowed "
               "per token)");

  GptConfig mc;
  ByteTokenizer tok;
  std::string corpus;
  for (int i = 0; i < 40; ++i) corpus += "the quick brown fox jumps. ";
  mc.vocab = tok.vocab_size();
  mc.seq = 16;
  mc.hidden = 32;
  mc.layers = 2;
  mc.heads = 4;
  const TokenDataset data(tok.encode(corpus), mc.seq);

  // Pass 1: uniform partitioning — every rank draws kBatchPerRank
  // sequences, so the slow rank gates the whole world. Its step EWMAs are
  // the rebalance input.
  const Outcome uniform = run({}, dir / "uniform", data, mc);
  const RankWeights weights = weights_from_ewma(uniform.step_ewma);

  // Pass 2: the same run with weighted shards and batches.
  const Outcome weighted = run(weights, dir / "weighted", data, mc);

  Table t({"mode", "ms/step", "loss step1", "loss step12", "batches r0..r3",
           "slow-rank ewma ms"});
  auto batches_str = [](const Outcome& o) {
    std::string s;
    for (std::size_t r = 0; r < o.rank_batches.size(); ++r) {
      s += (r ? "/" : "") + std::to_string(o.rank_batches[r]);
    }
    return s;
  };
  auto slow_ewma_ms = [](const Outcome& o) {
    return o.step_ewma.size() > kSlowRank
               ? o.step_ewma[kSlowRank] * 1e3
               : 0.0;
  };
  t.add_row({"uniform", Table::num(uniform.ms_per_step, 1),
             Table::num(uniform.first_loss, 6),
             Table::num(uniform.last_loss, 6), batches_str(uniform),
             Table::num(slow_ewma_ms(uniform), 1)});
  t.add_row({"weighted", Table::num(weighted.ms_per_step, 1),
             Table::num(weighted.first_loss, 6),
             Table::num(weighted.last_loss, 6), batches_str(weighted),
             Table::num(slow_ewma_ms(weighted), 1)});
  t.print(std::cout);

  std::cout << "\nRank weights from uniform-run EWMAs:";
  for (const double w : weights) std::cout << " " << w;
  std::cout << "\nWeighted partitioning "
            << (weighted.ms_per_step < uniform.ms_per_step ? "LOWERS"
                                                           : "DOES NOT LOWER")
            << " steady-state step time under the injected straggler: "
            << uniform.ms_per_step << " -> " << weighted.ms_per_step
            << " ms/step (speedup "
            << (weighted.ms_per_step > 0
                    ? uniform.ms_per_step / weighted.ms_per_step
                    : 0.0)
            << "x).\n";

  std::filesystem::remove_all(dir);

  // Timing is machine-dependent; what must hold structurally is that the
  // rebalance moved work off the slow rank.
  const bool rebalanced =
      !weights.empty() &&
      weighted.rank_batches[kSlowRank] < uniform.rank_batches[kSlowRank];
  return rebalanced ? 0 : 1;
}
