// End-to-end REAL execution across the full Table 2 strategy matrix: every
// configuration trains the same (scaled-down) GPT on 4 rank threads and
// reports loss trajectory, wall-clock per step, and where the bytes live.
//
// This is the functional companion to the simulated figures: the loss
// column demonstrates that all placements are exact transformations
// (bit-identical trajectories), and the memory columns reproduce the
// Table 2 placement taxonomy on real tiers (arena / heap / NVMe file).
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/megatron_engine.hpp"
#include "model/tensor_parallel.hpp"
#include "model/gpt.hpp"
#include "sim/report.hpp"

using namespace zi;
using zi::sim::Table;
using zi::sim::print_banner;

namespace {

struct Outcome {
  float first_loss = 0, last_loss = 0;
  double ms_per_step = 0;
  std::uint64_t gpu_peak = 0, cpu_peak = 0, nvme_peak = 0;
  std::uint64_t prefetch_hits = 0;
};

Outcome run(EngineConfig cfg, const std::filesystem::path& dir) {
  GptConfig mc;
  mc.vocab = 64;
  mc.seq = 16;
  mc.hidden = 32;
  mc.layers = 2;
  mc.heads = 4;
  cfg.nvme_dir = dir.string();
  cfg.loss_scale.init_scale = 1024.0f;
  cfg.adam.lr = 5e-3f;

  constexpr int kWorld = 4;
  constexpr int kSteps = 8;
  constexpr int kBatch = 2;
  Outcome out;
  AioEngine aio;
  run_ranks(kWorld, [&](Communicator& comm) {
    Gpt model(mc);
    ZeroEngine engine(model, comm, aio, cfg);
    std::vector<std::int32_t> tokens(kBatch * mc.seq), targets(tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      tokens[i] = static_cast<std::int32_t>((comm.rank() * 7 + i * 3) % 63);
      targets[i] = static_cast<std::int32_t>((tokens[i] * 5 + 1) % 63);
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < kSteps; ++s) {
      const auto st = engine.train_step(tokens, targets);
      if (comm.rank() == 0) {
        if (s == 0) out.first_loss = st.global_loss;
        if (s == kSteps - 1) out.last_loss = st.global_loss;
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (comm.rank() == 0) {
      out.ms_per_step =
          std::chrono::duration<double, std::milli>(t1 - t0).count() / kSteps;
      const auto& acc = engine.resources().accountant();
      out.gpu_peak = acc.peak(Tier::kGpu);
      out.cpu_peak = acc.peak(Tier::kCpu);
      out.nvme_peak = acc.peak(Tier::kNvme);
      out.gpu_peak =
          std::max<std::uint64_t>(out.gpu_peak,
                                  engine.resources().gpu().stats().peak_used);
      if (engine.coordinator() != nullptr) {
        out.prefetch_hits = engine.coordinator()->stats().prefetch_hits;
      }
    }
  });
  return out;
}

}  // namespace

int main() {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("zi_e2e_bench_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  print_banner(std::cout,
               "Real end-to-end training across the Table 2 strategy matrix "
               "(tiny GPT, 4 ranks, 8 steps)");

  const std::pair<const char*, EngineConfig> configs[] = {
      {"Data parallel", preset_data_parallel()},
      {"ZeRO-1", preset_zero1()},
      {"ZeRO-2", preset_zero2()},
      {"ZeRO-Offload", preset_zero_offload()},
      {"ZeRO-3", preset_zero3()},
      {"ZeRO-Inf-CPU", preset_zero_infinity_cpu()},
      {"ZeRO-Inf-NVMe", preset_zero_infinity_nvme()},
  };

  Table t({"strategy", "loss step1", "loss step8", "ms/step", "GPU peak",
           "CPU peak", "NVMe peak", "prefetch hits"});
  for (const auto& [name, cfg] : configs) {
    const Outcome o = run(cfg, dir / name);
    t.add_row({name, Table::num(o.first_loss, 6), Table::num(o.last_loss, 6),
               Table::num(o.ms_per_step, 1), format_bytes(o.gpu_peak),
               format_bytes(o.cpu_peak), format_bytes(o.nvme_peak),
               std::to_string(o.prefetch_hits)});
  }
  // The 3D-parallelism baseline (tensor-parallel x data-parallel, no
  // ZeRO): a DIFFERENT model implementation (TpGpt) on a 2x2 grid, so its
  // loss column is not comparable — shown for the memory/usability
  // contrast (model states stay on GPU, replicated across dp).
  {
    TpGpt::Config mc;
    mc.vocab = 64;
    mc.seq = 16;
    mc.hidden = 32;
    mc.layers = 2;
    mc.heads = 4;
    MegatronConfig mcfg;
    mcfg.tp = 2;
    mcfg.adam.lr = 5e-3f;
    mcfg.loss_scale.init_scale = 1024.0f;
    Outcome o;
    AioEngine aio2;
    run_ranks(4, [&](Communicator& comm) {
      MegatronEngine::Grid grid = MegatronEngine::make_grid(comm, mcfg.tp);
      TpGpt model(mc, grid.tp);
      MegatronEngine engine(model, comm, std::move(grid), mcfg);
      const int dp_rank = comm.rank() / mcfg.tp;
      std::vector<std::int32_t> tokens(2 * static_cast<std::size_t>(mc.seq));
      std::vector<std::int32_t> targets(tokens.size());
      for (std::size_t i = 0; i < tokens.size(); ++i) {
        tokens[i] = static_cast<std::int32_t>((dp_rank * 7 + i * 3) % 63);
        targets[i] = static_cast<std::int32_t>((tokens[i] * 5 + 1) % 63);
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (int s = 0; s < 8; ++s) {
        const auto st = engine.train_step(tokens, targets);
        if (comm.rank() == 0) {
          if (s == 0) o.first_loss = st.global_loss;
          if (s == 7) o.last_loss = st.global_loss;
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      if (comm.rank() == 0) {
        o.ms_per_step =
            std::chrono::duration<double, std::milli>(t1 - t0).count() / 8;
        o.gpu_peak = engine.gpu().stats().peak_used;
      }
    });
    t.add_row({"3D par. (tp=2, rewritten model)", Table::num(o.first_loss, 6),
               Table::num(o.last_loss, 6), Table::num(o.ms_per_step, 1),
               format_bytes(o.gpu_peak), "0 B", "0 B", "-"});
  }
  t.print(std::cout);
  std::cout << "\nAll ZeRO strategies report IDENTICAL loss columns "
               "(exactness of the ZeRO transformations); the placement "
               "columns shift bytes down the GPU -> CPU -> NVMe hierarchy "
               "per Table 2. The 3D-parallelism row required rewriting the "
               "model with tensor-parallel layers and keeps all states in "
               "GPU memory.\n";
  std::filesystem::remove_all(dir);
  return 0;
}
