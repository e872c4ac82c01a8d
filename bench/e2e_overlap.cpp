// Overlap-centric design ablation on the REAL engine (Sec. 6.2): the same
// ZeRO-3 + NVMe training run with overlap_transfers on vs off, plus a
// third variant with overlap on but the transfer scheduler's coalescing
// disabled (ZI_MOVE_COALESCE=0), isolating what request merging buys on
// top of overlap.
//
// With overlap on, the DataMover pipelines are active end to end — the
// coordinator prefetches parameter shards ahead of the compute trace and
// the chunked optimizer double-buffers its NVMe state reads/write-backs.
// With overlap off the identical byte traffic runs sequentially
// (load → compute → store), so the wall-clock delta is purely the hidden
// I/O latency; loss trajectories must be bit-identical across all
// variants — scheduling and coalescing change how bytes travel, never
// which bytes.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "model/gpt.hpp"
#include "sim/report.hpp"

using namespace zi;
using zi::sim::Table;
using zi::sim::print_banner;

namespace {

struct Outcome {
  float first_loss = 0, last_loss = 0;
  double ms_per_step = 0;
  double move_wait_seconds = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t move_transfers = 0;
  std::uint64_t route_bytes[kNumRoutes] = {};
  std::uint64_t staged_pinned = 0, staged_heap = 0;
  std::uint64_t sched_backend_ops = 0, coalesced_transfers = 0;
};

Outcome run(bool overlap, bool coalesce,
            const std::filesystem::path& dir) {
  // DataMover reads ZI_MOVE_* when each rank constructs its resources.
  ::setenv("ZI_MOVE_COALESCE", coalesce ? "1" : "0", 1);
  GptConfig mc;
  mc.vocab = 64;
  mc.seq = 16;
  mc.hidden = 32;
  mc.layers = 3;
  mc.heads = 4;

  EngineConfig cfg = preset_zero_infinity_nvme();
  cfg.overlap_transfers = overlap;
  cfg.nvme_dir = dir.string();
  cfg.loss_scale.init_scale = 1024.0f;
  cfg.adam.lr = 5e-3f;

  constexpr int kWorld = 4;
  constexpr int kSteps = 12;
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
      const DataMover::Stats mv = engine.resources().mover().stats();
      for (int r = 0; r < kNumRoutes; ++r) {
        out.route_bytes[r] = mv.routes[static_cast<std::size_t>(r)].bytes;
      }
      out.move_transfers = mv.total_transfers();
      out.move_wait_seconds = mv.total_seconds();
      out.staged_pinned = mv.staged_pinned;
      out.staged_heap = mv.staged_heap;
      out.sched_backend_ops = mv.sched.backend_ops;
      out.coalesced_transfers = mv.sched.coalesced_transfers;
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
                   ("zi_overlap_bench_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  print_banner(std::cout,
               "ZeRO-3 + NVMe: overlap on vs off, coalescing on vs off "
               "(tiny GPT, 4 ranks, 12 steps)");

  const Outcome off = run(false, true, dir / "off");
  const Outcome nc = run(true, false, dir / "nc");
  const Outcome on = run(true, true, dir / "on");
  ::unsetenv("ZI_MOVE_COALESCE");

  Table t({"mode", "loss step1", "loss step12", "ms/step", "prefetch hits",
           "nvme>host", "host>nvme", "aio reqs", "move wait s"});
  auto row = [&](const char* name, const Outcome& o) {
    t.add_row({name, Table::num(o.first_loss, 6), Table::num(o.last_loss, 6),
               Table::num(o.ms_per_step, 1), std::to_string(o.prefetch_hits),
               format_bytes(
                   o.route_bytes[static_cast<int>(Route::kNvmeFetch)]),
               format_bytes(
                   o.route_bytes[static_cast<int>(Route::kNvmeSpill)]),
               std::to_string(o.sched_backend_ops),
               Table::num(o.move_wait_seconds, 3)});
  };
  row("overlap on", on);
  row("overlap on, no coalesce", nc);
  row("overlap off", off);
  t.print(std::cout);

  const bool bit_identical =
      on.first_loss == off.first_loss && on.last_loss == off.last_loss &&
      on.first_loss == nc.first_loss && on.last_loss == nc.last_loss;
  std::cout << "\nLoss trajectories " << (bit_identical ? "ARE" : "ARE NOT")
            << " bit-identical; overlap hides "
            << (off.ms_per_step - on.ms_per_step)
            << " ms/step of I/O latency.\n";
  std::filesystem::remove_all(dir);
  // The overlap ablation is only meaningful if it did not change values.
  return bit_identical ? 0 : 1;
}
