// End-to-end elastic restart: kill a rank mid-run, shrink, resume, verify.
//
// The headline scenario is the paper's operational story stretched to
// failure tolerance: a 4-rank ZeRO-3 + NVMe world loses rank 2 to an
// injected crash mid-step, the survivors unblock through the poisoned
// world (never a hang — a test-level watchdog aborts the process if the
// supervisor wedges), and the elastic supervisor relaunches a 3-rank world
// that resumes from the newest intact checkpoint. Because checkpoints are
// universal (world-size-independent) and collectives accumulate in
// deterministic rank order, the resumed trajectory must be *bit-identical*
// to a clean 3-rank run resumed from a copy of the very same checkpoint.
//
// The kill ordinal is calibrated, not guessed: a probe run with a
// never-firing rank_crash rule counts collective entries per rank, and the
// real rule fires at 3/4 of that count — deep enough that the step-6
// checkpoint is committed, early enough that step 10 has not finished.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/world.hpp"
#include "core/ckpt_io.hpp"
#include "core/elastic.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/tokenizer.hpp"
#include "model/gpt.hpp"
#include "testing/fault_injector.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

/// Same tiny-GPT setup as test_checkpoint_crash: 10 steps, checkpoints at
/// 3/6/9, but on the full ZeRO-3 + NVMe preset and variable world sizes.
struct TrainSetup {
  GptConfig mc;
  TokenDataset data{std::vector<std::int32_t>(400, 1), 16};

  TrainSetup() {
    ByteTokenizer tok;
    std::string corpus;
    for (int i = 0; i < 30; ++i) corpus += "the quick brown fox jumps. ";
    mc.vocab = tok.vocab_size();
    mc.seq = 16;
    mc.hidden = 32;
    mc.layers = 2;
    mc.heads = 4;
    data = TokenDataset(tok.encode(corpus), mc.seq);
  }

  TrainerConfig trainer_config(const fs::path& dir) const {
    TrainerConfig tc;
    tc.total_steps = 10;
    tc.batch_per_rank = 2;
    tc.micro_batches = 1;
    tc.checkpoint_every = 3;  // checkpoints at steps 3, 6, 9
    tc.checkpoint_keep = 3;
    tc.checkpoint_path = (dir / "run.ckpt").string();
    tc.schedule.base_lr = 5e-3f;
    tc.schedule.warmup_steps = 2;
    tc.schedule.total_steps = 10;
    return tc;
  }

  EngineConfig engine_config(const fs::path& dir) const {
    EngineConfig cfg = preset_zero_infinity_nvme();
    cfg.nvme_dir = (dir / "swap").string();
    cfg.loss_scale.init_scale = 1024.0f;
    return cfg;
  }

  /// A clean default-options run (bare run_ranks) that mirrors the elastic
  /// attempt body op-for-op — including try_resume() — so fault-site
  /// ordinals measured here transfer exactly to the supervised run.
  std::pair<std::vector<float>, std::int64_t> run(const fs::path& dir,
                                                  int ranks, AioEngine& aio) {
    const TrainerConfig tc = trainer_config(dir);
    const EngineConfig cfg = engine_config(dir);
    std::vector<float> losses;
    std::int64_t resumed = -1;
    run_ranks(ranks, [&](Communicator& comm) {
      Gpt model(mc);
      ZeroEngine engine(model, comm, aio, cfg);
      Trainer trainer(engine, comm, data, nullptr, tc);
      const std::int64_t r = trainer.try_resume();
      const TrainerReport report = trainer.run();
      if (comm.rank() == 0) {
        losses = report.train_losses;
        resumed = r;
      }
    });
    return {losses, resumed};
  }
};

/// Test-level watchdog: the one outcome this suite exists to forbid is a
/// hang, so a wedged supervisor fails loudly instead of eating the ctest
/// timeout.
ElasticReport run_elastic_guarded(const ElasticConfig& ec,
                                  const EngineConfig& cfg, AioEngine& aio,
                                  const TokenDataset& data,
                                  const ModelFactory& factory,
                                  std::chrono::seconds limit) {
  std::promise<ElasticReport> done;
  std::future<ElasticReport> fut = done.get_future();
  std::thread([&done, &ec, &cfg, &aio, &data, &factory] {
    try {
      done.set_value(run_elastic(ec, cfg, aio, data, nullptr, factory));
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  }).detach();
  if (fut.wait_for(limit) != std::future_status::ready) {
    ADD_FAILURE() << "elastic supervisor hung for " << limit.count()
                  << "s — world abort failed to unblock it";
    std::abort();
  }
  return fut.get();
}

class ElasticTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().clear();
    dir_ = fs::temp_directory_path() /
           ("zi_elastic_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::instance().clear();
    fs::remove_all(dir_);
  }
  fs::path dir_;
};

TEST_F(ElasticTest, CleanRunSucceedsOnFirstAttempt) {
  TrainSetup setup;
  AioEngine aio;
  ElasticConfig ec;
  ec.ranks = 2;
  ec.min_ranks = 1;
  ec.trainer = setup.trainer_config(dir_);
  ec.trainer.total_steps = 4;
  ec.trainer.checkpoint_every = 0;
  ec.trainer.checkpoint_path.clear();
  const EngineConfig cfg = setup.engine_config(dir_);

  const ElasticReport rep = run_elastic_guarded(
      ec, cfg, aio, setup.data,
      [&setup] { return std::make_unique<Gpt>(setup.mc); },
      std::chrono::seconds(120));

  EXPECT_TRUE(rep.succeeded);
  EXPECT_EQ(rep.restarts, 0);
  EXPECT_EQ(rep.final_world, 2);
  ASSERT_EQ(rep.attempts.size(), 1u);
  EXPECT_TRUE(rep.attempts[0].completed);
  EXPECT_EQ(rep.attempts[0].resumed_step, 0);
  EXPECT_EQ(rep.report.train_losses.size(), 4u);
}

TEST_F(ElasticTest, GivesUpWhenSurvivorsWouldDropBelowMinRanks) {
  TrainSetup setup;
  AioEngine aio;
  FaultInjector::instance().configure(
      "seed=11;rank_crash:error,rank=1,after=5,count=1");

  ElasticConfig ec;
  ec.ranks = 2;
  ec.min_ranks = 2;  // losing either rank makes a restart illegal
  ec.trainer = setup.trainer_config(dir_);
  ec.trainer.total_steps = 4;
  ec.trainer.checkpoint_every = 0;
  ec.trainer.checkpoint_path.clear();
  const EngineConfig cfg = setup.engine_config(dir_);

  const ElasticReport rep = run_elastic_guarded(
      ec, cfg, aio, setup.data,
      [&setup] { return std::make_unique<Gpt>(setup.mc); },
      std::chrono::seconds(120));

  EXPECT_FALSE(rep.succeeded);
  EXPECT_EQ(rep.restarts, 0);
  EXPECT_EQ(rep.final_world, 2);
  ASSERT_EQ(rep.attempts.size(), 1u);
  EXPECT_FALSE(rep.attempts[0].completed);
  EXPECT_EQ(rep.attempts[0].kind, WorldFailKind::kException);
  EXPECT_EQ(rep.attempts[0].culprit_rank, 1);
  EXPECT_EQ(rep.attempts[0].ranks_lost, 1);
  EXPECT_TRUE(rep.attempts[0].rank_weights.empty());  // uniform launch
}

TEST_F(ElasticTest, KilledRankRestartsSmallerWorldBitIdentically) {
  TrainSetup setup;
  AioEngine aio;

  // --- Phase A: probe. A rule that can never fire still counts collective
  // entries at the rank_crash site, and every rank runs the identical
  // collective sequence, so per-rank entries = site total / world.
  FaultInjector::instance().configure(
      "seed=3;rank_crash:error,rank=2,after=1000000000");
  const fs::path probe_dir = dir_ / "probe";
  fs::create_directories(probe_dir);
  {
    auto [losses, resumed] = setup.run(probe_dir, 4, aio);
    ASSERT_EQ(losses.size(), 10u);
    ASSERT_EQ(resumed, 0);
  }
  const std::uint64_t total =
      FaultInjector::instance().stats(FaultSite::kRankCrash).ops;
  ASSERT_GT(total, 0u);
  ASSERT_EQ(total % 4, 0u) << "ranks ran asymmetric collective sequences";
  const std::int64_t per_rank = static_cast<std::int64_t>(total / 4);
  const std::int64_t kill_at = per_rank * 3 / 4;  // ~step 7.5 of 10
  ASSERT_GT(kill_at, 0);

  // --- Phase B: the real run. Rank 2 dies at its own kill_at-th collective
  // entry; peers must unblock via poison (well inside the 8 s timeout) and
  // the supervisor must relaunch 3 survivors resuming from a checkpoint.
  FaultInjector::instance().clear();
  FaultInjector::instance().configure(
      "seed=3;rank_crash:error,rank=2,after=" + std::to_string(kill_at) +
      ",count=1");
  const std::uint64_t restarts_before = elastic_restart_count();

  ElasticConfig ec;
  ec.ranks = 4;
  ec.min_ranks = 2;
  ec.max_restarts = 2;
  ec.world.timeout_ms = 8000.0;
  ec.trainer = setup.trainer_config(dir_);
  const EngineConfig cfg = setup.engine_config(dir_);
  const ElasticReport rep = run_elastic_guarded(
      ec, cfg, aio, setup.data,
      [&setup] { return std::make_unique<Gpt>(setup.mc); },
      std::chrono::seconds(300));
  FaultInjector::instance().clear();

  ASSERT_TRUE(rep.succeeded) << (rep.attempts.empty()
                                     ? std::string("no attempts")
                                     : rep.attempts.back().error);
  EXPECT_EQ(rep.restarts, 1);
  EXPECT_EQ(rep.final_world, 3);
  EXPECT_EQ(elastic_restart_count(), restarts_before + 1);
  ASSERT_EQ(rep.attempts.size(), 2u);

  const ElasticAttempt& crashed = rep.attempts[0];
  EXPECT_FALSE(crashed.completed);
  EXPECT_EQ(crashed.world, 4);
  EXPECT_EQ(crashed.kind, WorldFailKind::kException);
  EXPECT_EQ(crashed.culprit_rank, 2);
  EXPECT_EQ(crashed.ranks_lost, 1);  // three victims unblocked, none wedged
  EXPECT_TRUE(crashed.rank_weights.empty());

  const ElasticAttempt& recovered = rep.attempts[1];
  EXPECT_TRUE(recovered.completed);
  EXPECT_EQ(recovered.world, 3);
  // Straggler detection is off (default WorldOptions), so the crash restart
  // has no EWMAs to rebalance from and must keep the legacy uniform shrink.
  EXPECT_TRUE(recovered.rank_weights.empty());
  const std::int64_t resumed = recovered.resumed_step;
  EXPECT_TRUE(resumed == 3 || resumed == 6 || resumed == 9)
      << "resumed from step " << resumed;
  ASSERT_EQ(rep.report.train_losses.size(),
            static_cast<std::size_t>(10 - resumed));

  // --- Phase C: control. Copy the exact checkpoint the survivors resumed
  // from into a fresh directory and run a clean (never-crashed) 3-rank
  // world from it. Universal checkpoints + deterministic rank-order
  // reduction make the two trajectories bitwise equal.
  const fs::path ctrl_dir = dir_ / "control";
  fs::create_directories(ctrl_dir);
  const std::string src = Trainer::checkpoint_file(
      setup.trainer_config(dir_).checkpoint_path, resumed);
  ASSERT_TRUE(fs::exists(src));
  ASSERT_TRUE(fs::exists(ckpt_manifest_path(src)));
  const std::string dst = Trainer::checkpoint_file(
      setup.trainer_config(ctrl_dir).checkpoint_path, resumed);
  fs::copy_file(src, dst);
  fs::copy_file(ckpt_manifest_path(src), ckpt_manifest_path(dst));

  auto [control_losses, control_resumed] = setup.run(ctrl_dir, 3, aio);
  EXPECT_EQ(control_resumed, resumed);
  ASSERT_EQ(control_losses.size(), rep.report.train_losses.size());
  for (std::size_t i = 0; i < control_losses.size(); ++i) {
    EXPECT_EQ(control_losses[i], rep.report.train_losses[i])
        << "post-restart step " << resumed + static_cast<std::int64_t>(i) + 1
        << " diverged from the clean 3-rank run";
  }
}

}  // namespace
}  // namespace zi
