// Crash-consistency tests for the atomic checkpoint protocol.
//
// The invariants under test:
//   * a completed save leaves no intermediate files and a verifying
//     manifest (write-tmp -> fsync -> rename, manifest as commit point);
//   * any divergence between payload and manifest — flipped byte,
//     truncation, mangled manifest — is rejected at load with
//     CheckpointCorruptionError, never silently consumed;
//   * Trainer::try_resume falls back to the newest *intact* checkpoint;
//   * a run killed at step k and resumed from its checkpoint follows the
//     bit-identical trajectory of an uninterrupted run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/ckpt_io.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/tokenizer.hpp"
#include "model/gpt.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

class CheckpointCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("zi_ckpt_crash_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

// ---------------------------------------------------------------------------
// ckpt_io primitives.

TEST_F(CheckpointCrashTest, AtomicWriteRoundTripsAndLeavesNoTemporaries) {
  AioEngine aio;
  std::vector<std::byte> blob(10000);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::byte>(i * 37);
  }
  const std::string path = (dir_ / "state.ckpt").string();
  write_checkpoint_file(aio, path, blob);

  EXPECT_TRUE(fs::exists(path));
  EXPECT_TRUE(fs::exists(ckpt_manifest_path(path)));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_FALSE(fs::exists(ckpt_manifest_path(path) + ".tmp"));

  EXPECT_TRUE(read_checkpoint_file(aio, path) == blob);
}

TEST_F(CheckpointCrashTest, RewriteReplacesAtomically) {
  AioEngine aio;
  const std::string path = (dir_ / "state.ckpt").string();
  std::vector<std::byte> v1(5000, std::byte{0x11});
  std::vector<std::byte> v2(3000, std::byte{0x22});  // shrinks the file
  write_checkpoint_file(aio, path, v1);
  write_checkpoint_file(aio, path, v2);
  EXPECT_TRUE(read_checkpoint_file(aio, path) == v2);
}

TEST_F(CheckpointCrashTest, FlippedPayloadByteIsRejected) {
  AioEngine aio;
  const std::string path = (dir_ / "state.ckpt").string();
  std::vector<std::byte> blob(10000, std::byte{0x33});
  write_checkpoint_file(aio, path, blob);
  flip_byte(path, 5123);
  EXPECT_THROW(read_checkpoint_file(aio, path), CheckpointCorruptionError);
}

TEST_F(CheckpointCrashTest, TruncatedPayloadIsRejected) {
  AioEngine aio;
  const std::string path = (dir_ / "state.ckpt").string();
  std::vector<std::byte> blob(10000, std::byte{0x44});
  write_checkpoint_file(aio, path, blob);
  fs::resize_file(path, 4096);  // simulated torn write / lost tail
  EXPECT_THROW(read_checkpoint_file(aio, path), CheckpointCorruptionError);
}

TEST_F(CheckpointCrashTest, MangledManifestIsRejected) {
  AioEngine aio;
  const std::string path = (dir_ / "state.ckpt").string();
  write_checkpoint_file(aio, path, std::vector<std::byte>(64, std::byte{1}));
  std::ofstream(ckpt_manifest_path(path)) << "not a manifest at all";
  EXPECT_THROW(read_checkpoint_file(aio, path), CheckpointCorruptionError);
}

TEST_F(CheckpointCrashTest, MissingManifestIsRejected) {
  AioEngine aio;
  const std::string path = (dir_ / "uncommitted.ckpt").string();
  write_checkpoint_file(aio, path,
                        std::vector<std::byte>(256, std::byte{0x55}));
  fs::remove(ckpt_manifest_path(path));
  // The manifest rename is the commit point: an intact payload without one
  // is an interrupted save, never a checkpoint.
  EXPECT_THROW(read_checkpoint_file(aio, path), CheckpointCorruptionError);
}

// ---------------------------------------------------------------------------
// Training-level recovery. One shared fixture trains the reference run.

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
    EngineConfig cfg = preset_zero_infinity_cpu();
    cfg.nvme_dir = (dir / "swap").string();
    cfg.loss_scale.init_scale = 1024.0f;
    return cfg;
  }

  /// Train up to `stop_after` steps (simulating a kill if < total), resuming
  /// first when `resume` is set. Returns rank-0 losses for the executed
  /// steps and the step try_resume() reported.
  std::pair<std::vector<float>, std::int64_t> run(const fs::path& dir,
                                                  std::int64_t stop_after,
                                                  bool resume) {
    TrainerConfig tc = trainer_config(dir);
    tc.total_steps = stop_after;
    const EngineConfig cfg = engine_config(dir);
    std::vector<float> losses;
    std::int64_t resumed = -1;
    AioEngine aio;
    run_ranks(2, [&](Communicator& comm) {
      Gpt model(mc);
      ZeroEngine engine(model, comm, aio, cfg);
      Trainer trainer(engine, comm, data, nullptr, tc);
      const std::int64_t r = resume ? trainer.try_resume() : 0;
      const TrainerReport report = trainer.run();
      if (comm.rank() == 0) {
        losses = report.train_losses;
        resumed = r;
      }
    });
    return {losses, resumed};
  }
};

TEST_F(CheckpointCrashTest, ResumeFallsBackPastACorruptCheckpoint) {
  TrainSetup setup;
  auto [losses, resumed] = setup.run(dir_, 10, false);
  ASSERT_EQ(losses.size(), 10u);
  const std::string base = setup.trainer_config(dir_).checkpoint_path;
  ASSERT_TRUE(fs::exists(Trainer::checkpoint_file(base, 9)));

  // The newest checkpoint (step 9) is corrupted on disk; resume must detect
  // it via the checksum and fall back to step 6.
  flip_byte(Trainer::checkpoint_file(base, 9), 1000);
  auto [more, resumed2] = setup.run(dir_, 10, true);
  EXPECT_EQ(resumed2, 6);
  // Steps 7..10 re-executed from the fallback follow the original
  // trajectory exactly.
  ASSERT_EQ(more.size(), 4u);
  for (std::size_t i = 0; i < more.size(); ++i) {
    EXPECT_EQ(more[i], losses[6 + i]) << "step " << 7 + i;
  }
}

TEST_F(CheckpointCrashTest, ResumeSkipsUncommittedCheckpointWithoutManifest) {
  TrainSetup setup;
  setup.run(dir_, 10, false);
  const std::string base = setup.trainer_config(dir_).checkpoint_path;
  // Simulate a crash between the payload rename and the manifest commit:
  // the step-9 payload exists but has no manifest.
  fs::remove(ckpt_manifest_path(Trainer::checkpoint_file(base, 9)));
  auto [more, resumed] = setup.run(dir_, 10, true);
  EXPECT_EQ(resumed, 6);
}

TEST_F(CheckpointCrashTest, KillAndResumeMatchesUninterruptedRun) {
  TrainSetup setup;
  // Reference: one uninterrupted 10-step run.
  const fs::path ref_dir = dir_ / "ref";
  fs::create_directories(ref_dir);
  auto [ref_losses, r0] = setup.run(ref_dir, 10, false);
  (void)r0;
  ASSERT_EQ(ref_losses.size(), 10u);

  // Victim: killed after step 6 (checkpoint at 6 is on disk), then a fresh
  // process resumes and finishes.
  const fs::path kill_dir = dir_ / "kill";
  fs::create_directories(kill_dir);
  auto [first_half, r1] = setup.run(kill_dir, 6, false);
  (void)r1;
  ASSERT_EQ(first_half.size(), 6u);
  auto [second_half, resumed] = setup.run(kill_dir, 10, true);
  EXPECT_EQ(resumed, 6);
  ASSERT_EQ(second_half.size(), 4u);

  for (std::size_t s = 0; s < 6; ++s) {
    EXPECT_EQ(first_half[s], ref_losses[s]) << "pre-kill step " << s + 1;
  }
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(second_half[s], ref_losses[6 + s]) << "post-resume step "
                                                 << 7 + s;
  }
}

TEST_F(CheckpointCrashTest, ResumeSkipsStepSuffixTooLongForInt64) {
  TrainSetup setup;
  auto [losses, r0] = setup.run(dir_, 10, false);
  (void)r0;
  ASSERT_EQ(losses.size(), 10u);
  const std::string base = setup.trainer_config(dir_).checkpoint_path;

  // A stray file whose all-digit step suffix overflows int64 (29 nines).
  // std::stoll would throw std::out_of_range out of try_resume(); the
  // defensive parse must simply skip it and resume from step 9.
  std::ofstream(base + ".step99999999999999999999999999999") << "junk";
  auto [more, resumed] = setup.run(dir_, 10, true);
  EXPECT_EQ(resumed, 9);
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0], losses[9]);
}

TEST_F(CheckpointCrashTest, OldCheckpointsArePruned) {
  TrainSetup setup;
  TrainerConfig tc = setup.trainer_config(dir_);
  tc.checkpoint_keep = 1;
  const EngineConfig cfg = setup.engine_config(dir_);
  AioEngine aio;
  run_ranks(2, [&](Communicator& comm) {
    Gpt model(setup.mc);
    ZeroEngine engine(model, comm, aio, cfg);
    Trainer trainer(engine, comm, setup.data, nullptr, tc);
    trainer.run();
  });
  const std::string base = tc.checkpoint_path;
  EXPECT_TRUE(fs::exists(Trainer::checkpoint_file(base, 9)));
  EXPECT_TRUE(fs::exists(ckpt_manifest_path(Trainer::checkpoint_file(base, 9))));
  EXPECT_FALSE(fs::exists(Trainer::checkpoint_file(base, 6)));
  EXPECT_FALSE(fs::exists(Trainer::checkpoint_file(base, 3)));
  EXPECT_FALSE(fs::exists(ckpt_manifest_path(Trainer::checkpoint_file(base, 3))));
}

}  // namespace
}  // namespace zi
