// Straggler-aware ranks: online slow-rank detection, weighted
// repartitioning, and elastic rebalance on restart.
//
// Unit coverage first: the largest-remainder apportioner, weighted
// ShardSpec invariants and the compact/expand slot<->flat transforms, the
// StragglerDetector state machine, the WorldHealth max-gap watermark and
// EWMA mirror, and the binary result-payload codec.
//
// The headline scenario at the bottom is the paper's operational story for
// heterogeneous workers: a 4-rank ZeRO-3 + NVMe world develops a straggler
// (rank 2 slowed by an injected bounded stall at every collective entry),
// the deterministic busy-time detector convicts it within
// ZI_STRAGGLER_STEPS, the attempt winds down *cleanly* (no poison, no rank
// lost), and the elastic supervisor relaunches the SAME world with
// RankWeights ~ 1/observed-step-time — smaller shards and fewer sequences
// on the slow rank. Because weighted layouts are exact re-partitionings and
// reductions keep their rank order, the resumed trajectory must be
// *bit-identical* to a control world launched statically with the very same
// weights.
//
// Both the stall strength and its ordinal window are calibrated, not
// guessed: a probe run with a never-firing rule counts collective entries
// per rank AND measures the world's typical busy time via the detector's
// own EWMAs, so the injected slowdown lands on steps 4-5 and dominates the
// median by a known factor on any machine speed.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "core/partition.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/tokenizer.hpp"
#include "model/gpt.hpp"
#include "testing/fault_injector.hpp"

namespace zi {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Apportionment: deterministic largest-remainder splits.

TEST(Apportion, SplitsProportionallyWithLargestRemainder) {
  // Quotas 3.5 / 1.75 / 1.75: floors assign 5, the two leftovers go to the
  // largest remainders (ranks 1 and 2).
  const auto parts = apportion(7, {2.0, 1.0, 1.0});
  EXPECT_EQ(parts, (std::vector<std::int64_t>{3, 2, 2}));
}

TEST(Apportion, RemainderTiesGoToTheLowerRank) {
  // Quotas 2.5 each: four equal remainders, two leftovers -> ranks 0, 1.
  const auto parts = apportion(10, {1.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(parts, (std::vector<std::int64_t>{3, 3, 2, 2}));
}

TEST(Apportion, ZeroWeightRanksGetNothing) {
  const auto parts = apportion(5, {0.0, 1.0});
  EXPECT_EQ(parts, (std::vector<std::int64_t>{0, 5}));
}

TEST(Apportion, DegenerateWeightsFallBackToUniform) {
  const auto parts = apportion(7, {0.0, 0.0, 0.0});
  EXPECT_EQ(parts, (std::vector<std::int64_t>{3, 2, 2}));
}

TEST(Apportion, SumIsExactForAwkwardRatios) {
  const RankWeights w{1.37, 0.001, 2.9, 0.7};
  for (std::int64_t total : {1, 2, 3, 17, 100, 1023}) {
    const auto parts = apportion(total, w);
    std::int64_t sum = 0;
    for (const std::int64_t p : parts) sum += p;
    EXPECT_EQ(sum, total) << "total " << total;
  }
}

TEST(ApportionBatches, EveryRankGetsAtLeastOneSequence) {
  // An extreme weight skew would zero out ranks 1-3; the batch apportioner
  // lifts them to one sequence each, taken from the dominant rank.
  const auto parts = apportion_batches(4, {100.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(parts, (std::vector<std::int64_t>{1, 1, 1, 1}));
  const auto skewed = apportion_batches(8, {10.0, 0.0, 1.0});
  EXPECT_EQ(skewed.size(), 3u);
  std::int64_t sum = 0;
  for (std::size_t r = 0; r < skewed.size(); ++r) {
    EXPECT_GE(skewed[r], 1) << "rank " << r;
    sum += skewed[r];
  }
  EXPECT_EQ(sum, 8);
}

// ---------------------------------------------------------------------------
// Weighted shard layout and the slot<->flat transforms.

TEST(WeightedShardSpec, ChunksCoverTheParameterExactly) {
  const ShardSpec spec = make_shard_spec(103, 4, {2.0, 1.0, 1.0, 0.5});
  ASSERT_FALSE(spec.uniform());
  ASSERT_EQ(spec.chunk.size(), 4u);
  ASSERT_EQ(spec.prefix.size(), 5u);
  EXPECT_EQ(spec.prefix.front(), 0);
  EXPECT_EQ(spec.prefix.back(), 103);
  std::int64_t sum = 0;
  std::int64_t max_chunk = 0;
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(spec.begin(r), spec.prefix[static_cast<std::size_t>(r)]);
    EXPECT_EQ(spec.valid_elems(r), spec.chunk[static_cast<std::size_t>(r)]);
    sum += spec.chunk[static_cast<std::size_t>(r)];
    max_chunk = std::max(max_chunk, spec.chunk[static_cast<std::size_t>(r)]);
  }
  EXPECT_EQ(sum, 103);
  // Collectives stay equal-slot: the slot is the max chunk and the padded
  // buffer covers world slots.
  EXPECT_EQ(spec.shard_elems, max_chunk);
  EXPECT_EQ(spec.padded_numel(), max_chunk * 4);
  // The heavy rank really gets the bigger shard.
  EXPECT_GT(spec.chunk[0], spec.chunk[3]);
}

TEST(WeightedShardSpec, EmptyWeightsAreTheUniformLayout) {
  const ShardSpec spec = make_shard_spec(10, 3, RankWeights{});
  EXPECT_TRUE(spec.uniform());
  EXPECT_EQ(spec.shard_elems, 4);  // ceil(10/3)
  EXPECT_EQ(spec.valid_elems(2), 2);
}

TEST(WeightedShardSpec, CompactAndExpandAreExactInverses) {
  const ShardSpec spec = make_shard_spec(23, 3, {3.0, 1.0, 2.0});
  ASSERT_FALSE(spec.uniform());
  // Build the slot layout an allgather would produce: rank r's slot holds
  // its chunk of the flat sequence 1000, 1001, ... with a zero tail.
  std::vector<float> slots(static_cast<std::size_t>(spec.padded_numel()), 0.0f);
  for (int r = 0; r < spec.world; ++r) {
    for (std::int64_t i = 0; i < spec.valid_elems(r); ++i) {
      slots[static_cast<std::size_t>(r * spec.shard_elems + i)] =
          1000.0f + static_cast<float>(spec.begin(r) + i);
    }
  }
  const std::vector<float> slots_orig = slots;

  compact_gathered<float>(spec, slots);
  for (std::int64_t i = 0; i < spec.numel; ++i) {
    ASSERT_EQ(slots[static_cast<std::size_t>(i)],
              1000.0f + static_cast<float>(i))
        << "flat index " << i;
  }

  expand_to_slots<float>(spec, slots);
  EXPECT_EQ(slots, slots_orig) << "expand did not invert compact";
}

TEST(WeightedShardSpec, RoundTripSurvivesAZeroSizedChunk) {
  // Weight 0 on rank 1: its slot must come back all-zero and the flat
  // layout must still be contiguous.
  const ShardSpec spec = make_shard_spec(9, 3, {1.0, 0.0, 1.0});
  ASSERT_EQ(spec.valid_elems(1), 0);
  std::vector<int> slots(static_cast<std::size_t>(spec.padded_numel()), -1);
  for (int r = 0; r < spec.world; ++r) {
    for (std::int64_t i = 0; i < spec.valid_elems(r); ++i) {
      slots[static_cast<std::size_t>(r * spec.shard_elems + i)] =
          static_cast<int>(spec.begin(r) + i);
    }
    for (std::int64_t i = spec.valid_elems(r); i < spec.shard_elems; ++i) {
      slots[static_cast<std::size_t>(r * spec.shard_elems + i)] = 0;
    }
  }
  const std::vector<int> slots_orig = slots;
  compact_gathered<int>(spec, slots);
  for (std::int64_t i = 0; i < spec.numel; ++i) {
    ASSERT_EQ(slots[static_cast<std::size_t>(i)], static_cast<int>(i));
  }
  expand_to_slots<int>(spec, slots);
  EXPECT_EQ(slots, slots_orig);
}

// ---------------------------------------------------------------------------
// The detector state machine.

/// observe() takes a span (the trainer feeds it an allgather buffer); the
/// unit tests feed literals through a materialized vector.
int feed(StragglerDetector& d, const std::vector<double>& step_seconds) {
  return d.observe(step_seconds);
}

TEST(StragglerDetectorTest, UniformWorldNeverConvicts) {
  StragglerDetector d(4, 2.0, 3);
  const std::vector<double> even{0.1, 0.1, 0.1, 0.1};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(d.observe(even), -1) << "step " << i;
  }
}

TEST(StragglerDetectorTest, SustainedSlowRankConvictsAfterExactlyNSteps) {
  StragglerDetector d(3, 3.0, 2);
  const std::vector<double> even{0.1, 0.1, 0.1};
  EXPECT_EQ(d.observe(even), -1);  // seed
  EXPECT_EQ(d.observe(even), -1);
  // Rank 1 jumps to 10x: EWMA 5.05 > 3 x median(0.1) -> streak 1.
  EXPECT_EQ(feed(d, {0.1, 10.0, 0.1}), -1);
  // Second consecutive over-threshold step -> verdict.
  EXPECT_EQ(feed(d, {0.1, 10.0, 0.1}), 1);
}

TEST(StragglerDetectorTest, OneStepBlipResetsTheStreak) {
  StragglerDetector d(3, 3.0, 2);
  const std::vector<double> even{0.1, 0.1, 0.1};
  d.observe(even);
  // A mild spike: EWMA 0.5*0.1 + 0.5*0.7 = 0.4 > 3 x median(0.1) -> streak
  // 1, but one normal step decays it to 0.25 < 0.3, so the streak resets.
  EXPECT_EQ(feed(d, {0.1, 0.7, 0.1}), -1);  // streak 1
  EXPECT_EQ(d.observe(even), -1);           // 0.25 < threshold: reset
  // A later lone spike must start a fresh streak, not complete the old one.
  EXPECT_EQ(feed(d, {0.1, 0.7, 0.1}), -1);  // 0.475 > 0.3: streak 1 again
  EXPECT_EQ(d.observe(even), -1);           // 0.2875 < 0.3: reset again
}

TEST(StragglerDetectorTest, VerdictLatchesForever) {
  StragglerDetector d(2, 2.0, 1);
  feed(d, {0.1, 0.1});
  ASSERT_EQ(feed(d, {0.1, 5.0}), 1);
  // Even a fully recovered world keeps returning the latched verdict.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(feed(d, {0.1, 0.1}), 1);
  }
}

TEST(StragglerDetectorTest, LowestQualifyingRankWinsATie) {
  StragglerDetector d(4, 2.0, 1);
  feed(d, {0.1, 0.1, 0.1, 0.1});
  // Ranks 1 and 3 cross the threshold on the same observation.
  EXPECT_EQ(feed(d, {0.1, 8.0, 0.1, 8.0}), 1);
}

TEST(StragglerDetectorTest, DisabledConfigurationsNeverConvict) {
  StragglerDetector off(3, 0.0, 3);  // factor 0 = off
  StragglerDetector solo(1, 2.0, 1);  // no peers, no median
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(feed(off, {0.1, 99.0, 0.1}), -1);
    EXPECT_EQ(feed(solo, {99.0}), -1);
  }
}

TEST(StragglerDetectorTest, EwmaSeedsWithTheFirstObservation) {
  StragglerDetector d(2, 0.0, 1);
  feed(d, {0.4, 0.8});
  ASSERT_EQ(d.ewma().size(), 2u);
  EXPECT_DOUBLE_EQ(d.ewma()[0], 0.4);
  EXPECT_DOUBLE_EQ(d.ewma()[1], 0.8);
  feed(d, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(d.ewma()[0], 0.2);
  EXPECT_DOUBLE_EQ(d.ewma()[1], 0.4);
}

// ---------------------------------------------------------------------------
// WorldHealth: the max-gap watermark behind the StepReport fix, the EWMA
// mirror, and the non-poisoning straggler record.

TEST(WorldHealthStraggler, MaxGapWatermarkRemembersClosedGaps) {
  WorldHealth h(2);
  h.beat(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  h.beat(0);  // closes a ~40 ms gap
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  h.beat(0);  // fresh short gap must not shrink the watermark
  // The open gap (heartbeat age) is small again, but the watermark still
  // shows the closed 40 ms stall — exactly what a point sample misses.
  EXPECT_LT(h.heartbeat_age_ms(0), 30.0);
  EXPECT_GE(h.max_heartbeat_gap_ms(0), 30.0);
  // Rank 1 never stalled (and never beat): its watermark stays empty.
  EXPECT_EQ(h.max_heartbeat_gap_ms(1), 0.0);
}

TEST(WorldHealthStraggler, EwmaMirrorRoundTripsBits) {
  WorldHealth h(3);
  EXPECT_EQ(h.step_ewma_s(1), 0.0);
  const double v = 0.123456789012345;
  h.note_step_ewma(1, v);
  EXPECT_EQ(h.step_ewma_s(1), v);  // bit-exact through the atomic mirror
  EXPECT_EQ(h.step_ewma_s(0), 0.0);
}

TEST(WorldHealthStraggler, StragglerRecordIsFirstWriteWinsAndNoPoison) {
  WorldHealth h(4);
  EXPECT_EQ(h.straggler_rank(), -1);
  h.record_straggler(2);
  h.record_straggler(3);  // late verdict loses, mirroring record_failure
  EXPECT_EQ(h.straggler_rank(), 2);
  // An observation, never a poison: the world keeps running and no
  // failure record exists.
  EXPECT_FALSE(h.poisoned());
  EXPECT_EQ(h.fail_kind(), WorldFailKind::kNone);
  EXPECT_EQ(h.culprit_rank(), -1);
}

// ---------------------------------------------------------------------------
// Result payload codec: what crosses the supervisor boundary must be exact.

TEST(ResultPayloadCodec, RoundTripsEveryFieldBitExactly) {
  Trainer::ResultPayload p;
  p.resumed_step = 6;
  p.straggler_rank = 2;
  p.step_ewma = {0.25, 1.0 / 3.0, 7.125e-3, 0.5};
  p.report.train_losses = {1.5f, 0.33333334f, 2.7182818f};
  p.report.eval_losses = {0.125f};
  p.report.skipped_steps = 3;
  p.report.checkpoints_written = 2;

  const Trainer::ResultPayload q =
      Trainer::decode_result(Trainer::encode_result(p));
  EXPECT_EQ(q.resumed_step, 6);
  EXPECT_EQ(q.straggler_rank, 2);
  EXPECT_EQ(q.step_ewma, p.step_ewma);
  EXPECT_EQ(q.report.train_losses, p.report.train_losses);
  EXPECT_EQ(q.report.eval_losses, p.report.eval_losses);
  EXPECT_EQ(q.report.skipped_steps, 3);
  EXPECT_EQ(q.report.checkpoints_written, 2);
}

TEST(ResultPayloadCodec, EmptyPayloadDecodesToDefaults) {
  const Trainer::ResultPayload q =
      Trainer::decode_result(Trainer::encode_result({}));
  EXPECT_EQ(q.resumed_step, 0);
  EXPECT_EQ(q.straggler_rank, -1);
  EXPECT_TRUE(q.step_ewma.empty());
  EXPECT_TRUE(q.report.train_losses.empty());
}

TEST(ResultPayloadCodec, TruncatedBytesAreRejected) {
  const std::string bytes = Trainer::encode_result(
      {3, 1, {0.5, 0.5}, {{1.0f, 2.0f}, {}, 0, 0}});
  EXPECT_THROW((void)Trainer::decode_result(bytes.substr(0, bytes.size() - 2)),
               Error);
  EXPECT_THROW((void)Trainer::decode_result(std::string()), Error);
}

// ---------------------------------------------------------------------------
// Integration fixtures (mirrors test_elastic's TrainSetup).

/// Tiny-GPT, 10 steps, checkpoints at 3/6/9, ZeRO-3 + NVMe.
struct StragglerSetup {
  GptConfig mc;
  TokenDataset data{std::vector<std::int32_t>(400, 1), 16};

  StragglerSetup() {
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

  /// A clean default-options run (detection off) with optional
  /// weights — the static control a rebalanced world is compared against.
  std::pair<std::vector<float>, std::int64_t> run(const fs::path& dir,
                                                  int ranks, AioEngine& aio,
                                                  const RankWeights& weights) {
    TrainerConfig tc = trainer_config(dir);
    tc.rank_weights = weights;
    EngineConfig cfg = engine_config(dir);
    if (cfg.params_partitioned() && cfg.bandwidth_centric) {
      cfg.rank_weights = weights;
    }
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
                  << "s — straggler wind-down failed to complete";
    std::abort();
  }
  return fut.get();
}

class StragglerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().clear();
    dir_ = fs::temp_directory_path() /
           ("zi_straggler_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::instance().clear();
    fs::remove_all(dir_);
  }
  fs::path dir_;
};

// Weighted training is a pure performance knob: a weighted run checkpoints
// and resumes onto its own trajectory bit-exactly, through the same
// universal-checkpoint path the uniform runs use.
TEST_F(StragglerTest, WeightedRunResumesBitIdentically) {
  StragglerSetup setup;
  AioEngine aio;
  const RankWeights weights{1.25, 0.75};

  // Uninterrupted weighted run: 10 steps, checkpoints at 3/6/9.
  auto [full_losses, full_resumed] = setup.run(dir_, 2, aio, weights);
  ASSERT_EQ(full_losses.size(), 10u);
  ASSERT_EQ(full_resumed, 0);

  // A fresh world over the same directory resumes from step 9 and replays
  // step 10 bit-for-bit.
  auto [tail_losses, tail_resumed] = setup.run(dir_, 2, aio, weights);
  ASSERT_EQ(tail_resumed, 9);
  ASSERT_EQ(tail_losses.size(), 1u);
  EXPECT_EQ(tail_losses[0], full_losses[9]);
}

// The per-rank micro-batch sizes follow the weights (batch_per_rank is the
// mean) and the loss weighting keeps the collective schedule consistent.
TEST_F(StragglerTest, TrainerApportionsBatchesByWeight) {
  StragglerSetup setup;
  AioEngine aio;
  TrainerConfig tc = setup.trainer_config(dir_);
  tc.total_steps = 1;
  tc.checkpoint_every = 0;
  tc.checkpoint_path.clear();
  tc.rank_weights = {1.25, 0.75};  // global batch 4 -> {3, 1}
  EngineConfig cfg = setup.engine_config(dir_);
  cfg.rank_weights = tc.rank_weights;
  std::vector<std::int64_t> batches(2, -1);
  run_ranks(2, [&](Communicator& comm) {
    Gpt model(setup.mc);
    ZeroEngine engine(model, comm, aio, cfg);
    Trainer trainer(engine, comm, setup.data, nullptr, tc);
    batches[static_cast<std::size_t>(comm.rank())] = trainer.rank_batch();
    (void)trainer.run();
  });
  EXPECT_EQ(batches, (std::vector<std::int64_t>{3, 1}));
}

// The headline: detect -> wind down -> rebalance -> resume bit-identically.
TEST_F(StragglerTest, InjectedStragglerIsRebalancedBitIdentically) {
  StragglerSetup setup;
  AioEngine aio;

  // World options shared by the probe and the elastic run: detection armed,
  // an 8 s comm deadline.
  const double kFactor = 3.0;
  const int kSteps = 2;
  ElasticConfig ec;
  ec.ranks = 4;
  ec.min_ranks = 2;
  ec.max_restarts = 2;
  ec.world.timeout_ms = 8000.0;
  ec.world.straggler_factor = kFactor;
  ec.world.straggler_steps = kSteps;
  ec.trainer = setup.trainer_config(dir_);
  const EngineConfig cfg = setup.engine_config(dir_);

  // --- Phase A: probe. A never-firing rank_stall rule counts collective
  // entries per rank, and a sky-high factor keeps the armed detector from
  // ever convicting while its EWMAs measure the world's typical busy time.
  // Entry counts and busy times transfer exactly: the probe body is the
  // elastic attempt body op-for-op (try_resume finds nothing in the fresh
  // probe directory, just like attempt 1 in the fresh run directory).
  FaultInjector::instance().configure(
      "seed=17;rank_stall:delay,rank=2,after=1000000000,delay_us=1");
  const fs::path probe_dir = dir_ / "probe";
  fs::create_directories(probe_dir);
  std::vector<double> probe_ewma;
  {
    WorldOptions probe_opts = ec.world;
    probe_opts.straggler_factor = 1e9;  // armed but unconvictable
    const TrainerConfig ptc = setup.trainer_config(probe_dir);
    const EngineConfig pcfg = setup.engine_config(probe_dir);
    const WorldReport wr =
        run_world(4, probe_opts, [&](Communicator& comm) {
          Gpt model(setup.mc);
          ZeroEngine engine(model, comm, aio, pcfg);
          Trainer trainer(engine, comm, setup.data, nullptr, ptc);
          trainer.try_resume();
          TrainerReport out = trainer.run();
          if (comm.rank() == 0) {
            comm.set_result(Trainer::encode_result(
                {trainer.resumed_step(), trainer.straggler_verdict(),
                 trainer.step_ewma(), std::move(out)}));
          }
        });
    ASSERT_TRUE(wr.ok) << (wr.errors.empty() ? "?" : wr.errors.front());
    const Trainer::ResultPayload payload =
        Trainer::decode_result(wr.rank_payloads.front());
    ASSERT_EQ(payload.straggler_rank, -1);
    ASSERT_EQ(payload.report.train_losses.size(), 10u);
    probe_ewma = payload.step_ewma;
    ASSERT_EQ(probe_ewma.size(), 4u);
  }
  const std::uint64_t total =
      FaultInjector::instance().stats(FaultSite::kRankStall).ops;
  ASSERT_GT(total, 0u);
  ASSERT_EQ(total % 4, 0u) << "ranks ran asymmetric collective sequences";
  // Per-rank collective entries per step (averaged over the 10-step run,
  // checkpoint collectives included).
  const std::int64_t per_step = static_cast<std::int64_t>(total / 4 / 10);
  ASSERT_GT(per_step, 0);

  // Typical busy time = lower median of the probe EWMAs; the injected
  // stall makes one fully-slowed step cost ~10x that, so the EWMA clears
  // kFactor x median with a wide margin after a single stalled step.
  std::vector<double> sorted_ewma = probe_ewma;
  std::nth_element(sorted_ewma.begin(), sorted_ewma.begin() + 1,
                   sorted_ewma.end());
  const double busy_median = std::max(sorted_ewma[1], 1e-5);
  const std::int64_t delay_us = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(10.0 * busy_median * 1e6 /
                                static_cast<double>(per_step)),
      500, 2000000);

  // --- Phase B: the real run. Rank 2 stalls delay_us at every collective
  // entry from step 4 on, with a budget of 1.5 steps' worth of fires: the
  // verdict (streak of kSteps = 2) lands on step 4 or 5 and consumes the
  // budget on the way, so the rebalanced attempt sees at most a sliver of
  // leftover fires — and those burn off inside its checkpoint-load
  // collectives, which run before step timing starts. One conviction, one
  // rebalance; a larger budget would convict the restarted world again.
  FaultInjector::instance().clear();
  FaultInjector::instance().configure(
      "seed=17;rank_stall:delay,rank=2,after=" + std::to_string(3 * per_step) +
      ",count=" + std::to_string(3 * per_step / 2) +
      ",delay_us=" + std::to_string(delay_us));
  const std::uint64_t restarts_before = elastic_restart_count();

  const ElasticReport rep = run_elastic_guarded(
      ec, cfg, aio, setup.data,
      [&setup] { return std::make_unique<Gpt>(setup.mc); },
      std::chrono::seconds(300));
  FaultInjector::instance().clear();

  ASSERT_TRUE(rep.succeeded) << (rep.attempts.empty()
                                     ? std::string("no attempts")
                                     : rep.attempts.back().error);
  EXPECT_EQ(rep.restarts, 1);
  EXPECT_EQ(rep.final_world, 4);  // rebalance keeps every rank
  EXPECT_EQ(elastic_restart_count(), restarts_before + 1);
  ASSERT_EQ(rep.attempts.size(), 2u);

  const ElasticAttempt& convicted = rep.attempts[0];
  EXPECT_FALSE(convicted.completed);
  EXPECT_EQ(convicted.world, 4);
  EXPECT_EQ(convicted.kind, WorldFailKind::kStraggler);
  EXPECT_EQ(convicted.culprit_rank, 2);
  EXPECT_EQ(convicted.ranks_lost, 0);  // the straggler is alive
  EXPECT_TRUE(convicted.rank_weights.empty());  // attempt 1 ran uniform
  EXPECT_NE(convicted.error.find("straggler verdict on rank 2"),
            std::string::npos)
      << convicted.error;

  const ElasticAttempt& rebalanced = rep.attempts[1];
  EXPECT_TRUE(rebalanced.completed);
  EXPECT_EQ(rebalanced.world, 4);
  const RankWeights& weights = rebalanced.rank_weights;
  ASSERT_EQ(weights.size(), 4u);
  // Weights ~ 1/observed-time, normalized to mean 1: the convicted rank
  // gets strictly the smallest share.
  double wsum = 0.0;
  for (int r = 0; r < 4; ++r) {
    EXPECT_GT(weights[static_cast<std::size_t>(r)], 0.0);
    wsum += weights[static_cast<std::size_t>(r)];
    if (r != 2) {
      EXPECT_LT(weights[2], weights[static_cast<std::size_t>(r)])
          << "rank " << r;
    }
  }
  EXPECT_NEAR(wsum, 4.0, 1e-9);

  const std::int64_t resumed = rebalanced.resumed_step;
  EXPECT_TRUE(resumed == 0 || resumed == 3 || resumed == 6)
      << "resumed from step " << resumed;
  ASSERT_EQ(rep.report.train_losses.size(),
            static_cast<std::size_t>(10 - resumed));

  // --- Phase C: control. Copy the exact checkpoint the rebalanced attempt
  // resumed from into a fresh directory and run a clean 4-rank world
  // launched *statically* with the same weights. Weighted layouts are exact
  // re-partitionings and reductions keep their rank order, so the two
  // trajectories must be bitwise equal.
  const fs::path ctrl_dir = dir_ / "control";
  fs::create_directories(ctrl_dir);
  if (resumed > 0) {
    const std::string src = Trainer::checkpoint_file(
        setup.trainer_config(dir_).checkpoint_path, resumed);
    ASSERT_TRUE(fs::exists(src));
    ASSERT_TRUE(fs::exists(ckpt_manifest_path(src)));
    const std::string dst = Trainer::checkpoint_file(
        setup.trainer_config(ctrl_dir).checkpoint_path, resumed);
    fs::copy_file(src, dst);
    fs::copy_file(ckpt_manifest_path(src), ckpt_manifest_path(dst));
  }

  auto [control_losses, control_resumed] =
      setup.run(ctrl_dir, 4, aio, weights);
  EXPECT_EQ(control_resumed, resumed);
  ASSERT_EQ(control_losses.size(), rep.report.train_losses.size());
  for (std::size_t i = 0; i < control_losses.size(); ++i) {
    EXPECT_EQ(control_losses[i], rep.report.train_losses[i])
        << "post-rebalance step " << resumed + static_cast<std::int64_t>(i) + 1
        << " diverged from the static same-weights control";
  }
}

}  // namespace
}  // namespace zi
