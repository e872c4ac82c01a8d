// Elastic training supervisor — restart-from-checkpoint above Trainer.
//
// ZeRO-Infinity's target runs (hundreds of workers, days of wall clock)
// treat a worker failure as routine. The abortable communicator
// (comm/world.hpp) turns a dead or stalled rank into a clean world abort;
// this layer turns the abort into a restart: tear the failed world down,
// relaunch on the surviving rank count, and resume from the newest intact
// checkpoint via Trainer::try_resume(). Universal (world-size-independent)
// checkpoints are what make the shrink legal — a 4-rank checkpoint loads on
// a 3-rank world with every ZeRO stage's repartitioning handled by the
// engine's existing save/load path, and the resumed trajectory is
// bit-identical to a clean run of the smaller world resumed from the same
// checkpoint (see test_elastic.cpp).
//
// Straggler rebalance: when the world's straggler detector convicts a
// sustained-slow rank (WorldOptions::straggler_*), the attempt winds down
// *cleanly* — no poison, no rank lost — and the supervisor relaunches the
// SAME world size with RankWeights derived from the observed per-rank
// busy-time EWMAs (throughput ∝ 1/time): the slow rank gets smaller shards
// and fewer sequences per micro-batch. Crash restarts rebalance too when
// detection was on, using the last progress payload's EWMAs for the
// survivors. Resumption stays bit-identical to a control launched
// statically with the same weights (see test_straggler.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/world.hpp"
#include "core/engine.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "model/trainable.hpp"

namespace zi {

struct ElasticConfig {
  int ranks = 2;         ///< initial world size
  int min_ranks = 1;     ///< give up when fewer ranks would survive
  int max_restarts = 3;  ///< give up after this many relaunches
  /// Per-attempt world options; their comm deadline (timeout_ms) is what
  /// turns a hung peer into a detected failure the supervisor can act on.
  WorldOptions world = WorldOptions::from_env();
  TrainerConfig trainer;
};

/// One world launch within an elastic run.
struct ElasticAttempt {
  int world = 0;               ///< rank count this attempt ran with
  std::int64_t resumed_step = 0;  ///< what try_resume() reported (rank 0)
  bool completed = false;
  /// World-blamed first failure — or, for kind == kStraggler, the convicted
  /// slow rank (which is alive; ranks_lost stays 0 in that case).
  int culprit_rank = -1;
  WorldFailKind kind = WorldFailKind::kNone;
  int ranks_lost = 0;          ///< ranks this attempt is charged for losing
  std::string error;           ///< first-failure description
  /// RankWeights this attempt ran with (empty = uniform). A straggler (or
  /// detection-on crash) restart fills the *next* attempt's weights from
  /// observed throughput; tests replay them into a static control world.
  std::vector<double> rank_weights;
};

struct ElasticReport {
  bool succeeded = false;
  int restarts = 0;
  int final_world = 0;
  std::vector<ElasticAttempt> attempts;
  TrainerReport report;  ///< rank 0's report from the successful attempt
};

/// Builds one rank's model instance inside a fresh world (called once per
/// rank per attempt; must be deterministic across ranks and attempts).
using ModelFactory = std::function<std::unique_ptr<TrainableModel>()>;

/// Run training under the elastic restart loop. `eval_data` may be null.
/// Caveat inherited from run_world: an attempt that detaches a wedged rank
/// leaves a zombie thread that may still reference `aio`, `train`, the
/// factory, and the configs — keep them alive for the process lifetime
/// (test fixtures and main()-scope objects satisfy this naturally).
ElasticReport run_elastic(const ElasticConfig& config,
                          const EngineConfig& engine_config, AioEngine& aio,
                          const TokenDataset& train,
                          const TokenDataset* eval_data,
                          const ModelFactory& make_model);

/// Process-lifetime count of elastic world relaunches (parallels
/// comm_abort_count(); surfaced in the per-step metrics line).
std::uint64_t elastic_restart_count() noexcept;

}  // namespace zi
