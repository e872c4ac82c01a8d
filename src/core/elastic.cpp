#include "core/elastic.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>

#include "common/log.hpp"
#include "core/partition.hpp"
#include "obs/trace.hpp"

namespace zi {

namespace {
std::atomic<std::uint64_t> g_elastic_restarts{0};

// Rank 0's results travel through Communicator::set_result (encoded by
// Trainer::encode_result) so they survive the proc transport, where the
// rank body runs in a forked subprocess and by-reference lambda captures
// never reach the supervisor. Binary serialization (memcpy of the float
// bits) keeps resumed losses bit-exact across the boundary — the elastic
// tests compare them to an uninterrupted control run.

/// Rebalance weights from observed per-rank busy-time EWMAs: relative
/// throughput ∝ 1/time, normalized to mean 1 (any positive scale would do;
/// mean 1 keeps logs and test expectations readable). Empty or degenerate
/// observations yield empty weights — i.e. stay uniform.
RankWeights weights_from_ewma(const std::vector<double>& ewma) {
  RankWeights w;
  if (ewma.empty()) return w;
  for (const double e : ewma) {
    if (!(e > 0.0)) return w;
  }
  w.reserve(ewma.size());
  double sum = 0.0;
  for (const double e : ewma) {
    w.push_back(1.0 / e);
    sum += w.back();
  }
  const double mean = sum / static_cast<double>(w.size());
  for (double& x : w) x /= mean;
  return w;
}
}  // namespace

std::uint64_t elastic_restart_count() noexcept {
  return g_elastic_restarts.load(std::memory_order_relaxed);
}

ElasticReport run_elastic(const ElasticConfig& config,
                          const EngineConfig& engine_config, AioEngine& aio,
                          const TokenDataset& train,
                          const TokenDataset* eval_data,
                          const ModelFactory& make_model) {
  ZI_CHECK(config.ranks >= 1);
  ZI_CHECK(config.min_ranks >= 1 && config.min_ranks <= config.ranks);

  ElasticReport rep;
  int world = config.ranks;
  RankWeights cur_weights;  // empty = uniform; filled on rebalance
  for (;;) {
    ElasticAttempt attempt;
    attempt.world = world;
    attempt.rank_weights = cur_weights;
    ZI_TRACE_SPAN("elastic", "attempt",
                  "\"world\":" + std::to_string(world));
    // Weighted sharding is only defined for stage-3 bandwidth-centric
    // partitioning; other configurations still rebalance the per-rank
    // micro-batches through the trainer weights.
    EngineConfig ec = engine_config;
    if (engine_config.params_partitioned() && engine_config.bandwidth_centric) {
      ec.rank_weights = cur_weights;
    }
    TrainerConfig tc = config.trainer;
    tc.rank_weights = cur_weights;
    const WorldReport wr =
        run_world(world, config.world, [&, ec, tc](Communicator& comm) {
          std::unique_ptr<TrainableModel> model = make_model();
          ZeroEngine engine(*model, comm, aio, ec);
          Trainer trainer(engine, comm, train, eval_data, tc);
          trainer.try_resume();
          TrainerReport out = trainer.run();
          if (comm.rank() == 0) {
            comm.set_result(Trainer::encode_result(
                {trainer.resumed_step(), trainer.straggler_verdict(),
                 trainer.step_ewma(), std::move(out)}));
          }
        });
    Trainer::ResultPayload payload;
    if (!wr.rank_payloads.empty() && !wr.rank_payloads.front().empty()) {
      payload = Trainer::decode_result(wr.rank_payloads.front());
    }
    attempt.resumed_step = payload.resumed_step;
    if (wr.ok && payload.straggler_rank < 0) {
      attempt.completed = true;
      rep.attempts.push_back(std::move(attempt));
      rep.succeeded = true;
      rep.final_world = world;
      rep.report = std::move(payload.report);
      return rep;
    }

    if (wr.ok) {
      // Straggler verdict: the world wound down cleanly (no poison, no rank
      // lost). Relaunch the SAME world size with throughput-derived weights
      // so the slow rank carries proportionally less state and batch.
      attempt.culprit_rank = payload.straggler_rank;
      attempt.kind = WorldFailKind::kStraggler;
      attempt.ranks_lost = 0;
      attempt.error = "straggler verdict on rank " +
                      std::to_string(payload.straggler_rank) +
                      " (sustained slow step times)";
      rep.attempts.push_back(attempt);
      if (rep.restarts >= config.max_restarts) {
        ZI_LOG_ERROR << "elastic: giving up after " << rep.restarts
                     << " restart(s) (max " << config.max_restarts
                     << "): " << attempt.error;
        rep.final_world = world;
        return rep;
      }
      ++rep.restarts;
      g_elastic_restarts.fetch_add(1, std::memory_order_relaxed);
      cur_weights = weights_from_ewma(payload.step_ewma);
      ZI_TRACE_INSTANT("elastic", "rebalance");
      std::ostringstream ws;
      for (std::size_t i = 0; i < cur_weights.size(); ++i) {
        ws << (i ? " " : "") << cur_weights[i];
      }
      ZI_LOG_WARN << "elastic rebalance " << rep.restarts << ": straggler on "
                  << "rank " << payload.straggler_rank << "; relaunching "
                  << world << " ranks with weights [" << ws.str() << "]";
      continue;
    }

    attempt.culprit_rank = wr.culprit_rank;
    attempt.kind = wr.kind;
    attempt.error = !wr.culprit_what.empty()
                        ? wr.culprit_what
                        : (!wr.errors.empty() ? wr.errors.front()
                                              : "unknown world failure");
    // Charge the attempt for its real casualties: ranks that failed on
    // their own (primary exceptions) plus wedged/detached ones. A pure
    // timeout/stall abort has no primaries — the blamed suspect is the one
    // casualty.
    attempt.ranks_lost = std::max<int>(
        1, static_cast<int>(wr.primary_ranks.size()) + wr.detached);
    rep.attempts.push_back(attempt);

    const int survivors = world - attempt.ranks_lost;
    if (survivors < config.min_ranks || rep.restarts >= config.max_restarts) {
      ZI_LOG_ERROR << "elastic: giving up after " << rep.restarts
                   << " restart(s): " << survivors << " survivor(s) of "
                   << world << " (min " << config.min_ranks << ", max "
                   << config.max_restarts << " restarts); last failure: "
                   << attempt.error;
      rep.final_world = world;
      return rep;
    }
    ++rep.restarts;
    g_elastic_restarts.fetch_add(1, std::memory_order_relaxed);
    ZI_TRACE_INSTANT("elastic", "restart");
    ZI_LOG_WARN << "elastic restart " << rep.restarts << ": world " << world
                << " -> " << survivors << " after "
                << world_fail_kind_name(attempt.kind) << " on rank "
                << attempt.culprit_rank << " (" << attempt.error << ")";
    // With detection on, the crashed world's last progress payload still
    // carries per-rank EWMAs: rebalance the survivors from observed
    // throughput (drop the single known casualty's entry; anything murkier
    // falls back to uniform). Detection off → empty EWMAs → uniform, which
    // keeps the legacy shrink-restart trajectory byte-for-byte.
    std::vector<double> ewma = payload.step_ewma;
    if (static_cast<int>(ewma.size()) == world && attempt.ranks_lost == 1 &&
        wr.culprit_rank >= 0 && wr.culprit_rank < world) {
      ewma.erase(ewma.begin() + wr.culprit_rank);
    } else if (static_cast<int>(ewma.size()) != survivors) {
      ewma.clear();
    }
    cur_weights = weights_from_ewma(ewma);
    world = survivors;
  }
}

}  // namespace zi
