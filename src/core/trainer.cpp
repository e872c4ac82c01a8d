#include "core/trainer.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/ckpt_io.hpp"
#include "core/partition.hpp"

namespace zi {

namespace fs = std::filesystem;

namespace {

/// Existing `<base>.step<k>` checkpoint files, newest step first. Sidecars
/// (.manifest) and interrupted writes (.tmp) are not candidates.
std::vector<std::int64_t> list_checkpoint_steps(const std::string& base) {
  const fs::path base_path(base);
  const fs::path dir =
      base_path.parent_path().empty() ? "." : base_path.parent_path();
  const std::string prefix = base_path.filename().string() + ".step";
  std::vector<std::int64_t> steps;
  if (!fs::is_directory(dir)) return steps;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix))
      continue;
    const std::string digits = name.substr(prefix.size());
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    // from_chars instead of stoll: a digit suffix too long for int64
    // (e.g. a stray "ckpt.step99999999999999999999999" file) must be
    // skipped, not crash resume with std::out_of_range.
    std::int64_t step = 0;
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), step);
    if (ec != std::errc() || ptr != digits.data() + digits.size()) continue;
    steps.push_back(step);
  }
  std::sort(steps.rbegin(), steps.rend());
  return steps;
}

template <typename T>
void append_raw(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_raw(const std::string& s, std::size_t& off) {
  T v{};
  ZI_CHECK_MSG(off + sizeof(T) <= s.size(), "truncated trainer result payload");
  std::memcpy(&v, s.data() + off, sizeof(T));
  off += sizeof(T);
  return v;
}

}  // namespace

std::string Trainer::encode_result(const ResultPayload& payload) {
  std::string out;
  append_raw(out, payload.resumed_step);
  append_raw(out, static_cast<std::int64_t>(payload.straggler_rank));
  append_raw(out, payload.report.skipped_steps);
  append_raw(out, payload.report.checkpoints_written);
  append_raw(out, static_cast<std::uint64_t>(payload.step_ewma.size()));
  for (const double e : payload.step_ewma) append_raw(out, e);
  append_raw(out,
             static_cast<std::uint64_t>(payload.report.train_losses.size()));
  for (const float l : payload.report.train_losses) append_raw(out, l);
  append_raw(out,
             static_cast<std::uint64_t>(payload.report.eval_losses.size()));
  for (const float l : payload.report.eval_losses) append_raw(out, l);
  return out;
}

Trainer::ResultPayload Trainer::decode_result(const std::string& bytes) {
  ResultPayload p;
  std::size_t off = 0;
  p.resumed_step = read_raw<std::int64_t>(bytes, off);
  p.straggler_rank = static_cast<int>(read_raw<std::int64_t>(bytes, off));
  p.report.skipped_steps = read_raw<std::int64_t>(bytes, off);
  p.report.checkpoints_written = read_raw<std::int64_t>(bytes, off);
  const auto n_ewma = read_raw<std::uint64_t>(bytes, off);
  p.step_ewma.reserve(n_ewma);
  for (std::uint64_t i = 0; i < n_ewma; ++i) {
    p.step_ewma.push_back(read_raw<double>(bytes, off));
  }
  const auto n_train = read_raw<std::uint64_t>(bytes, off);
  p.report.train_losses.reserve(n_train);
  for (std::uint64_t i = 0; i < n_train; ++i) {
    p.report.train_losses.push_back(read_raw<float>(bytes, off));
  }
  const auto n_eval = read_raw<std::uint64_t>(bytes, off);
  p.report.eval_losses.reserve(n_eval);
  for (std::uint64_t i = 0; i < n_eval; ++i) {
    p.report.eval_losses.push_back(read_raw<float>(bytes, off));
  }
  return p;
}

Trainer::Trainer(ZeroEngine& engine, Communicator& comm,
                 const TokenDataset& train, const TokenDataset* eval_data,
                 TrainerConfig config)
    : engine_(engine),
      comm_(comm),
      train_(train),
      eval_(eval_data),
      config_(std::move(config)),
      rank_batch_(config_.batch_per_rank) {
  ZI_CHECK(config_.total_steps > 0);
  ZI_CHECK(config_.batch_per_rank > 0);
  ZI_CHECK(config_.micro_batches > 0);
  ZI_CHECK(config_.checkpoint_keep >= 1);
  if (!config_.rank_weights.empty()) {
    ZI_CHECK_MSG(static_cast<int>(config_.rank_weights.size()) == comm_.size(),
                 "TrainerConfig::rank_weights size "
                     << config_.rank_weights.size() << " != world "
                     << comm_.size());
    const std::int64_t total = config_.batch_per_rank * comm_.size();
    const std::vector<std::int64_t> parts =
        apportion_batches(total, config_.rank_weights);
    rank_batch_ = parts[static_cast<std::size_t>(comm_.rank())];
    // Keep the global loss a per-sequence mean: each rank's contribution
    // is weighted by its share of the global batch.
    engine_.set_loss_weight(static_cast<double>(rank_batch_) /
                            static_cast<double>(total));
  }
}

std::string Trainer::checkpoint_file(const std::string& base,
                                     std::int64_t step) {
  return base + ".step" + std::to_string(step);
}

std::int64_t Trainer::try_resume() {
  if (config_.checkpoint_path.empty()) return 0;
  for (const std::int64_t step : list_checkpoint_steps(config_.checkpoint_path)) {
    const std::string file = checkpoint_file(config_.checkpoint_path, step);
    try {
      engine_.load_checkpoint(file);
      if (comm_.rank() == 0) {
        ZI_LOG_INFO << "resumed from " << file << " (step " << step << ")";
      }
      resumed_step_ = step;
      return step;
    } catch (const CheckpointCorruptionError& e) {
      // Uncommitted (no manifest) or corrupt. Every rank reads the same
      // bytes, so all ranks throw (and fall back) in lockstep.
      if (comm_.rank() == 0) {
        ZI_LOG_WARN << "checkpoint rejected: " << e.what()
                    << "; trying an older one";
      }
    } catch (const IoError& e) {
      if (comm_.rank() == 0) {
        ZI_LOG_WARN << "checkpoint unreadable: " << e.what()
                    << "; trying an older one";
      }
    }
  }
  return 0;
}

TrainerReport Trainer::run() {
  TrainerReport report;
  std::vector<std::vector<std::int32_t>> tok(
      static_cast<std::size_t>(config_.micro_batches));
  std::vector<std::vector<std::int32_t>> tgt(tok.size());
  std::vector<ZeroEngine::MicroBatch> micros(tok.size());

  const WorldOptions& wopts = comm_.options();
  const bool detect = wopts.straggler_detection_enabled();
  StragglerDetector detector(comm_.size(), wopts.straggler_factor,
                             wopts.straggler_steps);
  std::vector<double> busy_all(static_cast<std::size_t>(comm_.size()));

  for (std::int64_t step = engine_.steps() + 1; step <= config_.total_steps;
       ++step) {
    // One beat per step: compute-heavy phases between collectives must not
    // look like stalls to the world watchdog.
    comm_.heartbeat();
    const auto step_t0 = std::chrono::steady_clock::now();
    const double wait0 = comm_.comm_wait_seconds();
    engine_.set_learning_rate(config_.schedule.at(step));
    for (int m = 0; m < config_.micro_batches; ++m) {
      // Distinct stream per (step, micro, rank), identical across
      // strategies: the step axis is stretched by the accumulation factor.
      const std::int64_t stream = step * config_.micro_batches + m;
      train_.sample_batch(stream, comm_.rank(), rank_batch_,
                          tok[static_cast<std::size_t>(m)],
                          tgt[static_cast<std::size_t>(m)]);
      micros[static_cast<std::size_t>(m)] = {tok[static_cast<std::size_t>(m)],
                                             tgt[static_cast<std::size_t>(m)]};
    }
    const auto st = engine_.train_step(micros);
    report.train_losses.push_back(st.global_loss);
    if (st.skipped) ++report.skipped_steps;

    if (detect) {
      // Busy time = wall − collective-sync waits: in lockstep SPMD every
      // rank's wall time converges to the slowest rank's, so the waits must
      // be subtracted to see who is actually slow. The allgathered vector is
      // bit-identical on every rank, so the detector (a pure function of
      // its observations) reaches any verdict in lockstep.
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        step_t0)
              .count();
      const double busy =
          std::max(wall - (comm_.comm_wait_seconds() - wait0), 0.0);
      comm_.allgather<double>(std::span<const double>(&busy, 1), busy_all);
      straggler_verdict_ = detector.observe(busy_all);
      step_ewma_ = detector.ewma();
      WorldHealth& h = comm_.health();
      for (int r = 0; r < comm_.size(); ++r) {
        h.note_step_ewma(r, step_ewma_[static_cast<std::size_t>(r)]);
      }
      if (straggler_verdict_ >= 0) h.record_straggler(straggler_verdict_);
    }

    if (eval_ != nullptr && config_.eval_every > 0 &&
        step % config_.eval_every == 0) {
      std::vector<std::int32_t> etok, etgt;
      // Fixed eval stream (step 0) so the metric is comparable over time.
      eval_->sample_batch(0, comm_.rank(), config_.eval_batch, etok, etgt);
      report.eval_losses.push_back(engine_.eval_loss(etok, etgt));
    }

    if (config_.checkpoint_every > 0 && !config_.checkpoint_path.empty() &&
        step % config_.checkpoint_every == 0) {
      engine_.save_checkpoint(checkpoint_file(config_.checkpoint_path, step));
      ++report.checkpoints_written;
      if (comm_.rank() == 0) prune_checkpoints();
      comm_.barrier();  // no rank races ahead while files are being removed
    }

    if (detect && comm_.rank() == 0) {
      // Progress payload every step: if this world later dies — or winds
      // down on a verdict — the supervisor still holds fresh EWMAs to
      // compute rebalance weights from. Not a collective, so it leaves
      // fault-injection ordinals untouched.
      comm_.set_result(encode_result(
          {resumed_step_, straggler_verdict_, step_ewma_, report}));
    }

    if (straggler_verdict_ >= 0) {
      if (comm_.rank() == 0) {
        ZI_LOG_WARN << "straggler verdict: rank " << straggler_verdict_
                    << " sustained > " << wopts.straggler_factor
                    << "x median busy time for " << wopts.straggler_steps
                    << " steps; winding down at step " << step
                    << " for rebalance";
      }
      break;  // every rank breaks on the same step (lockstep determinism)
    }
  }
  return report;
}

void Trainer::prune_checkpoints() {
  const auto steps = list_checkpoint_steps(config_.checkpoint_path);
  for (std::size_t i = static_cast<std::size_t>(config_.checkpoint_keep);
       i < steps.size(); ++i) {
    const std::string file =
        checkpoint_file(config_.checkpoint_path, steps[i]);
    std::error_code ec;  // best-effort: a vanished file is not an error
    fs::remove(file, ec);
    fs::remove(ckpt_manifest_path(file), ec);
    fs::remove(file + ".tmp", ec);
    fs::remove(ckpt_manifest_path(file) + ".tmp", ec);
  }
}

}  // namespace zi
