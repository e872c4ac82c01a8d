// MetricsSink — per-step machine-readable training metrics as JSON lines.
//
// Each ZeroEngine::train_step, when metrics are enabled, snapshots the
// existing counter surfaces (CommTraffic, AioEngine::Stats,
// ParamCoordinator::Stats, MemoryAccountant, DeviceArena/PinnedBufferPool)
// into a StepReport — step time and phase breakdown, bytes moved per tier
// and per collective, arena high-water, prefetch hit rate — and appends one
// JSON object per line to the ZI_METRICS=<path> file. One line per
// (step, rank); comm and AIO counters are shared across ranks and are
// reported as world-aggregate deltas sampled at the rank's step boundaries.
//
// Disabled cost is one relaxed atomic load per step (lock_tracker /
// fault_injector pattern): the snapshotting itself only runs when enabled.
// Like trace.hpp this header is std-only so any layer can use it.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/report.hpp"

namespace zi {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace detail

/// One training step's metrics on one rank, declared once (obs/report.hpp).
/// kDelta fields are deltas over the step; kValue counters named *_used /
/// *_peak are absolute occupancy / high-water.
// clang-format off
#define ZI_STEP_REPORT_FIELDS(X)                                               \
  X(step, std::int64_t, 0, kValue, "Training-step index this line describes.") \
  X(rank, int, 0, kValue, "Reporting rank.")                                   \
  X(world, int, 1, kValue, "World size at emission time.")                     \
  X(loss, float, 0.0f, kValue,                                                 \
    "Step loss, mean across ranks (`StepStats::global_loss`).")                \
  X(skipped, bool, false, kValue,                                              \
    "`true` when an fp16 overflow skipped the optimizer step.")                \
  X(step_seconds, double, 0.0, kValue,                                         \
    "Wall-clock duration of the whole step.")                                  \
  X(fwd_seconds, double, 0.0, kValue,                                          \
    "Forward-pass wall-clock (all micro-batches).")                            \
  X(bwd_seconds, double, 0.0, kValue,                                          \
    "Backward-pass wall-clock, gradient reduction included.")                  \
  X(opt_seconds, double, 0.0, kValue,                                          \
    "Optimizer-step wall-clock, state movement included.")                     \
  X(fetch_seconds, double, 0.0, kDelta,                                        \
    "Time blocked gathering parameters this step (inside fwd/bwd).")           \
  X(reduce_seconds, double, 0.0, kDelta,                                       \
    "Gradient reduce-scatter time this step (inside bwd).")                    \
  X(allgather_bytes, std::uint64_t, 0, kDelta,                                 \
    "Bytes moved by allgather this step (world-aggregate).")                   \
  X(reduce_scatter_bytes, std::uint64_t, 0, kDelta,                            \
    "Bytes moved by reduce-scatter this step (world-aggregate).")              \
  X(broadcast_bytes, std::uint64_t, 0, kDelta,                                 \
    "Bytes moved by broadcast this step (world-aggregate).")                   \
  X(allreduce_bytes, std::uint64_t, 0, kDelta,                                 \
    "Bytes moved by allreduce this step (world-aggregate).")                   \
  X(collectives, std::uint64_t, 0, kDelta,                                     \
    "Collective operations this step (world-aggregate).")                      \
  X(barriers, std::uint64_t, 0, kDelta,                                        \
    "Barriers this step (world-aggregate).")                                   \
  X(aio_bytes_read, std::uint64_t, 0, kDelta,                                  \
    "Bytes read through the shared AIO engine this step.")                     \
  X(aio_bytes_written, std::uint64_t, 0, kDelta,                               \
    "Bytes written through the shared AIO engine this step.")                  \
  X(aio_requests, std::uint64_t, 0, kDelta,                                    \
    "AIO requests submitted to the shared engine this step.")                  \
  X(aio_retries, std::uint64_t, 0, kDelta,                                     \
    "AIO sub-request retries this step.")                                      \
  X(fetches, std::uint64_t, 0, kDelta,                                         \
    "Parameter fetches the coordinator performed this step (0 below stage "    \
    "3).")                                                                     \
  X(releases, std::uint64_t, 0, kDelta,                                        \
    "Parameter releases the coordinator performed this step.")                 \
  X(prefetches_issued, std::uint64_t, 0, kDelta,                               \
    "Prefetches the coordinator launched this step.")                          \
  X(prefetch_hits, std::uint64_t, 0, kDelta,                                   \
    "Fetches satisfied by a completed prefetch this step.")                    \
  X(prefetch_drops, std::uint64_t, 0, kDelta,                                  \
    "Prefetches dropped unused this step.")                                    \
  X(prefetch_hit_rate, double, 0.0, kValue,                                    \
    "`prefetch_hits / prefetches_issued` for the step (0 when none).")         \
  X(grads_reduced, std::uint64_t, 0, kDelta,                                   \
    "Gradient partitions reduced this step.")                                  \
  X(move_gpu_fetch_bytes, std::uint64_t, 0, kDelta,                            \
    "DataMover bytes on the gpu>host route this step.")                        \
  X(move_gpu_spill_bytes, std::uint64_t, 0, kDelta,                            \
    "DataMover bytes on the host>gpu route this step.")                        \
  X(move_cpu_fetch_bytes, std::uint64_t, 0, kDelta,                            \
    "DataMover bytes on the cpu>host route this step.")                        \
  X(move_cpu_spill_bytes, std::uint64_t, 0, kDelta,                            \
    "DataMover bytes on the host>cpu route this step.")                        \
  X(move_nvme_fetch_bytes, std::uint64_t, 0, kDelta,                           \
    "DataMover bytes on the nvme>host route this step.")                       \
  X(move_nvme_spill_bytes, std::uint64_t, 0, kDelta,                           \
    "DataMover bytes on the host>nvme route this step.")                       \
  X(move_kv_fetch_bytes, std::uint64_t, 0, kDelta,                             \
    "DataMover bytes on the kv>host route this step (serving decode).")        \
  X(move_kv_spill_bytes, std::uint64_t, 0, kDelta,                             \
    "DataMover bytes on the host>kv route this step (serving decode).")        \
  X(move_transfers, std::uint64_t, 0, kDelta,                                  \
    "DataMover transfers issued this step, all routes (counted at issue, not"  \
    " completion).")                                                           \
  X(move_wait_seconds, double, 0.0, kDelta,                                    \
    "DataMover eager-copy plus async-wait time this step, all routes.")        \
  X(staged_pinned, std::uint64_t, 0, kDelta,                                   \
    "Staging leases served from the pinned pool this step.")                   \
  X(staged_heap, std::uint64_t, 0, kDelta,                                     \
    "Staging leases that fell back to heap memory this step.")                 \
  X(coalesced_transfers, std::uint64_t, 0, kDelta,                             \
    "Scheduled transfers that rode a merged AIO request this step.")           \
  X(coalesce_ratio, double, 0.0, kValue,                                       \
    "`coalesced_transfers / scheduled transfers` for the step (0 when none).") \
  X(sched_preemptions, std::uint64_t, 0, kDelta,                               \
    "Latency-class transfers issued ahead of queued bulk work this step.")     \
  X(sched_latency_wait_seconds, double, 0.0, kDelta,                           \
    "Latency-class submit-to-issue queue wait this step.")                     \
  X(sched_bulk_wait_seconds, double, 0.0, kDelta,                              \
    "Bulk-class submit-to-issue queue wait this step.")                        \
  X(gpu_used, std::uint64_t, 0, kValue,                                        \
    "GPU-tier bytes in use at emission time.")                                 \
  X(gpu_peak, std::uint64_t, 0, kValue, "GPU-tier peak bytes so far.")         \
  X(cpu_used, std::uint64_t, 0, kValue,                                        \
    "CPU-tier bytes in use at emission time.")                                 \
  X(cpu_peak, std::uint64_t, 0, kValue, "CPU-tier peak bytes so far.")         \
  X(nvme_used, std::uint64_t, 0, kValue,                                       \
    "NVMe-tier bytes in use at emission time.")                                \
  X(nvme_peak, std::uint64_t, 0, kValue, "NVMe-tier peak bytes so far.")       \
  X(arena_peak, std::uint64_t, 0, kValue, "Device-arena peak bytes so far.")   \
  X(pinned_blocked, std::uint64_t, 0, kValue,                                  \
    "Pinned-pool acquisitions that had to block, cumulative over the pool's "  \
    "life.")                                                                   \
  X(comm_aborts, std::uint64_t, 0, kValue,                                     \
    "Comm ops aborted or timed out, process-lifetime cumulative (survives "    \
    "elastic restarts).")                                                      \
  X(elastic_restarts, std::uint64_t, 0, kValue,                                \
    "Elastic world restarts, process-lifetime cumulative.")                    \
  X(heartbeat_max_age_ms, double, 0.0, kValue,                                 \
    "True max heartbeat age over the step, across ranks: the larger of the "   \
    "currently open gap and any gap that closed during the step (max-gap "     \
    "watermark), so a stall that starts and ends inside one step still "       \
    "shows.")                                                                  \
  X(step_ewma_ms, double, 0.0, kValue,                                         \
    "This rank's busy-time EWMA from the straggler detector (0 when "          \
    "detection is off).")                                                      \
  X(straggler_rank, int, -1, kValue,                                           \
    "Straggler verdict recorded so far (`kStraggler` observation), or -1.")
// clang-format on

struct StepReport {
  ZI_REPORT_BODY(ZI_STEP_REPORT_FIELDS)
};

/// `cumulative` with `base` subtracted from every kDelta field: the step's
/// report from the counters' running totals and the previous snapshot.
StepReport subtract_deltas(StepReport cumulative, const StepReport& base);

class MetricsSink {
 public:
  static MetricsSink& instance();

  /// The per-step gate: one relaxed atomic load.
  static bool enabled() noexcept {
    return detail::g_metrics_enabled.load(std::memory_order_relaxed);
  }

  /// Open (truncating) `path` for JSONL output and enable the sink. Throws
  /// zi::Error naming the path, with the sink left disabled, when the file
  /// cannot be opened.
  void open(const std::string& path);
  /// Flush, close, and disable.
  void close();

  /// Re-read ZI_METRICS=<path>; runs once automatically at static-init
  /// time, public so tests can re-drive it after setenv().
  void init_from_env();

  /// Append one line (thread-safe; ranks interleave whole lines).
  void write(const StepReport& report);

  struct Impl;  // opaque; defined in metrics.cpp

 private:
  MetricsSink() = default;
  Impl& impl() const;
};

}  // namespace zi
