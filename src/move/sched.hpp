// TransferScheduler — the route-aware scheduling stage between DataMover
// submission and the AIO backend (the ROADMAP's "single biggest raw-speed
// lever": issue NVMe traffic in the order compute needs it, in requests
// large enough to amortize per-request overhead).
//
// Three mechanisms, all decided inside the scheduler rather than by caller
// arrival order:
//
//   * Priority classes. Every transfer carries a TransferClass: kLatency
//     (a fetch compute is about to block on — prefetch misses, the chunked
//     optimizer's state loads) or kBulk (spills, speculative prefetches).
//     Queued latency transfers are issued ahead of queued bulk transfers
//     sharing the AIO worker pool.
//   * Starvation bound. After `starvation_bound` consecutive latency issues
//     while bulk work waits, one bulk transfer is forced through, so spills
//     still drain when fetch traffic saturates the NVMe path.
//   * Coalescing. Consecutive queued transfers on the same route whose
//     file ranges are exactly adjacent (the optimizer's three state streams
//     per chunk, consecutive parameter shards in trace order) merge into
//     one backend request staged through a bounce buffer, then split back
//     to the original tickets on completion. Overlapping ranges, gaps, and
//     cross-route pairs never merge. If a merged request fails, every
//     segment is re-issued individually so retry and fault-injection
//     semantics stay per original handle (split-on-partial-failure).
//
// Built testable-first: the scheduler is passive (no threads of its own —
// state advances inside submit()/wait()/kick() and backend completion
// callbacks), the backend is a virtual seam (NvmeSchedBackend in
// production, a recording fake in tests), and time comes from a SchedClock
// (steady_clock in production, a synthetic counter in tests), so ordering,
// coalescing, and starvation decisions are asserted deterministically.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "aio/nvme_store.hpp"
#include "common/thread_annotations.hpp"
#include "move/transfer.hpp"

namespace zi {

/// Scheduling priority of one transfer. Tagged at the call site (the
/// coordinator and the chunked optimizer know which loads block compute);
/// DataMover defaults fetches to kLatency and spills to kBulk.
enum class TransferClass : int {
  kLatency = 0,  ///< compute blocks on this soon: issue ahead of bulk work
  kBulk = 1,     ///< spills / speculative traffic: fills leftover bandwidth
};
inline constexpr int kNumTransferClasses = 2;

/// "latency" / "bulk".
const char* transfer_class_name(TransferClass c);

/// Time source seam. Production uses the steady clock; tests substitute a
/// synthetic counter so token-bucket decisions are wall-clock-free.
/// Implementations must be safe to call from any thread.
class SchedClock {
 public:
  virtual ~SchedClock() = default;
  virtual std::uint64_t now_ns() = 0;
};

/// One backend I/O as the scheduler issues it: a contiguous byte range of
/// the backing store at an absolute offset. A merged request covers several
/// original transfers; `data` then points into the scheduler's bounce
/// buffer.
struct SchedOp {
  Route route = Route::kNvmeFetch;
  std::uint64_t offset = 0;  ///< absolute byte offset in the backing store
  std::byte* data = nullptr;
  std::size_t len = 0;
};

/// What the scheduler issues to. Contract: `done` must be invoked exactly
/// once when the op completes — from any thread EXCEPT synchronously inside
/// issue() itself (the scheduler holds its lock across the call; production
/// AIO completes on worker threads, test fakes complete under test
/// control).
class SchedBackend {
 public:
  virtual ~SchedBackend() = default;
  [[nodiscard]] virtual AioStatus issue(const SchedOp& op,
                                        std::function<void()> done) = 0;
};

/// Production backend: absolute-offset async I/O on the rank's NvmeStore.
class NvmeSchedBackend final : public SchedBackend {
 public:
  explicit NvmeSchedBackend(NvmeStore& store) : store_(store) {}
  [[nodiscard]] AioStatus issue(const SchedOp& op,
                                std::function<void()> done) override;

 private:
  NvmeStore& store_;
};

namespace detail {
/// Completion state of one scheduled transfer. `done`/`error_code` are
/// atomics so TransferHandle polls stay lock-free; `error` is written under
/// the owning scheduler's mutex before `done` is released and read by
/// waiters after they acquire it.
struct SchedTicket {
  std::atomic<bool> done{false};
  std::atomic<int> error_code{0};
  std::exception_ptr error;
};
}  // namespace detail

class TransferScheduler {
 public:
  struct Config {
    /// Merge adjacent same-route transfers (ZI_MOVE_COALESCE).
    bool coalesce = true;
    /// Byte cap of one merged backend request (ZI_MOVE_MAX_MERGE_BYTES).
    std::uint64_t max_merge_bytes = 4ull << 20;
    /// Only transfers at most this large participate in a merge — big
    /// requests already amortize per-request overhead, and merging them
    /// would just buy an extra bounce copy.
    std::uint64_t coalesce_segment_bytes = 1ull << 20;
    /// Backend requests in flight at once (ZI_MOVE_MAX_INFLIGHT). This is
    /// what gives priorities teeth: excess work queues here, where a
    /// latency fetch can still overtake it.
    std::size_t max_inflight = 4;
    /// Bulk issued at least once per this many consecutive latency issues
    /// while bulk work is queued (ZI_MOVE_STARVATION_BOUND).
    int starvation_bound = 4;
    /// Per-route token-bucket rates in bytes/sec, indexed by Route
    /// (ZI_MOVE_FETCH_MBPS / ZI_MOVE_SPILL_MBPS fill the NVMe routes).
    /// 0 = unlimited.
    std::uint64_t rate_bytes_per_sec[kNumRoutes] = {};
    /// Token-bucket capacity (burst allowance), bytes.
    std::uint64_t burst_bytes = 8ull << 20;

    /// Read the ZI_MOVE_* environment knobs over the defaults above.
    static Config from_env();
  };

  /// Cumulative decision counters, exported through DataMover::Stats into
  /// StepReport.
  struct Stats {
    std::uint64_t scheduled = 0;       ///< transfers entering the scheduler
    std::uint64_t backend_ops = 0;     ///< requests issued to the backend
    std::uint64_t merged_ops = 0;      ///< backend ops carrying >= 2 transfers
    std::uint64_t coalesced_transfers = 0;  ///< transfers that rode a merge
    std::uint64_t preemptions = 0;     ///< latency issued ahead of queued bulk
    std::uint64_t starvation_yields = 0;  ///< bulk forced through by the bound
    std::uint64_t fallback_ops = 0;    ///< per-segment re-issues after a
                                       ///< merged request failed
    std::uint64_t queue_ns[kNumTransferClasses] = {};  ///< submit→issue wait
  };

  using Ticket = std::shared_ptr<detail::SchedTicket>;

  /// `backend` and `clock` (when given) must outlive the scheduler.
  /// `clock == nullptr` uses the steady clock.
  TransferScheduler(SchedBackend& backend, Config config,
                    SchedClock* clock = nullptr);
  /// Drains: every queued transfer is issued (token buckets bypassed) and
  /// every in-flight completion observed before destruction returns.
  ~TransferScheduler();

  TransferScheduler(const TransferScheduler&) = delete;
  TransferScheduler& operator=(const TransferScheduler&) = delete;

  /// Enqueue one transfer of the backing store's [offset, offset+len) and
  /// return its completion ticket. `data` must stay alive until the ticket
  /// completes. Zero-length transfers complete immediately.
  [[nodiscard]] Ticket submit(Route route, TransferClass cls,
                              std::uint64_t offset, std::byte* data,
                              std::size_t len) ZI_EXCLUDES(mutex_);

  /// Block until `t` completes; rethrows its I/O error, if any. Safe to
  /// call repeatedly and from multiple threads.
  void wait(const Ticket& t) ZI_EXCLUDES(mutex_);

  /// Re-evaluate the queues now (token buckets may have refilled). Waiters
  /// call this implicitly; tests call it after advancing a synthetic clock.
  void kick() ZI_EXCLUDES(mutex_);

  /// Issue everything queued (bypassing token buckets) and wait for every
  /// in-flight request. Errors stay recorded in their tickets.
  void drain() ZI_EXCLUDES(mutex_);

  Stats stats() const ZI_EXCLUDES(mutex_);
  const Config& config() const noexcept { return config_; }

 private:
  struct Pending {
    SchedOp op;
    TransferClass cls = TransferClass::kBulk;
    std::uint64_t enqueue_ns = 0;
    Ticket ticket;
  };
  struct Inflight {
    SchedOp op;                     ///< the (possibly merged) issued range
    std::vector<Pending> segs;      ///< size >= 2 ⇒ coalesced
    std::vector<std::byte> bounce;  ///< merged ops stage through this
    AioStatus status;
    bool fallback = false;  ///< re-issued segment of a failed merge
  };
  struct Bucket {
    double tokens = 0.0;  ///< bytes; may go negative (debt) after an issue
    std::uint64_t last_refill_ns = 0;
  };

  std::uint64_t clock_now();
  void on_backend_done(std::uint64_t id) ZI_EXCLUDES(mutex_);
  /// Issue as much queued work as slots and tokens allow.
  void pump() ZI_REQUIRES(mutex_);
  /// Try to issue one batch from `cls`'s queue head. False when its route's
  /// token bucket is in debt (next_ready_ns_ updated).
  bool try_issue(TransferClass cls, bool other_waiting, bool forced_bulk)
      ZI_REQUIRES(mutex_);
  /// Hand one (possibly merged) request to the backend.
  void issue_op(Inflight op) ZI_REQUIRES(mutex_);
  void refill_buckets(std::uint64_t now_ns) ZI_REQUIRES(mutex_);
  void complete_ticket(const Ticket& t, std::exception_ptr error,
                       int error_code) ZI_REQUIRES(mutex_);

  SchedBackend& backend_;
  const Config config_;
  SchedClock* const clock_;  ///< nullptr = steady clock

  mutable Mutex mutex_{"TransferScheduler::mutex_"};
  CondVar cv_;
  std::deque<Pending> queues_[kNumTransferClasses] ZI_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, Inflight> inflight_ ZI_GUARDED_BY(mutex_);
  std::uint64_t next_op_id_ ZI_GUARDED_BY(mutex_) = 0;
  Bucket buckets_[kNumRoutes] ZI_GUARDED_BY(mutex_);
  /// Consecutive latency issues with bulk work waiting (starvation bound).
  int consecutive_latency_ ZI_GUARDED_BY(mutex_) = 0;
  /// Earliest ns at which a throttled queue head becomes issuable (0 =
  /// nothing throttled); waiters sleep until then when nothing is in
  /// flight to pump for them.
  std::uint64_t next_ready_ns_ ZI_GUARDED_BY(mutex_) = 0;
  bool draining_ ZI_GUARDED_BY(mutex_) = false;
  Stats stats_ ZI_GUARDED_BY(mutex_);
};

}  // namespace zi
