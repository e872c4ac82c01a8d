// Data-parallel world: MPI-style collectives over a pluggable transport.
//
// The Communicator implements the *protocol* layer — collective algorithms
// with deterministic rank-order reduction, the abortable epoch/poison
// failure semantics, and point-to-point channels with caps — over an
// abstract detail::Transport data plane. Two backends exist:
//
//   * inproc (default): the paper's data-parallel processes become threads
//     of one process exchanging buffer pointers through shared memory
//     (inproc_transport.hpp). Deterministic and zero-copy; what every unit
//     test runs on.
//   * proc: each rank is a forked subprocess; Unix-domain sockets carry the
//     control protocol and a shared-memory segment carries bulk collective
//     payloads (proc_transport.hpp). A SIGKILLed rank becomes a real,
//     detectable failure — the substrate the elastic supervisor's crash
//     story actually needs.
//
// Determinism is a deliberate design decision (see DESIGN.md): ZeRO-3's
// reduce-scatter and classic DDP's allreduce both sum contributions in
// ascending rank order with fp32 accumulation, so the ZeRO ≡ DDP
// training-equivalence tests can use tight tolerances — and because each
// rank computes its reduction locally from identical inputs, the result is
// bit-identical across transports.
//
// The collective API mirrors MPI semantics (barrier / broadcast / allgather
// / reduce_scatter / allreduce / gather), so a real MPI or NCCL backend
// could be substituted without touching the training engine.
//
// Failure semantics (DESIGN.md §6): the sync primitive is an epoch-counting
// *abortable* barrier. A rank that exits via exception records itself in the
// shared WorldHealth registry and poisons the world; every blocked peer —
// barrier waiter, recv(), capped send() — wakes and throws CommAbortedError
// within one wait slice instead of hanging forever. Every comm wait has a
// deadline (WorldOptions::timeout_ms, finite by default, ZI_COMM_TIMEOUT_MS
// overrides it): a rank that waits longer blames the slowest missing peer,
// poisons the world itself, and throws CommTimeoutError. The stall
// watchdog and straggler detection default off. Both transports implement
// these semantics byte-for-byte.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/half.hpp"
#include "common/thread_annotations.hpp"
#include "obs/trace.hpp"

namespace zi {

class Communicator;
struct WorldReport;

/// Byte counters per collective kind. On the inproc backend they aggregate
/// over all ranks of a group; on the proc backend each rank process keeps
/// its own counters (send-side volume either way, matching how the paper
/// accounts data-movement volume in Sec. 4).
struct CommTraffic {
  std::atomic<std::uint64_t> allgather_bytes{0};
  std::atomic<std::uint64_t> reduce_scatter_bytes{0};
  std::atomic<std::uint64_t> broadcast_bytes{0};
  std::atomic<std::uint64_t> allreduce_bytes{0};
  std::atomic<std::uint64_t> p2p_bytes{0};
  std::atomic<std::uint64_t> barriers{0};
  std::atomic<std::uint64_t> collectives{0};
  std::atomic<std::uint64_t> p2p_send_blocks{0};  ///< sends that hit the cap
};

/// Why a world was declared failed (first failure wins; later ones are
/// collateral and do not overwrite the record).
enum class WorldFailKind : int {
  kNone = 0,
  kException,  ///< a rank exited its body via a non-comm exception
  kTimeout,    ///< a comm op timed out waiting for a peer
  kStall,      ///< the watchdog saw a rank's heartbeat stop
  kStraggler,  ///< sustained-slow verdict: the rank ran, but far behind the
               ///< median (recorded as an observation, never a poison; the
               ///< elastic supervisor uses it to rebalance, not to shrink)
};

const char* world_fail_kind_name(WorldFailKind kind) noexcept;

/// Which data plane run_world uses (ZI_TRANSPORT=inproc|proc).
enum class TransportKind : int {
  kInproc = 0,  ///< rank threads + shared memory (deterministic default)
  kProc = 1,    ///< forked rank processes + sockets + shm segment
};

/// Per-world failure-detection knobs. from_env() reads the ZI_* variables so
/// trainer-level entry points can tune them without code changes.
struct WorldOptions {
  /// Max time any single comm wait may block before the waiter blames a
  /// missing peer and poisons the world. Must be finite and > 0: run_world
  /// and from_env() throw Error otherwise.
  double timeout_ms = 60000.0;
  /// Watchdog poll cadence. <= 0: no watchdog thread.
  double watchdog_interval_ms = 0.0;
  /// Heartbeat age at which the watchdog declares a running rank stalled.
  /// Only meaningful with watchdog_interval_ms > 0.
  double stall_threshold_ms = 0.0;
  /// After a poison, how long run_world waits for unblocked ranks to unwind
  /// before detaching the genuinely wedged ones (threads cannot be killed;
  /// wedged rank *processes* are SIGKILLed instead of detached).
  double join_grace_ms = 2000.0;
  /// Per-channel P2P queue cap in bytes; a send that would exceed it blocks
  /// (abort-aware) until the receiver drains. 0: unbounded (legacy).
  std::size_t p2p_capacity_bytes = 0;
  /// Per-channel P2P queue cap in messages. 0: unbounded.
  std::size_t p2p_capacity_messages = 0;
  /// Which transport backend run_world launches ranks on.
  TransportKind transport = TransportKind::kInproc;
  /// Proc backend only: per-rank bulk-payload region in the shared-memory
  /// segment, in MiB. A collective whose per-rank contribution exceeds this
  /// fails fast with a descriptive error.
  std::size_t proc_shm_mb = 64;
  /// Straggler detection: a rank whose step-time EWMA exceeds
  /// straggler_factor × the median EWMA for straggler_steps consecutive
  /// steps draws a kStraggler verdict (observation only — the world is
  /// never poisoned for being slow). <= 0 factor: detection off. The
  /// trainer adds one tiny allgather per step while detection is on.
  double straggler_factor = 0.0;
  /// Consecutive over-threshold steps before the verdict fires.
  int straggler_steps = 3;

  /// True when the trainer should time steps and run the straggler detector.
  bool straggler_detection_enabled() const noexcept {
    return straggler_factor > 0.0 && straggler_steps > 0;
  }

  /// Defaults overridden by ZI_COMM_TIMEOUT_MS / ZI_P2P_CAP_BYTES /
  /// ZI_P2P_CAP_MSGS / ZI_TRANSPORT / ZI_PROC_SHM_MB /
  /// ZI_STRAGGLER_FACTOR / ZI_STRAGGLER_STEPS when set. Values are
  /// parsed strictly (full-string match) — a typo like ZI_P2P_CAP_BYTES=4gb
  /// throws instead of silently configuring a zero-capacity channel.
  static WorldOptions from_env();
};

namespace detail {
struct WorldShared;
class Transport;
}  // namespace detail

/// Shared per-world health registry: one slot per root-world rank holding a
/// heartbeat timestamp and a status, plus the first-failure record. All of
/// it is written by rank threads and read by peers / the watchdog / the
/// elastic supervisor, so slots are atomics and the failure record is
/// mutex-guarded with first-write-wins semantics. On the proc backend each
/// process holds a local instance mirrored from the cross-process segment.
class WorldHealth {
 public:
  enum class RankStatus : int { kRunning = 0, kDone = 1, kFailed = 2 };

  explicit WorldHealth(int num_ranks);

  int num_ranks() const noexcept { return static_cast<int>(ranks_.size()); }

  /// Refresh `rank`'s heartbeat to "now". Called on every collective entry,
  /// every timed-wait tick, and once per trainer step. Also folds the gap
  /// since the previous beat into the rank's max-gap watermark.
  void beat(int rank) noexcept;
  /// Milliseconds since `rank`'s last beat (a large value before the first).
  double heartbeat_age_ms(int rank) const noexcept;
  double max_heartbeat_age_ms() const noexcept;

  /// Largest observed gap between consecutive beats of `rank` so far, in
  /// milliseconds (cumulative watermark, never reset). Unlike
  /// heartbeat_age_ms — a point sample of the currently *open* gap — this
  /// remembers closed gaps, so a stall that both starts and ends inside one
  /// trainer step still shows up in that step's report.
  double max_heartbeat_gap_ms(int rank) const noexcept;

  RankStatus status(int rank) const noexcept;
  void mark_done(int rank) noexcept;
  void mark_failed(int rank) noexcept;

  /// Set once the world is poisoned; comm entry points fail fast on it and
  /// blocked waits wake and throw.
  bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// Record the world's *first* failure (rank, kind, message); subsequent
  /// calls are no-ops so collateral aborts never overwrite the root cause.
  void record_failure(int rank, WorldFailKind kind, const std::string& what);
  int culprit_rank() const;
  WorldFailKind fail_kind() const;
  std::string failure_what() const;

  /// Record a kStraggler *observation* (first-write-wins like
  /// record_failure, but the world is NOT poisoned — peers keep running and
  /// the training loop winds down cooperatively). The elastic supervisor
  /// reads it to rebalance instead of shrink.
  void record_straggler(int rank) noexcept;
  /// Rank under a kStraggler verdict, or -1.
  int straggler_rank() const noexcept {
    return straggler_.load(std::memory_order_acquire);
  }

  /// Publish `rank`'s step-time EWMA (seconds) — the trainer mirrors the
  /// detector's state here so supervisors/metrics can read per-rank speed
  /// without touching trainer internals.
  void note_step_ewma(int rank, double seconds) noexcept;
  /// Last published step-time EWMA of `rank` in seconds (0 before any).
  double step_ewma_s(int rank) const noexcept;

  // --- transport-mirror maintenance -------------------------------------
  // Only transport backends call these. Everyone else reports failures via
  // Transport::fail_world so blocked waiters actually wake: setting the
  // flag alone poisons nothing.

  /// Raw nanosecond heartbeat of `rank` (steady-clock timestamp).
  std::int64_t beat_ns(int rank) const noexcept;
  /// Overwrite `rank`'s heartbeat with a timestamp taken elsewhere (the
  /// proc backend copies peers' beats out of the shared segment).
  void mirror_beat_ns(int rank, std::int64_t ns) noexcept;
  /// Mark the world poisoned without waking anyone.
  void set_poisoned() noexcept {
    poisoned_.store(true, std::memory_order_release);
  }

 private:
  struct PerRank {
    std::atomic<int> status{static_cast<int>(RankStatus::kRunning)};
    std::atomic<std::int64_t> beat_ns{0};
    std::atomic<std::int64_t> max_gap_ns{0};  ///< watermark over closed gaps
    /// Step-time EWMA in seconds, stored as raw double bits (atomics over
    /// doubles aren't lock-free everywhere; int64 bits always are).
    std::atomic<std::int64_t> ewma_bits{0};
  };
  std::vector<PerRank> ranks_;
  std::atomic<bool> poisoned_{false};
  std::atomic<int> straggler_{-1};

  mutable Mutex mutex_{"WorldHealth::mutex"};
  bool has_failure_ ZI_GUARDED_BY(mutex_) = false;
  int culprit_ ZI_GUARDED_BY(mutex_) = -1;
  WorldFailKind kind_ ZI_GUARDED_BY(mutex_) = WorldFailKind::kNone;
  std::string what_ ZI_GUARDED_BY(mutex_);
};

/// Online slow-rank detector. Every rank feeds it the full per-rank vector
/// of step wall times (allgathered, so the bits are identical everywhere)
/// once per step; a rank whose EWMA stays above factor × median(EWMA) for
/// `steps` consecutive observations draws a verdict. Pure deterministic
/// state machine — every rank reaches the same verdict on the same step,
/// which is what lets the training loop wind down in lockstep without an
/// extra vote collective.
class StragglerDetector {
 public:
  StragglerDetector(int world, double factor, int steps);

  /// Feed one step's per-rank wall times (seconds; size == world). Returns
  /// the verdict rank (lowest such rank when several qualify at once), or
  /// -1. After a verdict the detector latches: further calls keep returning
  /// the same rank.
  int observe(std::span<const double> step_seconds);

  /// Current per-rank step-time EWMAs in seconds (α = 0.5; seeded with the
  /// first observation).
  const std::vector<double>& ewma() const noexcept { return ewma_; }
  int verdict() const noexcept { return verdict_; }

 private:
  double factor_;
  int steps_;
  std::vector<double> ewma_;
  std::vector<int> streak_;
  bool seeded_ = false;
  int verdict_ = -1;
};

namespace detail {

/// One buffered point-to-point message (payload copied at send time so the
/// sender never blocks on the receiver — eager protocol).
struct P2pMessage {
  int tag = 0;
  std::vector<std::byte> payload;
};

/// Outcome of one blocking transport wait (barrier round, p2p send past the
/// cap, p2p recv on an empty channel).
enum class WaitOutcome : int { kOk = 0, kPoisoned = 1, kTimeout = 2 };

/// The data plane under the Communicator protocol layer. One instance per
/// (rank, group): collective publication/synchronization, capped p2p
/// channels, heartbeat publication, and poison/abort wakeup. All blocking
/// entry points return WaitOutcome instead of throwing — the protocol layer
/// owns error construction so messages and failure records are identical
/// across backends.
///
/// Collective contract (the pointer-exchange protocol, generalized): a rank
/// calls publish() with its contribution, sync() to open the read phase,
/// peer_data()/peer_count() to read peers' contributions, and sync() again
/// to release them. peer_data_mut() lets the in-place allreduce write
/// reduced slices back into peers' buffers; readback() then pulls this
/// rank's buffer out of the transport (a no-op inproc, where peers wrote
/// into the caller's memory directly; a copy out of the shm segment on the
/// proc backend).
class Transport {
 public:
  virtual ~Transport() = default;

  // --- identity / static configuration ----------------------------------
  virtual int size() const noexcept = 0;
  virtual int global_rank_of(int member) const noexcept = 0;
  virtual const WorldOptions& options() const noexcept = 0;
  virtual CommTraffic& traffic() noexcept = 0;
  /// True for backends whose ranks are separate OS processes (proc_kill
  /// faults SIGKILL the rank instead of throwing).
  virtual bool out_of_process() const noexcept = 0;

  // --- health / failure domain ------------------------------------------
  /// This group's health registry. Proc backend: a local mirror refreshed
  /// from the shared segment on access.
  virtual WorldHealth& health() noexcept = 0;
  /// Refresh this rank's own heartbeat.
  virtual void beat() noexcept = 0;
  virtual bool poisoned() const noexcept = 0;
  /// Record the first failure (first-write-wins) and poison the whole
  /// split tree: every blocked waiter on every rank wakes with kPoisoned.
  virtual void fail_world(int culprit_global, WorldFailKind kind,
                          const std::string& what) = 0;

  // --- collective data plane --------------------------------------------
  virtual void publish(const void* data, std::size_t bytes,
                       std::size_t count) = 0;
  virtual WaitOutcome sync(int* suspect_global, std::uint64_t* epoch_out) = 0;
  virtual std::uint64_t epoch() const = 0;
  virtual const void* peer_data(int member) const = 0;
  virtual std::size_t peer_count(int member) const = 0;
  virtual void* peer_data_mut(int member) = 0;
  virtual void readback(void* data, std::size_t bytes) = 0;

  // --- point-to-point ----------------------------------------------------
  /// Enqueue toward `to_member`, blocking (abort-aware, timed) past the
  /// channel cap. Increments traffic().p2p_send_blocks when it blocks.
  virtual WaitOutcome p2p_send(int to_member, P2pMessage msg) = 0;
  /// Pop the next message from `from_member` (FIFO; tag checked by caller).
  virtual WaitOutcome p2p_recv(int from_member, P2pMessage* out) = 0;

  // --- subgroups / results ------------------------------------------------
  /// Create or join the split() subgroup for (ordinal, color). `members`
  /// are member indices of *this* group, ascending; `sub_rank` is this
  /// rank's index within them. Called between the two split() sync points.
  virtual std::shared_ptr<Transport> make_subgroup(
      int ordinal, int color, const std::vector<int>& members,
      int sub_rank) = 0;
  /// Stash an opaque payload returned as WorldReport::rank_payloads.
  virtual void set_result(std::string payload) = 0;
};

/// Transport backends construct Communicators through this factory (the
/// constructor stays private so user code cannot fabricate ranks).
Communicator make_communicator(int rank, int global_rank,
                               std::shared_ptr<Transport> transport);

}  // namespace detail

/// Result of one run_world invocation — the no-throw surface the elastic
/// supervisor builds on. `primary_ranks` are ranks whose failure was a
/// "real" (non-communication) exception; other failed ranks are collateral
/// comm aborts or detached zombies.
struct WorldReport {
  bool ok = false;
  int world = 0;
  WorldFailKind kind = WorldFailKind::kNone;
  int culprit_rank = -1;      ///< world-blamed first failure; -1 if none
  std::string culprit_what;   ///< first-failure message from WorldHealth
  std::vector<int> failed_ranks;
  std::vector<std::string> errors;            ///< parallel to failed_ranks
  std::vector<std::exception_ptr> exceptions; ///< parallel; null for zombies
  std::vector<int> primary_ranks;  ///< subset with non-comm exceptions
  int detached = 0;  ///< ranks left wedged past join_grace_ms (zombies)
  /// Per-root-rank Communicator::set_result payloads ("" when a rank never
  /// set one or died first). The only rank-to-supervisor data channel that
  /// works on both backends — an out-of-process rank cannot write into
  /// supervisor-captured locals.
  std::vector<std::string> rank_payloads;
};

/// Launch `num_ranks` ranks — threads (inproc) or forked processes (proc),
/// per options.transport — each receiving a Communicator bound to its rank,
/// and join them. Never throws rank errors: the full outcome comes back in
/// the WorldReport (it throws Error only for an invalid timeout_ms). Ranks
/// still blocked join_grace_ms after a poison are detached (counted in
/// `detached`) — such zombie threads may still reference caller state, so
/// supervisors must keep the closed-over objects alive (see run_elastic).
/// On the proc backend wedged rank processes are SIGKILLed instead, and a
/// rank that dies without reporting (e.g. kill -9) is a primary failure.
WorldReport run_world(int num_ranks, const WorldOptions& options,
                      const std::function<void(Communicator&)>& fn);

/// Throwing wrapper over run_world with WorldOptions::from_env(). Exactly
/// one rank failing with a non-comm exception rethrows that original
/// exception (peer comm aborts are collateral); anything else that fails
/// throws a WorldError aggregating every rank's error. (Proc backend: the
/// original exception cannot cross the process boundary, so the rethrow
/// carries the original message as a zi::Error.)
void run_ranks(int num_ranks, const std::function<void(Communicator&)>& fn);
void run_ranks(int num_ranks, const WorldOptions& options,
               const std::function<void(Communicator&)>& fn);

/// Process-lifetime count of comm operations that aborted or timed out.
/// Cumulative across worlds (it survives elastic teardown/restart), which is
/// what the per-step metrics line wants.
std::uint64_t comm_abort_count() noexcept;

class Communicator {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept { return transport_->size(); }
  /// Rank in the root world (== rank() unless this is a split() subgroup).
  int global_rank() const noexcept { return global_rank_; }
  const CommTraffic& traffic() const noexcept { return transport_->traffic(); }

  /// The world's effective failure-detection knobs (what run_world was
  /// launched with) — trainers read the straggler thresholds from here.
  const WorldOptions& options() const noexcept { return transport_->options(); }

  /// The split tree's shared health registry (heartbeats, failure record).
  WorldHealth& health() noexcept { return transport_->health(); }
  const WorldHealth& health() const noexcept { return transport_->health(); }

  /// Refresh this rank's heartbeat outside comm ops (the trainer beats once
  /// per step so compute-heavy phases don't look like stalls).
  void heartbeat() noexcept { transport_->beat(); }

  /// Cumulative wall time this rank has spent blocked in collective sync
  /// waits, in seconds. In a lockstep SPMD step every rank's *wall* time
  /// converges to the slowest rank's — subtracting the waits recovers each
  /// rank's own busy time, which is what straggler detection must compare.
  double comm_wait_seconds() const noexcept { return sync_wait_seconds_; }

  /// Explicitly poison the world, blaming this rank. Blocked peers unblock
  /// with CommAbortedError; this rank's own next comm op throws too.
  void abort_world(const std::string& reason);

  /// Attach an opaque result payload for this rank, returned to the
  /// supervisor as WorldReport::rank_payloads[global_rank()]. Last call
  /// wins; typically called once, right before the rank body returns.
  void set_result(std::string payload) {
    transport_->set_result(std::move(payload));
  }

  /// Synchronize all ranks.
  void barrier();

  /// Replicate root's `data` to every rank's `data`.
  template <typename T>
  void broadcast(std::span<T> data, int root);

  /// Each rank contributes `send`; every rank receives the concatenation
  /// [rank 0 | rank 1 | ...] in `recv`. All contributions are equal-sized;
  /// recv.size() == send.size() * size().
  template <typename T>
  void allgather(std::span<const T> send, std::span<T> recv);

  /// Each rank contributes `send` of size recv.size()*size(); rank r
  /// receives the element-wise sum (over ranks, ascending order, fp32
  /// accumulation) of chunk r in `recv`.
  template <typename T>
  void reduce_scatter_sum(std::span<const T> send, std::span<T> recv);

  /// Element-wise sum across ranks, result replicated (rank-order, fp32
  /// accumulation — same arithmetic as reduce_scatter_sum + allgather).
  template <typename T>
  void allreduce_sum(std::span<T> data);

  /// Root receives the concatenation of equal-sized contributions.
  template <typename T>
  void gather(std::span<const T> send, std::span<T> recv, int root);

  /// Max over ranks of a scalar (used for dynamic loss-scale coordination).
  double allreduce_max(double value);

  /// Sum over ranks of a scalar in ascending rank order (deterministic) —
  /// used for global gradient norms.
  double allreduce_sum_scalar(double value);

  // --- point-to-point (MPI-style, eager/buffered) --------------------------

  /// Send `data` to rank `to`; copies the payload and (below the channel
  /// cap) returns immediately. With WorldOptions::p2p_capacity_* set, a send
  /// past the cap blocks — abort-aware and timed like every other wait —
  /// until the receiver drains (eager protocol otherwise: a ring where
  /// everyone sends before receiving cannot deadlock).
  template <typename T>
  void send(std::span<const T> data, int to, int tag = 0);

  /// Receive the next message with `tag` from rank `from` (blocks;
  /// abort-aware — throws CommAbortedError when the world is poisoned).
  /// Message sizes must match exactly; per-channel delivery is FIFO.
  template <typename T>
  void recv(std::span<T> data, int from, int tag = 0);

  /// Logical OR over ranks (overflow detection).
  bool allreduce_or(bool value);

  /// Split the world into disjoint subgroups (MPI_Comm_split semantics):
  /// every rank supplies a `color`; ranks sharing a color receive a
  /// communicator over that subgroup, with sub-ranks assigned in ascending
  /// world-rank order. Collective — all ranks must call in lockstep. This
  /// is the substrate for 2D (tensor × data) parallel grids. Subgroups
  /// share the parent's failure domain: poisoning any of them aborts all.
  Communicator split(int color);

 private:
  friend Communicator detail::make_communicator(
      int, int, std::shared_ptr<detail::Transport>);
  Communicator(int rank, int global_rank,
               std::shared_ptr<detail::Transport> transport)
      : rank_(rank),
        global_rank_(global_rank),
        transport_(std::move(transport)) {}

  /// Common collective prologue: heartbeat, poisoned fast-fail, and the
  /// rank_crash / proc_kill / rank_stall / collective_delay fault sites.
  void enter_collective(const char* op);
  /// One abortable-barrier round; throws CommAbortedError/CommTimeoutError
  /// (after recording the failure and poisoning the world) on anything but
  /// a clean completion.
  void sync_point(const char* op);
  [[noreturn]] void throw_aborted(const char* op, std::uint64_t epoch) const;
  void send_bytes(int to, detail::P2pMessage msg);
  void recv_bytes(std::span<std::byte> data, int from, int tag);
  /// Injected rank_stall body: freeze (heartbeat stops) until the cap or,
  /// for an unbounded stall, until the world is poisoned by a detector.
  void injected_stall(const char* op, std::uint64_t cap_us);

  int rank_;
  int global_rank_;
  std::shared_ptr<detail::Transport> transport_;
  int split_calls_ = 0;  ///< lockstep ordinal for subgroup registry keys
  double sync_wait_seconds_ = 0.0;  ///< see comm_wait_seconds()
};

// ---------------------------------------------------------------------------
// Template implementations

namespace detail {

// The sum collectives accumulate in fp32 whatever the storage type (float or
// half); these move whole blocks between storage and fp32, so fp16 goes
// through the span converters.
template <typename T>
void to_f32(std::span<const T> src, std::span<float> dst) {
  if constexpr (std::is_same_v<T, half>) {
    cast_f16_to_f32(src, dst);
  } else {
    static_assert(std::is_same_v<T, float>, "sum collectives: float or half");
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

template <typename T>
void from_f32(std::span<const float> src, std::span<T> dst) {
  if constexpr (std::is_same_v<T, half>) {
    cast_f32_to_f16(src, dst);
  } else {
    static_assert(std::is_same_v<T, float>, "sum collectives: float or half");
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

/// out[i] = T(0.0f + float(srcs[0][offset + i]) + float(srcs[1][offset + i])
/// + ...): fp32 sums in ascending rank order, starting at 0.0f so that a sum
/// of -0.0s is +0.0. Works in tiles of stack scratch, so a collective does
/// not allocate (and fault in) fp32 buffers the size of its chunk.
template <typename T>
void sum_f32(std::span<const T* const> srcs, std::size_t offset,
             std::span<T> out) {
  constexpr std::size_t kTile = 512;
  float acc[kTile];
  float block[kTile];
  for (std::size_t lo = 0; lo < out.size(); lo += kTile) {
    const std::size_t len = std::min(kTile, out.size() - lo);
    std::fill_n(acc, len, 0.0f);
    for (const T* src : srcs) {
      to_f32<T>({src + offset + lo, len}, {block, len});
      for (std::size_t i = 0; i < len; ++i) acc[i] += block[i];
    }
    from_f32<T>({acc, len}, out.subspan(lo, len));
  }
}

}  // namespace detail

template <typename T>
void Communicator::send(std::span<const T> data, int to, int tag) {
  detail::P2pMessage msg;
  msg.tag = tag;
  msg.payload.resize(data.size_bytes());
  std::memcpy(msg.payload.data(), data.data(), data.size_bytes());
  send_bytes(to, std::move(msg));
}

template <typename T>
void Communicator::recv(std::span<T> data, int from, int tag) {
  recv_bytes({reinterpret_cast<std::byte*>(data.data()), data.size_bytes()},
             from, tag);
}

template <typename T>
void Communicator::broadcast(std::span<T> data, int root) {
  auto& t = *transport_;
  ZI_CHECK(root >= 0 && root < t.size());
  ZI_TRACE_SPAN("comm", "broadcast",
                "\"bytes\":" + std::to_string(data.size_bytes()));
  enter_collective("broadcast");
  t.traffic().collectives.fetch_add(1, std::memory_order_relaxed);
  t.traffic().broadcast_bytes.fetch_add(data.size_bytes(),
                                        std::memory_order_relaxed);
  if (rank_ == root) t.publish(data.data(), data.size_bytes(), data.size());
  sync_point("broadcast");  // publish root contribution
  if (rank_ != root) {
    ZI_CHECK_MSG(t.peer_count(root) == data.size(),
                 "broadcast size mismatch");
    std::memcpy(data.data(), t.peer_data(root), data.size_bytes());
  }
  sync_point("broadcast");  // root buffer safe to reuse
}

template <typename T>
void Communicator::allgather(std::span<const T> send, std::span<T> recv) {
  auto& t = *transport_;
  const auto n = static_cast<std::size_t>(t.size());
  ZI_CHECK_MSG(recv.size() == send.size() * n,
               "allgather: recv " << recv.size() << " != send " << send.size()
                                  << " * " << n);
  ZI_TRACE_SPAN("comm", "allgather",
                "\"bytes\":" + std::to_string(send.size_bytes()));
  enter_collective("allgather");
  t.traffic().collectives.fetch_add(1, std::memory_order_relaxed);
  t.traffic().allgather_bytes.fetch_add(send.size_bytes(),
                                        std::memory_order_relaxed);
  t.publish(send.data(), send.size_bytes(), send.size());
  sync_point("allgather");  // publish all contributions
  for (std::size_t r = 0; r < n; ++r) {
    ZI_CHECK_MSG(t.peer_count(r) == send.size(),
                 "allgather: unequal send sizes");
    std::memcpy(recv.data() + r * send.size(),
                t.peer_data(static_cast<int>(r)), send.size_bytes());
  }
  sync_point("allgather");  // all reads done; send buffers reusable
}

template <typename T>
void Communicator::reduce_scatter_sum(std::span<const T> send,
                                      std::span<T> recv) {
  auto& t = *transport_;
  const auto n = static_cast<std::size_t>(t.size());
  ZI_CHECK_MSG(send.size() == recv.size() * n,
               "reduce_scatter: send " << send.size() << " != recv "
                                       << recv.size() << " * " << n);
  ZI_TRACE_SPAN("comm", "reduce_scatter",
                "\"bytes\":" + std::to_string(send.size_bytes()));
  enter_collective("reduce_scatter");
  t.traffic().collectives.fetch_add(1, std::memory_order_relaxed);
  t.traffic().reduce_scatter_bytes.fetch_add(send.size_bytes(),
                                             std::memory_order_relaxed);
  t.publish(send.data(), send.size_bytes(), send.size());
  sync_point("reduce_scatter");
  // Each rank reduces its own chunk: ascending rank order, fp32 accumulation.
  std::vector<const T*> srcs(n);
  for (std::size_t r = 0; r < n; ++r) {
    srcs[r] = static_cast<const T*>(t.peer_data(static_cast<int>(r)));
  }
  detail::sum_f32<T>(srcs, static_cast<std::size_t>(rank_) * recv.size(),
                     recv);
  sync_point("reduce_scatter");
}

template <typename T>
void Communicator::allreduce_sum(std::span<T> data) {
  auto& t = *transport_;
  const auto n = static_cast<std::size_t>(t.size());
  ZI_TRACE_SPAN("comm", "allreduce",
                "\"bytes\":" + std::to_string(data.size_bytes()));
  enter_collective("allreduce");
  t.traffic().collectives.fetch_add(1, std::memory_order_relaxed);
  t.traffic().allreduce_bytes.fetch_add(data.size_bytes(),
                                        std::memory_order_relaxed);
  t.publish(data.data(), data.size_bytes(), data.size());
  sync_point("allreduce");
  // Partition the index space; each rank reduces its slice into a private
  // scratch, then writes back after a barrier (in-place allreduce).
  const std::size_t total = data.size();
  std::vector<const T*> srcs(n);
  for (std::size_t r = 0; r < n; ++r) {
    ZI_CHECK(t.peer_count(r) == total);
    srcs[r] = static_cast<const T*>(t.peer_data(static_cast<int>(r)));
  }
  const std::size_t lo = total * static_cast<std::size_t>(rank_) / n;
  const std::size_t hi = total * (static_cast<std::size_t>(rank_) + 1) / n;
  std::vector<T> reduced(hi - lo);
  detail::sum_f32<T>(srcs, lo, reduced);
  sync_point("allreduce");  // all slices reduced before anyone overwrites
  // Every rank writes its slice into every rank's buffer.
  for (std::size_t r = 0; r < n; ++r) {
    T* dst = static_cast<T*>(t.peer_data_mut(static_cast<int>(r)));
    std::copy(reduced.begin(), reduced.end(), dst + lo);
  }
  sync_point("allreduce");
  // Pull this rank's reduced buffer back out of the transport (no-op when
  // peers wrote into `data` directly, i.e. inproc).
  t.readback(data.data(), data.size_bytes());
}

template <typename T>
void Communicator::gather(std::span<const T> send, std::span<T> recv,
                          int root) {
  auto& t = *transport_;
  const auto n = static_cast<std::size_t>(t.size());
  ZI_CHECK(root >= 0 && root < t.size());
  if (rank_ == root) {
    ZI_CHECK_MSG(recv.size() == send.size() * n, "gather: recv size mismatch");
  }
  ZI_TRACE_SPAN("comm", "gather",
                "\"bytes\":" + std::to_string(send.size_bytes()));
  enter_collective("gather");
  t.traffic().collectives.fetch_add(1, std::memory_order_relaxed);
  t.publish(send.data(), send.size_bytes(), send.size());
  sync_point("gather");
  if (rank_ == root) {
    for (std::size_t r = 0; r < n; ++r) {
      ZI_CHECK(t.peer_count(r) == send.size());
      std::memcpy(recv.data() + r * send.size(),
                  t.peer_data(static_cast<int>(r)), send.size_bytes());
    }
  }
  sync_point("gather");
}

}  // namespace zi
