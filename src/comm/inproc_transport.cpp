#include "comm/inproc_transport.hpp"

#include <algorithm>
#include <numeric>

#include "comm/clock_util.hpp"

namespace zi::detail {

// ---------------------------------------------------------------------------
// AbortableBarrier

AbortableBarrier::AbortableBarrier(int num_ranks, WorldHealth* health,
                                   const std::vector<int>* global_ranks)
    : num_ranks_(num_ranks),
      health_(health),
      global_ranks_(global_ranks),
      arrived_round_(static_cast<std::size_t>(num_ranks), 0) {}

WaitOutcome AbortableBarrier::arrive_and_wait(int member, int global_rank,
                                              double timeout_ms,
                                              int* suspect_global,
                                              std::uint64_t* epoch_out) {
  UniqueLock lock(mutex_);
  if (epoch_out != nullptr) *epoch_out = epoch_;
  // Covers both a poisoned barrier and a subgroup created after the poison
  // traversal already swept the tree (its own flag never got set).
  if (poisoned_ || (health_ != nullptr && health_->poisoned())) {
    return WaitOutcome::kPoisoned;
  }
  const std::uint64_t round = epoch_;
  arrived_round_[static_cast<std::size_t>(member)] = round + 1;
  if (++arrived_ == num_ranks_) {
    arrived_ = 0;
    ++epoch_;
    cv_.notify_all();
    return WaitOutcome::kOk;
  }
  const CommClock::time_point deadline =
      CommClock::now() + comm_ms_to_duration(timeout_ms);
  while (epoch_ == round && !poisoned_) {
    if (health_ != nullptr) health_->beat(global_rank);
    const CommClock::time_point now = CommClock::now();
    if (now >= deadline) {
      // Blame a rank that has not arrived this round — the one whose
      // heartbeat is oldest (a crashed/stalled rank stopped beating; a rank
      // merely blocked elsewhere keeps beating via its own wait slices).
      int suspect = -1;
      double oldest = -1.0;
      for (int m = 0; m < num_ranks_; ++m) {
        if (arrived_round_[static_cast<std::size_t>(m)] == round + 1) continue;
        const int g = (global_ranks_ != nullptr &&
                       static_cast<std::size_t>(m) < global_ranks_->size())
                          ? (*global_ranks_)[static_cast<std::size_t>(m)]
                          : m;
        const double age =
            health_ != nullptr ? health_->heartbeat_age_ms(g) : 0.0;
        if (age > oldest) {
          oldest = age;
          suspect = g;
        }
      }
      if (suspect_global != nullptr) *suspect_global = suspect;
      return WaitOutcome::kTimeout;
    }
    const CommClock::duration slice =
        std::min<CommClock::duration>(kWaitSlice, deadline - now);
    cv_.wait_for(lock, slice);
  }
  return epoch_ != round ? WaitOutcome::kOk : WaitOutcome::kPoisoned;
}

void AbortableBarrier::poison() {
  {
    LockGuard lock(mutex_);
    poisoned_ = true;
  }
  cv_.notify_all();
}

std::uint64_t AbortableBarrier::epoch() const {
  LockGuard lock(mutex_);
  return epoch_;
}

// ---------------------------------------------------------------------------
// WorldShared

WorldShared::WorldShared(int n, const WorldOptions& opts)
    : num_ranks(n),
      root(this),
      options(opts),
      health(std::make_shared<WorldHealth>(n)),
      global_ranks(static_cast<std::size_t>(n)),
      sync(n, health.get(), &global_ranks),
      src_ptrs(static_cast<std::size_t>(n), nullptr),
      counts(static_cast<std::size_t>(n), 0),
      channels(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)) {
  std::iota(global_ranks.begin(), global_ranks.end(), 0);
  LockGuard lock(results_mutex);
  rank_results.assign(static_cast<std::size_t>(n), std::string());
}

WorldShared::WorldShared(int n, WorldShared* parent)
    : num_ranks(n),
      root(parent->root),
      options(parent->options),
      health(parent->health),
      global_ranks(),  // filled by the creating rank before publication
      sync(n, health.get(), &global_ranks),
      src_ptrs(static_cast<std::size_t>(n), nullptr),
      counts(static_cast<std::size_t>(n), 0),
      channels(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)) {}

void WorldShared::set_result(int global_rank, std::string payload) {
  WorldShared* rt = root;
  LockGuard lock(rt->results_mutex);
  rt->rank_results[static_cast<std::size_t>(global_rank)] = std::move(payload);
}

std::vector<std::string> WorldShared::take_results() {
  LockGuard lock(results_mutex);
  return std::move(rank_results);
}

void WorldShared::poison_world() {
  health->set_poisoned();
  root->poison_tree();
}

void WorldShared::poison_tree() {
  sync.poison();
  // Lock-then-notify on every channel so a receiver/sender that checked the
  // poison flag and is about to wait cannot miss the wakeup.
  for (P2pChannel& ch : channels) {
    { LockGuard lock(ch.mutex); }
    ch.cv.notify_all();
  }
  // Recurse into split() subgroups. Distinct mutex instances per level, and
  // always parent-before-child, so the lock tracker sees a consistent order.
  LockGuard lock(split_mutex);
  for (auto& entry : split_groups) entry.second->poison_tree();
}

// ---------------------------------------------------------------------------
// InprocTransport

void InprocTransport::publish(const void* data, std::size_t bytes,
                              std::size_t count) {
  (void)bytes;  // zero-copy: peers read through the pointer
  shared_->src_ptrs[static_cast<std::size_t>(member_)] = data;
  shared_->counts[static_cast<std::size_t>(member_)] = count;
}

WaitOutcome InprocTransport::sync(int* suspect_global,
                                  std::uint64_t* epoch_out) {
  return shared_->sync.arrive_and_wait(member_, global_,
                                       shared_->options.timeout_ms,
                                       suspect_global, epoch_out);
}

WaitOutcome InprocTransport::p2p_send(int to_member, P2pMessage msg) {
  auto& s = *shared_;
  const std::size_t bytes = msg.payload.size();
  const std::size_t cap_bytes = s.options.p2p_capacity_bytes;
  const std::size_t cap_msgs = s.options.p2p_capacity_messages;
  P2pChannel& ch = s.channel(member_, to_member);
  {
    UniqueLock lock(ch.mutex);
    const CommClock::time_point deadline =
        CommClock::now() + comm_ms_to_duration(s.options.timeout_ms);
    bool counted_block = false;
    // A single message larger than the byte cap is still deliverable: the
    // cap gates on the queue being non-empty, so the queue never wedges.
    while ((cap_bytes > 0 && !ch.queue.empty() &&
            ch.queued_bytes + bytes > cap_bytes) ||
           (cap_msgs > 0 && ch.queue.size() >= cap_msgs)) {
      if (s.health->poisoned()) return WaitOutcome::kPoisoned;
      if (!counted_block) {
        counted_block = true;
        s.traffic.p2p_send_blocks.fetch_add(1, std::memory_order_relaxed);
      }
      s.health->beat(global_);
      const CommClock::time_point now = CommClock::now();
      if (now >= deadline) {
        // Lock released at scope exit before the caller poisons the world —
        // poison_tree re-locks every channel, including this one.
        return WaitOutcome::kTimeout;
      }
      ch.cv.wait_for(lock,
                     std::min<CommClock::duration>(kWaitSlice, deadline - now));
    }
    ch.queue.push_back(std::move(msg));
    ch.queued_bytes += bytes;
  }
  ch.cv.notify_all();
  return WaitOutcome::kOk;
}

WaitOutcome InprocTransport::p2p_recv(int from_member, P2pMessage* out) {
  auto& s = *shared_;
  P2pChannel& ch = s.channel(from_member, member_);
  {
    UniqueLock lock(ch.mutex);
    const CommClock::time_point deadline =
        CommClock::now() + comm_ms_to_duration(s.options.timeout_ms);
    while (ch.queue.empty()) {
      if (s.health->poisoned()) return WaitOutcome::kPoisoned;
      s.health->beat(global_);
      const CommClock::time_point now = CommClock::now();
      if (now >= deadline) {
        return WaitOutcome::kTimeout;  // see p2p_send on lock release order
      }
      ch.cv.wait_for(lock,
                     std::min<CommClock::duration>(kWaitSlice, deadline - now));
    }
    *out = std::move(ch.queue.front());
    ch.queue.pop_front();
    ch.queued_bytes -= out->payload.size();
  }
  ch.cv.notify_all();  // wake a sender blocked on the cap
  return WaitOutcome::kOk;
}

std::shared_ptr<Transport> InprocTransport::make_subgroup(
    int ordinal, int color, const std::vector<int>& members, int sub_rank) {
  auto& s = *shared_;
  // First member to arrive creates the subgroup state; the ordinal keeps
  // successive split() calls from colliding.
  std::shared_ptr<WorldShared> sub;
  {
    LockGuard lock(s.split_mutex);
    auto& entry = s.split_groups[{ordinal, color}];
    if (!entry) {
      entry = std::make_shared<WorldShared>(static_cast<int>(members.size()),
                                            &s);
      entry->global_ranks.reserve(members.size());
      for (int m : members) {
        entry->global_ranks.push_back(
            s.global_ranks[static_cast<std::size_t>(m)]);
      }
    }
    sub = entry;
  }
  return std::make_shared<InprocTransport>(std::move(sub), sub_rank);
}

}  // namespace zi::detail
