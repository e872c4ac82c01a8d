#include "move/sched.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/env.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"

namespace zi {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* transfer_class_name(TransferClass c) {
  return c == TransferClass::kLatency ? "latency" : "bulk";
}

AioStatus NvmeSchedBackend::issue(const SchedOp& op,
                                  std::function<void()> done) {
  if (route_is_spill(op.route)) {
    return store_.write_abs_async(
        op.offset, std::span<const std::byte>(op.data, op.len),
        std::move(done));
  }
  return store_.read_abs_async(op.offset, std::span<std::byte>(op.data, op.len),
                               std::move(done));
}

TransferScheduler::Config TransferScheduler::Config::from_env() {
  Config c;
  c.coalesce = getenv_bool("ZI_MOVE_COALESCE", c.coalesce);
  c.max_merge_bytes = getenv_u64("ZI_MOVE_MAX_MERGE_BYTES", c.max_merge_bytes);
  c.max_inflight = static_cast<std::size_t>(
      getenv_u64("ZI_MOVE_MAX_INFLIGHT", c.max_inflight));
  c.starvation_bound =
      getenv_int("ZI_MOVE_STARVATION_BOUND", c.starvation_bound);
  // Rates come in MB/s (0 = unlimited). The KV-cache routes share the NVMe
  // device, so the same knobs bound them per direction.
  const std::uint64_t fetch_mbps = getenv_u64("ZI_MOVE_FETCH_MBPS", 0);
  const std::uint64_t spill_mbps = getenv_u64("ZI_MOVE_SPILL_MBPS", 0);
  c.rate_bytes_per_sec[static_cast<std::size_t>(Route::kNvmeFetch)] =
      fetch_mbps * 1000 * 1000;
  c.rate_bytes_per_sec[static_cast<std::size_t>(Route::kNvmeSpill)] =
      spill_mbps * 1000 * 1000;
  c.rate_bytes_per_sec[static_cast<std::size_t>(Route::kKvFetch)] =
      fetch_mbps * 1000 * 1000;
  c.rate_bytes_per_sec[static_cast<std::size_t>(Route::kKvSpill)] =
      spill_mbps * 1000 * 1000;
  return c;
}

TransferScheduler::TransferScheduler(SchedBackend& backend, Config config,
                                     SchedClock* clock)
    : backend_(backend), config_(std::move(config)), clock_(clock) {
  ZI_CHECK(config_.max_inflight > 0);
  ZI_CHECK(config_.starvation_bound > 0);
  ZI_CHECK(config_.max_merge_bytes > 0);
  LockGuard lock(mutex_);
  const std::uint64_t now = clock_now();
  for (Bucket& b : buckets_) {
    b.tokens = static_cast<double>(config_.burst_bytes);  // start full
    b.last_refill_ns = now;
  }
}

TransferScheduler::~TransferScheduler() { drain(); }

std::uint64_t TransferScheduler::clock_now() {
  return clock_ != nullptr ? clock_->now_ns() : steady_now_ns();
}

TransferScheduler::Ticket TransferScheduler::submit(Route route,
                                                    TransferClass cls,
                                                    std::uint64_t offset,
                                                    std::byte* data,
                                                    std::size_t len) {
  auto ticket = std::make_shared<detail::SchedTicket>();
  if (len == 0) {
    ticket->done.store(true, std::memory_order_release);
    return ticket;
  }
  ZI_CHECK(data != nullptr);
  LockGuard lock(mutex_);
  ++stats_.scheduled;
  Pending p;
  p.op = SchedOp{route, offset, data, len};
  p.cls = cls;
  p.enqueue_ns = clock_now();
  p.ticket = ticket;
  queues_[static_cast<std::size_t>(cls)].push_back(std::move(p));
  pump();
  return ticket;
}

void TransferScheduler::wait(const Ticket& t) {
  ZI_CHECK(t != nullptr);
  std::exception_ptr error;
  {
    UniqueLock lock(mutex_);
    while (!t->done.load(std::memory_order_acquire)) {
      if (inflight_.empty()) {
        // Nothing in flight ⇒ no completion callback is coming to pump the
        // queues; the ticket is stalled behind a token bucket. Sleep out
        // the refill ourselves, then re-evaluate.
        pump();
        if (t->done.load(std::memory_order_acquire) || !inflight_.empty()) {
          continue;
        }
        const std::uint64_t now = clock_now();
        std::uint64_t delay_ns = 1'000'000;  // defensive floor
        if (next_ready_ns_ > now) delay_ns = next_ready_ns_ - now;
        (void)cv_.wait_for(lock, std::chrono::nanoseconds(delay_ns));
        continue;
      }
      cv_.wait(lock);
    }
    error = t->error;
  }
  if (error) std::rethrow_exception(error);
}

void TransferScheduler::kick() {
  LockGuard lock(mutex_);
  pump();
}

void TransferScheduler::drain() {
  UniqueLock lock(mutex_);
  draining_ = true;
  pump();
  while (!queues_[0].empty() || !queues_[1].empty() || !inflight_.empty()) {
    cv_.wait(lock);
    pump();
  }
  draining_ = false;
}

TransferScheduler::Stats TransferScheduler::stats() const {
  LockGuard lock(mutex_);
  return stats_;
}

void TransferScheduler::refill_buckets(std::uint64_t now_ns) {
  for (int r = 0; r < kNumRoutes; ++r) {
    const std::uint64_t rate = config_.rate_bytes_per_sec[r];
    if (rate == 0) continue;
    Bucket& b = buckets_[static_cast<std::size_t>(r)];
    if (now_ns <= b.last_refill_ns) continue;
    const double elapsed_s =
        static_cast<double>(now_ns - b.last_refill_ns) * 1e-9;
    b.tokens = std::min(static_cast<double>(config_.burst_bytes),
                        b.tokens + elapsed_s * static_cast<double>(rate));
    b.last_refill_ns = now_ns;
  }
}

void TransferScheduler::pump() {
  refill_buckets(clock_now());
  next_ready_ns_ = 0;
  while (inflight_.size() < config_.max_inflight) {
    const bool have_lat =
        !queues_[static_cast<std::size_t>(TransferClass::kLatency)].empty();
    const bool have_bulk =
        !queues_[static_cast<std::size_t>(TransferClass::kBulk)].empty();
    if (!have_lat && !have_bulk) return;

    // Class choice: latency first, unless a queued bulk transfer has
    // already waited through `starvation_bound` consecutive latency issues.
    TransferClass cls = TransferClass::kLatency;
    bool forced_bulk = false;
    if (!have_lat) {
      cls = TransferClass::kBulk;
    } else if (have_bulk &&
               consecutive_latency_ >= config_.starvation_bound) {
      cls = TransferClass::kBulk;
      forced_bulk = true;
    }

    if (!try_issue(cls, have_lat && have_bulk, forced_bulk)) {
      // Chosen queue throttled; the other class may still have tokens.
      const TransferClass other = cls == TransferClass::kLatency
                                      ? TransferClass::kBulk
                                      : TransferClass::kLatency;
      const bool other_has =
          !queues_[static_cast<std::size_t>(other)].empty();
      if (!other_has || !try_issue(other, have_lat && have_bulk, false)) {
        return;  // both throttled (next_ready_ns_ records the refill time)
      }
    }
  }
}

bool TransferScheduler::try_issue(TransferClass cls, bool other_waiting,
                                  bool forced_bulk) {
  std::deque<Pending>& q = queues_[static_cast<std::size_t>(cls)];
  const Route route = q.front().op.route;

  // Coalesce a contiguous run from the queue head, in submission order:
  // same route, exactly adjacent ranges, every segment small enough, total
  // under the merge cap. An overlap, a gap, or a route change stops the
  // scan — cross-route pairs never merge.
  std::size_t count = 1;
  std::uint64_t total = q.front().op.len;
  if (config_.coalesce &&
      q.front().op.len <= config_.coalesce_segment_bytes) {
    while (count < q.size()) {
      const SchedOp& prev = q[count - 1].op;
      const SchedOp& next = q[count].op;
      if (next.route != route) break;
      if (next.len > config_.coalesce_segment_bytes) break;
      if (next.offset != prev.offset + prev.len) break;
      if (total + next.len > config_.max_merge_bytes) break;
      total += next.len;
      ++count;
    }
  }

  const std::uint64_t rate =
      config_.rate_bytes_per_sec[static_cast<std::size_t>(route)];
  Bucket& bucket = buckets_[static_cast<std::size_t>(route)];
  if (!draining_ && rate > 0 && bucket.tokens < 0.0) {
    // In debt from a previous issue: compute when the debt clears so a
    // waiter with nothing in flight knows how long to sleep.
    const std::uint64_t ready =
        bucket.last_refill_ns +
        static_cast<std::uint64_t>(-bucket.tokens * 1e9 /
                                   static_cast<double>(rate)) +
        1;
    if (next_ready_ns_ == 0 || ready < next_ready_ns_) next_ready_ns_ = ready;
    return false;
  }
  bucket.tokens -= static_cast<double>(total);

  if (cls == TransferClass::kLatency) {
    if (other_waiting) {
      ++consecutive_latency_;
      ++stats_.preemptions;  // issued ahead of queued bulk work
    } else {
      consecutive_latency_ = 0;
    }
  } else {
    consecutive_latency_ = 0;
    if (forced_bulk) ++stats_.starvation_yields;
  }

  Inflight op;
  op.segs.assign(std::make_move_iterator(q.begin()),
                 std::make_move_iterator(q.begin() + static_cast<long>(count)));
  q.erase(q.begin(), q.begin() + static_cast<long>(count));

  const std::uint64_t now = clock_now();
  for (const Pending& seg : op.segs) {
    stats_.queue_ns[static_cast<std::size_t>(seg.cls)] +=
        now > seg.enqueue_ns ? now - seg.enqueue_ns : 0;
  }

  op.op = SchedOp{route, op.segs.front().op.offset, op.segs.front().op.data,
                  static_cast<std::size_t>(total)};
  if (count > 1) {
    op.bounce.resize(total);
    if (route_is_spill(route)) {
      // Gather: merged writes read their payloads now, so the sources may
      // die as soon as their own tickets complete.
      std::size_t off = 0;
      for (const Pending& seg : op.segs) {
        std::memcpy(op.bounce.data() + off, seg.op.data, seg.op.len);
        off += seg.op.len;
      }
    }
    op.op.data = op.bounce.data();
    ++stats_.merged_ops;
    stats_.coalesced_transfers += count;
    ZI_TRACE_INSTANT("sched", "merge",
                     "\"segments\":" + std::to_string(count) +
                         ",\"bytes\":" + std::to_string(total));
  }
  issue_op(std::move(op));
  return true;
}

void TransferScheduler::issue_op(Inflight op) {
  const std::uint64_t id = next_op_id_++;
  ++stats_.backend_ops;
  if (op.fallback) ++stats_.fallback_ops;
  auto [it, inserted] = inflight_.emplace(id, std::move(op));
  ZI_CHECK(inserted);
  Inflight& ref = it->second;
  // The completion callback may fire on an AIO worker before issue()
  // returns; it blocks on mutex_ (held here) until this frame finishes, so
  // storing the status afterwards is safe. Synchronous completion on this
  // thread would self-deadlock — the SchedBackend contract forbids it.
  ref.status = backend_.issue(ref.op, [this, id] { on_backend_done(id); });
}

void TransferScheduler::on_backend_done(std::uint64_t id) {
  LockGuard lock(mutex_);
  auto it = inflight_.find(id);
  ZI_CHECK(it != inflight_.end());
  Inflight op = std::move(it->second);
  inflight_.erase(it);

  std::exception_ptr error;
  int error_code = 0;
  try {
    op.status.wait();  // already complete; surfaces the first error, if any
  } catch (...) {
    error = std::current_exception();
    error_code = op.status.error_code();
  }

  if (!error) {
    if (op.segs.size() > 1 && !route_is_spill(op.op.route)) {
      // Split a merged read back to the original destinations.
      std::size_t off = 0;
      for (const Pending& seg : op.segs) {
        std::memcpy(seg.op.data, op.bounce.data() + off, seg.op.len);
        off += seg.op.len;
      }
    }
    for (const Pending& seg : op.segs) {
      complete_ticket(seg.ticket, nullptr, 0);
    }
  } else if (op.segs.size() == 1) {
    complete_ticket(op.segs.front().ticket, error, error_code);
  } else {
    // Split-on-partial-failure: a merged request records only the first
    // error, so the failing range cannot be attributed to one segment.
    // Re-issue every segment individually against its original buffer —
    // each then succeeds or fails under its own retry/fault schedule,
    // exactly as if it had never been merged. (Token buckets were already
    // charged at merge time; in-flight may transiently exceed the cap by
    // the segment count.)
    for (Pending& seg : op.segs) {
      Inflight single;
      single.op = seg.op;
      single.fallback = true;
      single.segs.push_back(std::move(seg));
      issue_op(std::move(single));
    }
  }
  pump();
  cv_.notify_all();
}

void TransferScheduler::complete_ticket(const Ticket& t,
                                        std::exception_ptr error,
                                        int error_code) {
  t->error = error;
  t->error_code.store(error_code, std::memory_order_relaxed);
  t->done.store(true, std::memory_order_release);
}

}  // namespace zi
