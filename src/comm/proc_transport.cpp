#include "comm/proc_transport.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "comm/clock_util.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

namespace zi::detail {

namespace {

// ---------------------------------------------------------------------------
// Wire protocol: fixed frame + optional payload over one SOCK_STREAM
// socketpair per rank. Strict request/reply: a child has at most one
// outstanding request, and the hub sends exactly one reply per request (a
// reply may be kPoisoned for any request once the world is poisoned).

enum FrameType : std::uint32_t {
  kArrive = 1,   // child->hub: barrier arrival      (group, m=member)
  kRelease,      // hub->child: barrier completed
  kSend,         // child->hub: p2p send             (a=to member, b=tag)
  kSendOk,       // hub->child: send accepted        (a=1 if it had to block)
  kRecv,         // child->hub: p2p receive          (a=from member)
  kMsg,          // hub->child: delivered message    (b=tag)
  kJoinGroup,    // child->hub: split() join         (a=ordinal, b=color)
  kGroupReady,   // hub->child: subgroup id + globals (a=new group id)
  kPoisonReq,    // child->hub: record failure+poison (a=culprit, b=kind)
  kPoisonAck,    // hub->child
  kResult,       // child->hub: set_result payload
  kResultAck,    // hub->child
  kDone,         // child->hub: rank body returned cleanly (terminal)
  kFail,         // child->hub: rank body threw (a=0 non-comm, 1 comm)
  kPoisoned,     // hub->child: world poisoned (valid reply to any request)
  kTimeoutd,     // hub->child: this wait timed out  (a=suspect global rank)
};

struct Frame {
  std::uint32_t type = 0;
  std::int32_t group = 0;
  std::int32_t m = 0;  ///< sender's member index within `group`
  std::int32_t pad = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::uint64_t len = 0;  ///< payload bytes following the frame
};

bool send_full(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool send_frame(int fd, const Frame& f, const void* payload) {
  if (!send_full(fd, &f, sizeof(f))) return false;
  if (f.len > 0 && !send_full(fd, payload, f.len)) return false;
  return true;
}

/// False on EOF or error.
bool recv_full(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Shared-memory segment (MAP_SHARED | MAP_ANONYMOUS, mapped before fork so
// every rank inherits the same physical pages). Layout:
//   [ShmControl][beats: n x atomic<i64>][per-rank region: hdr + data] x n
// Bulk collective payloads go through the per-rank regions; the sockets
// carry only control frames and p2p payloads. Heartbeats and the
// poison/failure words live here so liveness survives a wedged socket.

constexpr std::size_t kFailWhatCap = 2048;

struct ShmControl {
  std::atomic<std::uint32_t> poisoned;
  std::atomic<std::uint32_t> fail_state;  // 0 = none, 2 = recorded
  std::atomic<std::int32_t> fail_culprit;
  std::atomic<std::int32_t> fail_kind;
  std::atomic<std::uint32_t> fail_what_len;
  char fail_what[kFailWhatCap];
};

struct ShmRegionHdr {
  std::atomic<std::uint64_t> count;
  std::atomic<std::uint64_t> bytes;
};

struct ShmView {
  ShmControl* ctl = nullptr;
  std::atomic<std::int64_t>* beats = nullptr;
  std::byte* regions = nullptr;
  std::size_t region_stride = 0;
  std::size_t region_bytes = 0;  ///< data capacity per rank
  void* base = nullptr;
  std::size_t total = 0;

  ShmRegionHdr* hdr(int global) const {
    return reinterpret_cast<ShmRegionHdr*>(
        regions + static_cast<std::size_t>(global) * region_stride);
  }
  std::byte* data(int global) const {
    return regions + static_cast<std::size_t>(global) * region_stride +
           sizeof(ShmRegionHdr);
  }
};

std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) / align * align;
}

ShmView map_shm(int n, std::size_t region_bytes) {
  ShmView v;
  v.region_bytes = region_bytes;
  v.region_stride = round_up(sizeof(ShmRegionHdr) + region_bytes, 64);
  const std::size_t ctl_off = 0;
  const std::size_t beats_off = round_up(sizeof(ShmControl), 64);
  const std::size_t regions_off = round_up(
      beats_off + static_cast<std::size_t>(n) * sizeof(std::atomic<std::int64_t>),
      64);
  v.total = regions_off + static_cast<std::size_t>(n) * v.region_stride;
  void* base = ::mmap(nullptr, v.total, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    throw IoError("proc transport: mmap of " + std::to_string(v.total) +
                      " byte shared segment failed: " + std::strerror(errno),
                  errno);
  }
  v.base = base;
  std::byte* bytes = static_cast<std::byte*>(base);
  v.ctl = new (bytes + ctl_off) ShmControl{};
  v.beats = reinterpret_cast<std::atomic<std::int64_t>*>(bytes + beats_off);
  v.regions = bytes + regions_off;
  const std::int64_t t0 = comm_now_ns();
  for (int r = 0; r < n; ++r) {
    new (v.beats + r) std::atomic<std::int64_t>(t0);
    new (bytes + regions_off + static_cast<std::size_t>(r) * v.region_stride)
        ShmRegionHdr{};
  }
  return v;
}

// ---------------------------------------------------------------------------
// Child side

struct ProcCore {
  int fd = -1;
  WorldOptions options;
  int world_n = 0;
  int my_global = -1;
  ShmView shm;
  std::shared_ptr<WorldHealth> mirror;  ///< local view of the shared state
};

[[noreturn]] void die_hub_lost(const char* where) {
  // The supervisor is gone; nothing can supervise a graceful unwind. Exit
  // hard — PDEATHSIG normally gets here first, this is the belt to its
  // suspenders.
  ZI_LOG_ERROR << "proc transport: supervisor connection lost (" << where
               << "); exiting";
  ::_Exit(125);
}

/// Send one request and block (beating the shared heartbeat every wait
/// slice) until the hub replies.
Frame child_request(ProcCore& core, const Frame& req, const void* payload,
                    std::vector<std::byte>* payload_out) {
  if (!send_frame(core.fd, req, payload)) die_hub_lost("send");
  for (;;) {
    struct pollfd pfd = {core.fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1,
                          static_cast<int>(kWaitSlice.count()));
    const std::int64_t now = comm_now_ns();
    core.shm.beats[core.my_global].store(now, std::memory_order_relaxed);
    core.mirror->mirror_beat_ns(core.my_global, now);
    if (rc < 0) {
      if (errno == EINTR) continue;
      die_hub_lost("poll");
    }
    if (rc == 0) continue;
    Frame reply;
    if (!recv_full(core.fd, &reply, sizeof(reply))) die_hub_lost("recv");
    if (reply.len > 0) {
      if (payload_out == nullptr) die_hub_lost("unexpected payload");
      payload_out->resize(reply.len);
      if (!recv_full(core.fd, payload_out->data(), reply.len)) {
        die_hub_lost("recv payload");
      }
    }
    return reply;
  }
}

class ProcChildTransport final : public Transport {
 public:
  ProcChildTransport(std::shared_ptr<ProcCore> core, int group,
                     std::vector<int> globals, int member)
      : core_(std::move(core)),
        group_(group),
        globals_(std::move(globals)),
        member_(member) {}

  int size() const noexcept override {
    return static_cast<int>(globals_.size());
  }
  int global_rank_of(int member) const noexcept override {
    return globals_[static_cast<std::size_t>(member)];
  }
  const WorldOptions& options() const noexcept override {
    return core_->options;
  }
  CommTraffic& traffic() noexcept override { return traffic_; }
  bool out_of_process() const noexcept override { return true; }

  WorldHealth& health() noexcept override {
    refresh_mirror();
    return *core_->mirror;
  }
  void beat() noexcept override {
    const std::int64_t now = comm_now_ns();
    core_->shm.beats[core_->my_global].store(now, std::memory_order_relaxed);
    core_->mirror->mirror_beat_ns(core_->my_global, now);
  }
  bool poisoned() const noexcept override {
    return core_->shm.ctl->poisoned.load(std::memory_order_acquire) != 0;
  }
  void fail_world(int culprit_global, WorldFailKind kind,
                  const std::string& what) override {
    core_->mirror->record_failure(culprit_global, kind, what);
    Frame f;
    f.type = kPoisonReq;
    f.group = group_;
    f.m = member_;
    f.a = culprit_global;
    f.b = static_cast<std::int64_t>(kind);
    f.len = what.size();
    (void)child_request(*core_, f, what.data(), nullptr);  // ack or poisoned
  }

  void publish(const void* data, std::size_t bytes,
               std::size_t count) override {
    const ShmView& shm = core_->shm;
    if (bytes > shm.region_bytes) {
      throw Error("proc transport: collective contribution of " +
                  std::to_string(bytes) +
                  " bytes exceeds the per-rank shared-memory region of " +
                  std::to_string(shm.region_bytes) +
                  " bytes; raise ZI_PROC_SHM_MB / WorldOptions::proc_shm_mb");
    }
    std::memcpy(shm.data(core_->my_global), data, bytes);
    ShmRegionHdr* hdr = shm.hdr(core_->my_global);
    hdr->bytes.store(bytes, std::memory_order_release);
    hdr->count.store(count, std::memory_order_release);
  }

  WaitOutcome sync(int* suspect_global, std::uint64_t* epoch_out) override {
    if (epoch_out != nullptr) *epoch_out = epoch_;
    Frame f;
    f.type = kArrive;
    f.group = group_;
    f.m = member_;
    const Frame reply = child_request(*core_, f, nullptr, nullptr);
    if (reply.type == kRelease) {
      ++epoch_;
      return WaitOutcome::kOk;
    }
    if (reply.type == kTimeoutd) {
      if (suspect_global != nullptr) {
        *suspect_global = static_cast<int>(reply.a);
      }
      return WaitOutcome::kTimeout;
    }
    return WaitOutcome::kPoisoned;
  }
  std::uint64_t epoch() const override { return epoch_; }

  const void* peer_data(int member) const override {
    return core_->shm.data(globals_[static_cast<std::size_t>(member)]);
  }
  std::size_t peer_count(int member) const override {
    return core_->shm.hdr(globals_[static_cast<std::size_t>(member)])
        ->count.load(std::memory_order_acquire);
  }
  void* peer_data_mut(int member) override {
    // MAP_SHARED: in-place allreduce writes land in the peer's region.
    return core_->shm.data(globals_[static_cast<std::size_t>(member)]);
  }
  void readback(void* data, std::size_t bytes) override {
    // Peers reduced into this rank's region, not the caller's buffer.
    std::memcpy(data, core_->shm.data(core_->my_global), bytes);
  }

  WaitOutcome p2p_send(int to_member, P2pMessage msg) override {
    Frame f;
    f.type = kSend;
    f.group = group_;
    f.m = member_;
    f.a = to_member;
    f.b = msg.tag;
    f.len = msg.payload.size();
    const Frame reply = child_request(*core_, f, msg.payload.data(), nullptr);
    if (reply.type == kSendOk) {
      if (reply.a != 0) {
        traffic_.p2p_send_blocks.fetch_add(1, std::memory_order_relaxed);
      }
      return WaitOutcome::kOk;
    }
    if (reply.type == kTimeoutd) {
      traffic_.p2p_send_blocks.fetch_add(1, std::memory_order_relaxed);
      return WaitOutcome::kTimeout;
    }
    return WaitOutcome::kPoisoned;
  }

  WaitOutcome p2p_recv(int from_member, P2pMessage* out) override {
    Frame f;
    f.type = kRecv;
    f.group = group_;
    f.m = member_;
    f.a = from_member;
    std::vector<std::byte> payload;
    const Frame reply = child_request(*core_, f, nullptr, &payload);
    if (reply.type == kMsg) {
      out->tag = static_cast<int>(reply.b);
      out->payload = std::move(payload);
      return WaitOutcome::kOk;
    }
    if (reply.type == kTimeoutd) return WaitOutcome::kTimeout;
    return WaitOutcome::kPoisoned;
  }

  std::shared_ptr<Transport> make_subgroup(int ordinal, int color,
                                           const std::vector<int>& members,
                                           int sub_rank) override {
    Frame f;
    f.type = kJoinGroup;
    f.group = group_;
    f.m = member_;
    f.a = ordinal;
    f.b = color;
    std::vector<std::int32_t> wire(members.begin(), members.end());
    f.len = wire.size() * sizeof(std::int32_t);
    std::vector<std::byte> payload;
    const Frame reply = child_request(*core_, f, wire.data(), &payload);
    if (reply.type != kGroupReady) {
      // World poisoned mid-split; surface the same abort the next
      // sync_point would have produced.
      refresh_mirror();
      std::ostringstream os;
      os << "comm op 'split' on rank " << core_->my_global
         << " aborted at epoch " << epoch_ << ": world poisoned";
      throw CommAbortedError(os.str(), "split",
                             core_->mirror->culprit_rank(), epoch_);
    }
    const std::size_t n_sub = reply.len / sizeof(std::int32_t);
    std::vector<int> sub_globals(n_sub);
    const std::int32_t* g =
        reinterpret_cast<const std::int32_t*>(payload.data());
    for (std::size_t i = 0; i < n_sub; ++i) sub_globals[i] = g[i];
    return std::make_shared<ProcChildTransport>(
        core_, static_cast<int>(reply.a), std::move(sub_globals), sub_rank);
  }

  void set_result(std::string payload) override {
    Frame f;
    f.type = kResult;
    f.group = group_;
    f.m = member_;
    f.len = payload.size();
    (void)child_request(*core_, f, payload.data(), nullptr);
  }

 private:
  /// Copy the cross-process truth (heartbeats, poison flag, first-failure
  /// record) into the local WorldHealth so protocol-layer reads — blame
  /// messages, heartbeat ages — see the same state on both backends.
  void refresh_mirror() noexcept {
    const ShmView& shm = core_->shm;
    WorldHealth& h = *core_->mirror;
    for (int r = 0; r < core_->world_n; ++r) {
      h.mirror_beat_ns(r, shm.beats[r].load(std::memory_order_relaxed));
    }
    if (shm.ctl->fail_state.load(std::memory_order_acquire) == 2) {
      const std::uint32_t len =
          std::min<std::uint32_t>(shm.ctl->fail_what_len.load(
                                      std::memory_order_relaxed),
                                  kFailWhatCap);
      h.record_failure(
          shm.ctl->fail_culprit.load(std::memory_order_relaxed),
          static_cast<WorldFailKind>(
              shm.ctl->fail_kind.load(std::memory_order_relaxed)),
          std::string(shm.ctl->fail_what, len));
    }
    if (shm.ctl->poisoned.load(std::memory_order_acquire) != 0) {
      h.set_poisoned();
    }
  }

  std::shared_ptr<ProcCore> core_;
  const int group_;
  const std::vector<int> globals_;  ///< member index -> root-world rank
  const int member_;
  std::uint64_t epoch_ = 0;
  CommTraffic traffic_;
};

[[noreturn]] void run_rank_child(int fd, const WorldOptions& options, int n,
                                 int rank, const ShmView& shm,
                                 const std::function<void(Communicator&)>& fn) {
  // Die with the supervisor: no orphaned rank processes outliving a killed
  // test binary. Guard against the supervisor dying between fork and prctl.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) ::_Exit(125);
  // Worker threads (aio engines, optimizer pools) did not survive the fork;
  // respawn them so inherited pool objects work in this process.
  ThreadPool::restart_all_after_fork();
  Tracer::set_thread_name("rank" + std::to_string(rank));

  auto core = std::make_shared<ProcCore>();
  core->fd = fd;
  core->options = options;
  core->world_n = n;
  core->my_global = rank;
  core->shm = shm;
  core->mirror = std::make_shared<WorldHealth>(n);

  std::vector<int> globals(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) globals[static_cast<std::size_t>(r)] = r;
  auto transport = std::make_shared<ProcChildTransport>(
      core, 0, std::move(globals), rank);
  transport->beat();

  int fail_class = -1;
  std::string what;
  try {
    Communicator comm = make_communicator(rank, rank, transport);
    fn(comm);
  } catch (const CommError& e) {
    fail_class = 1;
    what = e.what();
  } catch (const std::exception& e) {
    fail_class = 0;
    what = e.what();
  } catch (...) {
    fail_class = 0;
    what = "unknown exception type";
  }
  Frame f;
  if (fail_class < 0) {
    f.type = kDone;
    (void)send_frame(fd, f, nullptr);
  } else {
    f.type = kFail;
    f.a = fail_class;
    f.len = what.size();
    (void)send_frame(fd, f, what.data());
  }
  // _Exit: no atexit handlers, no gtest teardown, no leak-check epilogue —
  // this process is a rank body, not a test binary. But _Exit also skips
  // stdio flushing, and a redirected stdout is fully buffered — without an
  // explicit flush every line the rank body printed silently vanishes.
  std::cout.flush();
  std::cerr.flush();
  std::fflush(nullptr);
  ::_Exit(0);
}

// ---------------------------------------------------------------------------
// Hub side (supervisor process, single-threaded poll loop)

struct HubChild {
  int fd = -1;
  pid_t pid = -1;
  bool alive = true;
  bool reported = false;  ///< sent kDone or kFail
  bool done_ok = false;
  int fail_class = -1;
  std::string fail_what;
  bool we_killed = false;  ///< straggler SIGKILLed after join grace
  bool died_unexpectedly = false;
  std::string death_what;

  enum class Park { kNone, kBarrier, kRecv, kSend };
  Park park = Park::kNone;
  int park_group = 0;
  int park_peer = -1;  ///< recv: from-member; send: to-member
  int park_tag = 0;
  P2pMessage park_msg;
  CommClock::time_point park_deadline = CommClock::time_point::max();
};

struct HubChan {
  std::deque<P2pMessage> q;
  std::size_t bytes = 0;
};

struct HubGroup {
  std::vector<int> globals;  ///< member index -> root-world rank
  std::uint64_t epoch = 0;
  int arrived = 0;
  std::vector<std::uint64_t> arrived_round;
  std::vector<int> waiting;  ///< members parked in the barrier
  std::map<std::pair<int, int>, HubChan> chans;      ///< (from, to) members
  std::map<std::pair<int, int>, int> joins;  ///< (ordinal, color) -> group id
};

struct Hub {
  int n = 0;
  WorldOptions options;
  ShmView shm;
  std::vector<HubChild> kids;    ///< indexed by root-world rank
  std::vector<HubGroup> groups;  ///< index 0 = root world
  bool recorded = false;
  int culprit = -1;
  WorldFailKind kind = WorldFailKind::kNone;
  std::string what;
  bool poisoned = false;
  std::vector<std::string> results;
  CommClock::time_point grace_deadline = CommClock::time_point::max();
  CommClock::time_point next_watchdog = CommClock::time_point::max();

  int member_global(int group, int member) const {
    return groups[static_cast<std::size_t>(group)]
        .globals[static_cast<std::size_t>(member)];
  }
};

void hub_reply(Hub& hub, int global, const Frame& f,
               const void* payload = nullptr) {
  // A send failure means the child died; the poll loop will see the EOF and
  // classify the death — nothing to do here.
  (void)send_frame(hub.kids[static_cast<std::size_t>(global)].fd, f, payload);
}

void hub_unpark_poisoned(Hub& hub) {
  for (int r = 0; r < hub.n; ++r) {
    HubChild& kid = hub.kids[static_cast<std::size_t>(r)];
    if (!kid.alive || kid.park == HubChild::Park::kNone) continue;
    kid.park = HubChild::Park::kNone;
    kid.park_msg = P2pMessage{};
    Frame f;
    f.type = kPoisoned;
    hub_reply(hub, r, f);
  }
  for (HubGroup& g : hub.groups) g.waiting.clear();
}

/// Record the first failure into the shared segment and poison the world:
/// flag set, every parked waiter woken with kPoisoned, join-grace started.
void hub_poison(Hub& hub, int culprit, WorldFailKind kind,
                const std::string& what) {
  if (!hub.recorded) {
    hub.recorded = true;
    hub.culprit = culprit;
    hub.kind = kind;
    hub.what = what;
    ShmControl* ctl = hub.shm.ctl;
    const std::size_t len = std::min(what.size(), kFailWhatCap);
    std::memcpy(ctl->fail_what, what.data(), len);
    ctl->fail_what_len.store(static_cast<std::uint32_t>(len),
                             std::memory_order_relaxed);
    ctl->fail_culprit.store(culprit, std::memory_order_relaxed);
    ctl->fail_kind.store(static_cast<std::int32_t>(kind),
                         std::memory_order_relaxed);
    ctl->fail_state.store(2, std::memory_order_release);
  }
  if (!hub.poisoned) {
    hub.poisoned = true;
    hub.shm.ctl->poisoned.store(1, std::memory_order_release);
    hub_unpark_poisoned(hub);
    hub.grace_deadline =
        CommClock::now() +
        comm_ms_to_duration(std::max(0.0, hub.options.join_grace_ms));
  }
}

/// After a receiver drained the channel (from, to): if the sender is parked
/// on a cap-blocked send into it and the message now fits, deliver it.
void hub_try_unpark_sender(Hub& hub, int group, int from, int to) {
  HubGroup& g = hub.groups[static_cast<std::size_t>(group)];
  const int sender_global = hub.member_global(group, from);
  HubChild& sender = hub.kids[static_cast<std::size_t>(sender_global)];
  if (!sender.alive || sender.park != HubChild::Park::kSend ||
      sender.park_group != group || sender.park_peer != to) {
    return;
  }
  HubChan& ch = g.chans[{from, to}];
  const std::size_t bytes = sender.park_msg.payload.size();
  const std::size_t cap_bytes = hub.options.p2p_capacity_bytes;
  const std::size_t cap_msgs = hub.options.p2p_capacity_messages;
  if ((cap_bytes > 0 && !ch.q.empty() && ch.bytes + bytes > cap_bytes) ||
      (cap_msgs > 0 && ch.q.size() >= cap_msgs)) {
    return;  // still over cap
  }
  ch.q.push_back(std::move(sender.park_msg));
  ch.bytes += bytes;
  sender.park = HubChild::Park::kNone;
  sender.park_msg = P2pMessage{};
  Frame ok;
  ok.type = kSendOk;
  ok.a = 1;  // it blocked before delivery
  hub_reply(hub, sender_global, ok);
}

void hub_handle_frame(Hub& hub, int global, const Frame& f,
                      std::vector<std::byte> payload) {
  HubChild& kid = hub.kids[static_cast<std::size_t>(global)];
  const CommClock::time_point deadline =
      CommClock::now() + comm_ms_to_duration(hub.options.timeout_ms);
  switch (f.type) {
    case kArrive: {
      HubGroup& g = hub.groups[static_cast<std::size_t>(f.group)];
      ZI_CHECK(hub.member_global(f.group, f.m) == global);
      if (hub.poisoned) {
        Frame r;
        r.type = kPoisoned;
        hub_reply(hub, global, r);
        return;
      }
      g.arrived_round[static_cast<std::size_t>(f.m)] = g.epoch + 1;
      if (++g.arrived == static_cast<int>(g.globals.size())) {
        g.arrived = 0;
        ++g.epoch;
        Frame r;
        r.type = kRelease;
        for (int m : g.waiting) {
          const int waiter_global = g.globals[static_cast<std::size_t>(m)];
          // Clear the park before replying, like every other unpark path —
          // a stale Park::kBarrier would make hub_sweep_deadlines (or a
          // later poison) send an unsolicited frame to a released rank,
          // desyncing its one-outstanding-request reply stream.
          HubChild& waiter = hub.kids[static_cast<std::size_t>(waiter_global)];
          waiter.park = HubChild::Park::kNone;
          waiter.park_deadline = CommClock::time_point::max();
          hub_reply(hub, waiter_global, r);
        }
        g.waiting.clear();
        hub_reply(hub, global, r);
      } else {
        g.waiting.push_back(f.m);
        kid.park = HubChild::Park::kBarrier;
        kid.park_group = f.group;
        kid.park_deadline = deadline;
      }
      return;
    }
    case kSend: {
      HubGroup& g = hub.groups[static_cast<std::size_t>(f.group)];
      ZI_CHECK(hub.member_global(f.group, f.m) == global);
      const int to = static_cast<int>(f.a);
      const int to_global = hub.member_global(f.group, to);
      HubChild& receiver = hub.kids[static_cast<std::size_t>(to_global)];
      P2pMessage msg;
      msg.tag = static_cast<int>(f.b);
      msg.payload = std::move(payload);
      // Receiver already parked on this channel: deliver directly (the
      // queue is empty by definition — it parks only when empty).
      if (receiver.alive && receiver.park == HubChild::Park::kRecv &&
          receiver.park_group == f.group && receiver.park_peer == f.m) {
        receiver.park = HubChild::Park::kNone;
        Frame dm;
        dm.type = kMsg;
        dm.b = msg.tag;
        dm.len = msg.payload.size();
        hub_reply(hub, to_global, dm, msg.payload.data());
        Frame ok;
        ok.type = kSendOk;
        hub_reply(hub, global, ok);
        return;
      }
      HubChan& ch = g.chans[{f.m, to}];
      const std::size_t bytes = msg.payload.size();
      const std::size_t cap_bytes = hub.options.p2p_capacity_bytes;
      const std::size_t cap_msgs = hub.options.p2p_capacity_messages;
      // Same cap rule as inproc: a single oversized message is still
      // deliverable (the byte cap gates on a non-empty queue).
      const bool over_cap =
          (cap_bytes > 0 && !ch.q.empty() && ch.bytes + bytes > cap_bytes) ||
          (cap_msgs > 0 && ch.q.size() >= cap_msgs);
      if (!over_cap) {
        ch.q.push_back(std::move(msg));
        ch.bytes += bytes;
        Frame ok;
        ok.type = kSendOk;
        hub_reply(hub, global, ok);
        return;
      }
      if (hub.poisoned) {
        Frame r;
        r.type = kPoisoned;
        hub_reply(hub, global, r);
        return;
      }
      kid.park = HubChild::Park::kSend;
      kid.park_group = f.group;
      kid.park_peer = to;
      kid.park_msg = std::move(msg);
      kid.park_deadline = deadline;
      return;
    }
    case kRecv: {
      HubGroup& g = hub.groups[static_cast<std::size_t>(f.group)];
      ZI_CHECK(hub.member_global(f.group, f.m) == global);
      const int from = static_cast<int>(f.a);
      HubChan& ch = g.chans[{from, f.m}];
      if (!ch.q.empty()) {
        // Deliver even when poisoned — matches the inproc loop, which pops
        // an already-queued message before checking the poison flag.
        P2pMessage msg = std::move(ch.q.front());
        ch.q.pop_front();
        ch.bytes -= msg.payload.size();
        Frame dm;
        dm.type = kMsg;
        dm.b = msg.tag;
        dm.len = msg.payload.size();
        hub_reply(hub, global, dm, msg.payload.data());
        hub_try_unpark_sender(hub, f.group, from, f.m);
        return;
      }
      if (hub.poisoned) {
        Frame r;
        r.type = kPoisoned;
        hub_reply(hub, global, r);
        return;
      }
      kid.park = HubChild::Park::kRecv;
      kid.park_group = f.group;
      kid.park_peer = from;
      kid.park_deadline = deadline;
      return;
    }
    case kJoinGroup: {
      if (hub.poisoned) {
        Frame r;
        r.type = kPoisoned;
        hub_reply(hub, global, r);
        return;
      }
      HubGroup& g = hub.groups[static_cast<std::size_t>(f.group)];
      const auto key = std::pair<int, int>(static_cast<int>(f.a),
                                           static_cast<int>(f.b));
      auto it = g.joins.find(key);
      int gid;
      if (it != g.joins.end()) {
        gid = it->second;
      } else {
        const std::size_t n_sub = payload.size() / sizeof(std::int32_t);
        const std::int32_t* members =
            reinterpret_cast<const std::int32_t*>(payload.data());
        HubGroup sub;
        sub.globals.reserve(n_sub);
        for (std::size_t i = 0; i < n_sub; ++i) {
          sub.globals.push_back(
              g.globals[static_cast<std::size_t>(members[i])]);
        }
        sub.arrived_round.assign(n_sub, 0);
        gid = static_cast<int>(hub.groups.size());
        hub.groups.push_back(std::move(sub));
        // NOTE: hub.groups may have reallocated; re-acquire below if needed.
        hub.groups[static_cast<std::size_t>(f.group)].joins[key] = gid;
      }
      const HubGroup& sub = hub.groups[static_cast<std::size_t>(gid)];
      std::vector<std::int32_t> wire(sub.globals.begin(), sub.globals.end());
      Frame r;
      r.type = kGroupReady;
      r.a = gid;
      r.len = wire.size() * sizeof(std::int32_t);
      hub_reply(hub, global, r, wire.data());
      return;
    }
    case kPoisonReq: {
      hub_poison(hub, static_cast<int>(f.a),
                 static_cast<WorldFailKind>(f.b),
                 std::string(reinterpret_cast<const char*>(payload.data()),
                             payload.size()));
      Frame r;
      r.type = kPoisonAck;
      hub_reply(hub, global, r);
      return;
    }
    case kResult: {
      hub.results[static_cast<std::size_t>(global)] =
          std::string(reinterpret_cast<const char*>(payload.data()),
                      payload.size());
      Frame r;
      r.type = kResultAck;
      hub_reply(hub, global, r);
      return;
    }
    case kDone: {
      kid.reported = true;
      kid.done_ok = true;
      return;  // terminal; EOF follows
    }
    case kFail: {
      kid.reported = true;
      kid.fail_class = static_cast<int>(f.a);
      kid.fail_what =
          std::string(reinterpret_cast<const char*>(payload.data()),
                      payload.size());
      if (kid.fail_class == 0) {
        // Mirrors the thread driver: a non-comm exception is the world's
        // first failure and poisons everyone; comm errors are collateral.
        hub_poison(hub, global, WorldFailKind::kException, kid.fail_what);
      }
      return;  // terminal; EOF follows
    }
    default:
      ZI_CHECK_MSG(false, "proc transport: unexpected frame type " << f.type
                                                                   << " from rank "
                                                                   << global);
  }
}

void hub_handle_eof(Hub& hub, int global) {
  HubChild& kid = hub.kids[static_cast<std::size_t>(global)];
  ::close(kid.fd);
  kid.alive = false;
  int status = 0;
  (void)::waitpid(kid.pid, &status, 0);
  // Drop any parked state (a dead rank cannot be replied to).
  if (kid.park != HubChild::Park::kNone) {
    kid.park = HubChild::Park::kNone;
    kid.park_msg = P2pMessage{};
  }
  if (kid.reported || kid.we_killed) return;
  // Died without a goodbye frame — kill -9, abort, segfault. This is a real
  // crash and a primary failure: record, poison, wake everyone.
  std::ostringstream os;
  os << "rank " << global << " process (pid " << kid.pid << ") died";
  if (WIFSIGNALED(status)) {
    os << ": killed by signal " << WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    os << ": exited with status " << WEXITSTATUS(status);
  }
  os << " before reporting a result (detected via socket EOF)";
  kid.died_unexpectedly = true;
  kid.death_what = os.str();
  ZI_LOG_WARN << "proc transport: " << kid.death_what;
  hub_poison(hub, global, WorldFailKind::kException, kid.death_what);
}

/// Expire parked waits (hub enforces what the wait slices enforce inproc) and
/// run the stall watchdog off the shared heartbeats.
void hub_sweep_deadlines(Hub& hub) {
  const CommClock::time_point now = CommClock::now();
  if (hub.options.watchdog_interval_ms > 0.0 &&
      hub.options.stall_threshold_ms > 0.0 && !hub.poisoned &&
      now >= hub.next_watchdog) {
    hub.next_watchdog =
        now + comm_ms_to_duration(hub.options.watchdog_interval_ms);
    const std::int64_t now_ns = comm_now_ns();
    for (int r = 0; r < hub.n; ++r) {
      const HubChild& kid = hub.kids[static_cast<std::size_t>(r)];
      if (!kid.alive || kid.reported) continue;
      const double age =
          static_cast<double>(
              now_ns - hub.shm.beats[r].load(std::memory_order_relaxed)) /
          1e6;
      if (age <= hub.options.stall_threshold_ms) continue;
      std::ostringstream os;
      os << "watchdog: rank " << r << " heartbeat stalled (age " << age
         << " ms > threshold " << hub.options.stall_threshold_ms << " ms)";
      ZI_LOG_WARN << os.str();
      hub_poison(hub, r, WorldFailKind::kStall, os.str());
      ZI_TRACE_INSTANT("comm", "abort");
      return;
    }
  }
  if (hub.poisoned) return;
  for (int r = 0; r < hub.n; ++r) {
    HubChild& kid = hub.kids[static_cast<std::size_t>(r)];
    if (!kid.alive || kid.park == HubChild::Park::kNone ||
        now < kid.park_deadline) {
      continue;
    }
    // The wait timed out. Like the inproc backend, the transport only
    // reports the timeout + suspect; the timed-out rank's protocol layer
    // records the failure and poisons the world (via kPoisonReq).
    Frame f;
    f.type = kTimeoutd;
    const HubGroup& g = hub.groups[static_cast<std::size_t>(kid.park_group)];
    if (kid.park == HubChild::Park::kBarrier) {
      // Blame the non-arrived member with the oldest heartbeat.
      int suspect = -1;
      double oldest = -1.0;
      const std::int64_t now_ns = comm_now_ns();
      for (std::size_t m = 0; m < g.globals.size(); ++m) {
        if (g.arrived_round[m] == g.epoch + 1) continue;
        const int gr = g.globals[m];
        const double age =
            static_cast<double>(
                now_ns -
                hub.shm.beats[gr].load(std::memory_order_relaxed)) /
            1e6;
        if (age > oldest) {
          oldest = age;
          suspect = gr;
        }
      }
      f.a = suspect;
      // The timed-out rank stays counted as arrived (it did arrive); this
      // matches the inproc barrier, where a timed-out waiter leaves its
      // arrival registered and the world is poisoned moments later anyway.
      auto& waiting =
          hub.groups[static_cast<std::size_t>(kid.park_group)].waiting;
      for (std::size_t i = 0; i < waiting.size(); ++i) {
        if (g.globals[static_cast<std::size_t>(waiting[i])] == r) {
          waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    } else {
      f.a = g.globals[static_cast<std::size_t>(kid.park_peer)];
    }
    kid.park = HubChild::Park::kNone;
    kid.park_msg = P2pMessage{};
    hub_reply(hub, r, f);
  }
}

std::exception_ptr reconstruct_exception(int fail_class,
                                         const std::string& what,
                                         int culprit) {
  // Original types cannot cross the process boundary. Rebuild the class
  // that report consumers actually dispatch on: CommError-ness decides
  // primary vs collateral; everything else travels as zi::Error with the
  // original message.
  if (fail_class == 1) {
    return std::make_exception_ptr(
        CommAbortedError(what, "proc", culprit, 0));
  }
  return std::make_exception_ptr(Error(what));
}

}  // namespace

WorldReport run_world_proc(int num_ranks, const WorldOptions& options,
                           const std::function<void(Communicator&)>& fn) {
  Hub hub;
  hub.n = num_ranks;
  hub.options = options;
  hub.shm = map_shm(num_ranks, options.proc_shm_mb * (std::size_t{1} << 20));
  hub.kids.resize(static_cast<std::size_t>(num_ranks));
  hub.results.assign(static_cast<std::size_t>(num_ranks), std::string());
  HubGroup root;
  root.globals.resize(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    root.globals[static_cast<std::size_t>(r)] = r;
  }
  root.arrived_round.assign(static_cast<std::size_t>(num_ranks), 0);
  hub.groups.push_back(std::move(root));
  if (options.watchdog_interval_ms > 0.0 && options.stall_threshold_ms > 0.0) {
    hub.next_watchdog =
        CommClock::now() + comm_ms_to_duration(options.watchdog_interval_ms);
  }

  // Launch: one socketpair + fork per rank. The child closes every fd that
  // is not its own channel; the parent closes the child ends. On a partial
  // launch failure the already-forked children must be killed and reaped
  // here: they would otherwise wedge on child_request waiting for a hub
  // that never polls (PDEATHSIG fires on parent death, not on a throw).
  auto launch_failed = [&](const char* op, int err) -> IoError {
    for (int p = 0; p < num_ranks; ++p) {
      HubChild& kid = hub.kids[static_cast<std::size_t>(p)];
      if (kid.pid > 0) {
        (void)::kill(kid.pid, SIGKILL);
        (void)::waitpid(kid.pid, nullptr, 0);
      }
      if (kid.fd >= 0) ::close(kid.fd);
    }
    ::munmap(hub.shm.base, hub.shm.total);
    return IoError(std::string("proc transport: ") + op + ": " +
                       std::strerror(err),
                   err);
  };
  for (int r = 0; r < num_ranks; ++r) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw launch_failed("socketpair", errno);
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = errno;
      ::close(sv[0]);
      ::close(sv[1]);
      throw launch_failed("fork", err);
    }
    if (pid == 0) {
      ::close(sv[0]);
      for (int p = 0; p < r; ++p) {
        ::close(hub.kids[static_cast<std::size_t>(p)].fd);
      }
      run_rank_child(sv[1], options, num_ranks, r, hub.shm, fn);
    }
    ::close(sv[1]);
    hub.kids[static_cast<std::size_t>(r)].fd = sv[0];
    hub.kids[static_cast<std::size_t>(r)].pid = pid;
  }

  // Event loop: drain frames, detect deaths, enforce deadlines — until
  // every rank process has exited.
  std::vector<struct pollfd> pfds;
  for (;;) {
    bool any_alive = false;
    pfds.clear();
    for (int r = 0; r < num_ranks; ++r) {
      const HubChild& kid = hub.kids[static_cast<std::size_t>(r)];
      if (!kid.alive) continue;
      any_alive = true;
      pfds.push_back({kid.fd, POLLIN, 0});
    }
    if (!any_alive) break;

    // Poll timeout: the nearest of parked-wait deadlines, the watchdog
    // cadence, the post-poison join grace — capped at one wait slice.
    CommClock::time_point next = CommClock::now() + kWaitSlice;
    if (!hub.poisoned) {
      for (const HubChild& kid : hub.kids) {
        if (kid.alive && kid.park != HubChild::Park::kNone) {
          next = std::min(next, kid.park_deadline);
        }
      }
    }
    next = std::min(next, hub.next_watchdog);
    next = std::min(next, hub.grace_deadline);
    const auto wait = std::max<std::int64_t>(
        1, std::chrono::duration_cast<std::chrono::milliseconds>(
               next - CommClock::now())
               .count());
    const int rc =
        ::poll(pfds.data(), pfds.size(), static_cast<int>(wait));
    if (rc < 0 && errno != EINTR) {
      throw IoError(std::string("proc transport: poll: ") +
                        std::strerror(errno),
                    errno);
    }

    for (const struct pollfd& p : pfds) {
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      int global = -1;
      for (int r = 0; r < num_ranks; ++r) {
        if (hub.kids[static_cast<std::size_t>(r)].alive &&
            hub.kids[static_cast<std::size_t>(r)].fd == p.fd) {
          global = r;
          break;
        }
      }
      if (global < 0) continue;
      Frame f;
      if (!recv_full(p.fd, &f, sizeof(f))) {
        hub_handle_eof(hub, global);
        continue;
      }
      std::vector<std::byte> payload;
      if (f.len > 0) {
        payload.resize(f.len);
        if (!recv_full(p.fd, payload.data(), f.len)) {
          hub_handle_eof(hub, global);
          continue;
        }
      }
      hub_handle_frame(hub, global, f, std::move(payload));
    }

    hub_sweep_deadlines(hub);

    // Join grace expired: rank processes can actually be killed, unlike
    // threads — SIGKILL the stragglers instead of detaching zombies.
    if (hub.poisoned && CommClock::now() >= hub.grace_deadline) {
      hub.grace_deadline = CommClock::time_point::max();
      for (int r = 0; r < num_ranks; ++r) {
        HubChild& kid = hub.kids[static_cast<std::size_t>(r)];
        if (!kid.alive || kid.reported) continue;
        ZI_LOG_WARN << "run_world: rank " << r
                    << " still blocked past join grace; SIGKILLed";
        kid.we_killed = true;
        (void)::kill(kid.pid, SIGKILL);
      }
    }
  }

  ::munmap(hub.shm.base, hub.shm.total);

  WorldReport rep;
  rep.world = num_ranks;
  for (int r = 0; r < num_ranks; ++r) {
    const HubChild& kid = hub.kids[static_cast<std::size_t>(r)];
    if (kid.done_ok) continue;
    if (kid.fail_class >= 0) {
      rep.failed_ranks.push_back(r);
      rep.errors.push_back(kid.fail_what);
      rep.exceptions.push_back(
          reconstruct_exception(kid.fail_class, kid.fail_what, hub.culprit));
      if (kid.fail_class == 0) rep.primary_ranks.push_back(r);
    } else if (kid.died_unexpectedly) {
      rep.failed_ranks.push_back(r);
      rep.errors.push_back(kid.death_what);
      rep.exceptions.push_back(
          std::make_exception_ptr(Error(kid.death_what)));
      rep.primary_ranks.push_back(r);
    } else if (kid.we_killed) {
      rep.failed_ranks.push_back(r);
      rep.exceptions.push_back(nullptr);
      rep.errors.emplace_back(
          "rank did not return after world abort (SIGKILLed)");
      ++rep.detached;
    }
  }
  rep.kind = hub.kind;
  rep.culprit_rank = hub.culprit;
  rep.culprit_what = hub.what;
  if (rep.culprit_rank < 0 && !rep.primary_ranks.empty()) {
    rep.culprit_rank = rep.primary_ranks.front();
  }
  rep.rank_payloads = std::move(hub.results);
  rep.ok = rep.failed_ranks.empty();
  return rep;
}

}  // namespace zi::detail
