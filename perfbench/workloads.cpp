#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "aio/aio_engine.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/stream_engine.hpp"
#include "data/dataset.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

// --- Process cost probes ------------------------------------------------

struct ProcCost {
  double minor_faults = 0, major_faults = 0;
  double vol_ctx_switches = 0, invol_ctx_switches = 0;
  double user_s = 0, sys_s = 0;
};

ProcCost proc_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcCost c;
  c.minor_faults = static_cast<double>(ru.ru_minflt);
  c.major_faults = static_cast<double>(ru.ru_majflt);
  c.vol_ctx_switches = static_cast<double>(ru.ru_nvcsw);
  c.invol_ctx_switches = static_cast<double>(ru.ru_nivcsw);
  c.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  c.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  return c;
}

ProcCost operator-(const ProcCost& b, const ProcCost& a) {
  return {b.minor_faults - a.minor_faults, b.major_faults - a.major_faults,
          b.vol_ctx_switches - a.vol_ctx_switches,
          b.invol_ctx_switches - a.invol_ctx_switches, b.user_s - a.user_s,
          b.sys_s - a.sys_s};
}

ProcCost& operator+=(ProcCost& a, const ProcCost& b) {
  a.minor_faults += b.minor_faults;
  a.major_faults += b.major_faults;
  a.vol_ctx_switches += b.vol_ctx_switches;
  a.invol_ctx_switches += b.invol_ctx_switches;
  a.user_s += b.user_s;
  a.sys_s += b.sys_s;
  return a;
}

double rss_peak_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Counter snapshots --------------------------------------------------

// Every counter surface the per-layer metrics read, as one array of
// doubles so a timed phase is one subtraction. Comm and AIO counters are
// world-wide; mover and coordinator counters are rank 0's.
enum Counter : int {
  kAllgatherBytes, kReduceScatterBytes, kBroadcastBytes, kAllreduceBytes,
  kCollectives, kBarriers,
  kAioRead, kAioWrite, kAioRequests, kAioSubRequests, kAioRetries,
  kAioRetriesExhausted,
  kStagedPinned, kStagedHeap, kSchedScheduled, kSchedCoalesced,
  kSchedPreemptions, kSchedLatencyWaitS, kSchedBulkWaitS,
  kFetches, kPrefetchesIssued, kPrefetchHits, kPrefetchDrops, kFetchSeconds,
  kReduceSeconds,
  kRouteBytes,  // one slot per zi::Route from here on, for each of three
  kRouteSeconds = kRouteBytes + zi::kNumRoutes,
  kRouteTransfers = kRouteSeconds + zi::kNumRoutes,
  kNumCounters = kRouteTransfers + zi::kNumRoutes,
};
using Counters = std::array<double, kNumCounters>;

Counters minus(const Counters& a, const Counters& b) {
  Counters r{};
  for (int i = 0; i < kNumCounters; ++i) r[i] = a[i] - b[i];
  return r;
}

Counters read_counters(const zi::Communicator& comm, const zi::AioEngine& aio,
                       const zi::RankResources& res,
                       const zi::StreamCoordinator* coord) {
  Counters c{};
  const zi::CommTraffic& t = comm.traffic();
  auto ld = [](const std::atomic<std::uint64_t>& v) {
    return static_cast<double>(v.load(std::memory_order_relaxed));
  };
  c[kAllgatherBytes] = ld(t.allgather_bytes);
  c[kReduceScatterBytes] = ld(t.reduce_scatter_bytes);
  c[kBroadcastBytes] = ld(t.broadcast_bytes);
  c[kAllreduceBytes] = ld(t.allreduce_bytes);
  c[kCollectives] = ld(t.collectives);
  c[kBarriers] = ld(t.barriers);

  const zi::AioEngine::Stats a = aio.stats();
  c[kAioRead] = static_cast<double>(a.bytes_read);
  c[kAioWrite] = static_cast<double>(a.bytes_written);
  c[kAioRequests] = static_cast<double>(a.requests);
  c[kAioSubRequests] = static_cast<double>(a.sub_requests);
  c[kAioRetries] = static_cast<double>(a.retries);
  c[kAioRetriesExhausted] = static_cast<double>(a.retries_exhausted);

  const zi::DataMover::Stats m = res.mover().stats();
  for (int r = 0; r < zi::kNumRoutes; ++r) {
    const auto& rs = m.route(static_cast<zi::Route>(r));
    c[kRouteBytes + r] = static_cast<double>(rs.bytes);
    c[kRouteSeconds + r] = rs.seconds;
    c[kRouteTransfers + r] = static_cast<double>(rs.transfers);
  }
  c[kStagedPinned] = static_cast<double>(m.staged_pinned);
  c[kStagedHeap] = static_cast<double>(m.staged_heap);
  c[kSchedScheduled] = static_cast<double>(m.sched.scheduled);
  c[kSchedCoalesced] = static_cast<double>(m.sched.coalesced_transfers);
  c[kSchedPreemptions] = static_cast<double>(m.sched.preemptions);
  c[kSchedLatencyWaitS] =
      static_cast<double>(m.sched.queue_ns[static_cast<int>(
          zi::TransferClass::kLatency)]) * 1e-9;
  c[kSchedBulkWaitS] = static_cast<double>(m.sched.queue_ns[static_cast<int>(
                            zi::TransferClass::kBulk)]) * 1e-9;

  if (coord != nullptr) {
    const zi::StreamCoordinator::Stats& s = coord->stats();
    c[kFetches] = static_cast<double>(s.fetches);
    c[kPrefetchesIssued] = static_cast<double>(s.prefetches_issued);
    c[kPrefetchHits] = static_cast<double>(s.prefetch_hits);
    c[kPrefetchDrops] = static_cast<double>(s.prefetch_drops);
    c[kFetchSeconds] = s.fetch_seconds;
    c[kReduceSeconds] = s.reduce_seconds;
  }
  return c;
}

struct MemPeaks {
  double gpu_mb = 0, cpu_mb = 0, nvme_mb = 0;
  double pinned_blocked = 0, pinned_peak_in_use = 0;
};

MemPeaks read_mem(zi::RankResources& res) {
  const auto& acc = res.accountant();
  MemPeaks m;
  m.gpu_mb = static_cast<double>(std::max<std::uint64_t>(
                 acc.peak(zi::Tier::kGpu), res.gpu().stats().peak_used)) /
             kMiB;
  m.cpu_mb = static_cast<double>(acc.peak(zi::Tier::kCpu)) / kMiB;
  m.nvme_mb = static_cast<double>(acc.peak(zi::Tier::kNvme)) / kMiB;
  const auto p = res.pinned().stats();
  m.pinned_blocked = static_cast<double>(p.blocked_acquires);
  m.pinned_peak_in_use = static_cast<double>(p.peak_in_use);
  return m;
}

// --- Spans ----------------------------------------------------------------

// The benchmark's own trace: one span per public call it makes (and per
// request phase, rebuilt from RequestReport). Kept in memory, written once
// at the end. Disabled logs record nothing.
class SpanLog {
 public:
  SpanLog(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}

  bool on() const noexcept { return on_; }
  double offset(Clock::time_point t) const {
    return seconds_between(origin_, t);
  }

  /// Record [start, end]; returns the span's index for use as a parent.
  int add(std::string name, std::int64_t id, int parent,
          Clock::time_point start, Clock::time_point end) {
    return add_s(std::move(name), id, parent, seconds_between(origin_, start),
                 seconds_between(origin_, end));
  }
  int add_s(std::string name, std::int64_t id, int parent, double start_s,
            double end_s) {
    if (!on_) return -1;
    spans_.push_back({std::move(name), id, parent, start_s, end_s});
    return static_cast<int>(spans_.size()) - 1;
  }

  void write(const std::filesystem::path& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"index\":" << i << ",\"name\":\""
          << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"start_ms\":" << s.start_s * 1e3
          << ",\"end_ms\":" << s.end_s * 1e3 << "}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    std::int64_t id;
    int parent;
    double start_s, end_s;
  };
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- Measurement points ------------------------------------------------

// A quiescent measurement point: every rank passes a Communicator barrier,
// then rank 0 reads clocks and counters while the others wait on a plain
// atomic. No rank issues a collective until rank 0 is done, so counter
// deltas between two points are exact (the barrier's own count included).
class Gate {
 public:
  template <typename Fn>
  void point(zi::Communicator& comm, Fn&& on_rank0) {
    comm.barrier();
    const int gen = ++local_gen_[comm.rank()];
    if (comm.rank() == 0) {
      on_rank0();
      opened_.store(gen, std::memory_order_release);
      return;
    }
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    while (opened_.load(std::memory_order_acquire) < gen) {
      if (Clock::now() > deadline) {
        throw std::runtime_error("measurement point: rank 0 never arrived");
      }
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<int> opened_{0};
  int local_gen_[kWorld] = {};
};

// --- Per-setup record -----------------------------------------------------

struct SetupRecord {
  bool traced = false;
  double setup_s = 0;
  double timed_s = 0;
  ProcCost setup_proc, timed_proc;
  Counters counters{};  ///< timed phase
  MemPeaks mem;
  std::int64_t timed_ops = 0;
  // train_*
  std::vector<double> step_ms, sample_ms, fwd_ms, bwd_ms, opt_ms;
  std::vector<float> losses;  ///< every step of the setup, warmup included
  int skipped_steps = 0;      ///< timed steps only
  float loss_scale = 0;       ///< at the last step
  // serve_*
  std::vector<zi::ServeResult> results;  ///< timed requests, id order
  double trace_len = 0;  ///< parameters gathered per decode step
};

std::uint64_t loss_digest(const std::vector<float>& losses) {
  Digest d;
  d.add(std::span<const float>(losses));
  return d.value();
}

std::uint64_t token_digest(const std::vector<zi::ServeResult>& results) {
  Digest d;
  for (const auto& r : results) {
    d.add_value(r.id);
    d.add_value(static_cast<std::uint64_t>(r.tokens.size()));
    d.add(std::span<const std::int32_t>(r.tokens));
  }
  return d.value();
}

zi::EngineConfig engine_config(Workload w, const std::filesystem::path& dir) {
  const bool nvme =
      w == Workload::kTrainNvme || w == Workload::kServeNvmeBatch;
  zi::EngineConfig cfg =
      nvme ? zi::preset_zero_infinity_nvme() : zi::preset_zero3();
  cfg.nvme_dir = dir.string();
  if (is_train(w)) {
    cfg.loss_scale.init_scale = 1024.0f;
    cfg.adam.lr = 2e-3f;
  } else {
    cfg.inference_only = true;
    cfg.persistence_threshold_elems = 64;
  }
  return cfg;
}

/// RAII directory for one setup's NVMe swap files.
struct ScratchDir {
  explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::filesystem::path path;
};

// Rank 0's side of the post-construction measurement point.
void record_setup(SetupRecord& rec, SpanLog& spans, int index,
                  Clock::time_point t_start, const ProcCost& proc_start,
                  Clock::time_point t_built) {
  const auto now = Clock::now();
  rec.setup_s = seconds_between(t_start, now);
  rec.setup_proc = proc_now() - proc_start;
  const int setup_span = spans.add("setup", index, -1, t_start, now);
  spans.add("engine.construct", index, setup_span, t_start, t_built);
  spans.add("barrier.post_construct", index, setup_span, t_built, now);
}

// Rank 0's side of the measurement points around the timed operations:
// begin() reads the starting state, end() fills the record's timed-phase
// fields. A traced setup keeps the ZI_METRICS sink open in between.
class TimedPhase {
 public:
  TimedPhase(SetupRecord& rec, const std::filesystem::path& metrics_path,
             const zi::Communicator& comm, const zi::AioEngine& aio,
             zi::RankResources& res, const zi::StreamCoordinator* coord)
      : rec_(rec), metrics_path_(metrics_path), comm_(comm), aio_(aio),
        res_(res), coord_(coord) {}

  void begin() {
    if (rec_.traced) zi::MetricsSink::instance().open(metrics_path_.string());
    c0_ = read_counters(comm_, aio_, res_, coord_);
    p0_ = proc_now();
    t0_ = Clock::now();
  }

  void end() {
    const auto t1 = Clock::now();
    rec_.timed_s = seconds_between(t0_, t1);
    rec_.timed_proc = proc_now() - p0_;
    rec_.counters = minus(read_counters(comm_, aio_, res_, coord_), c0_);
    rec_.counters[kBarriers] -= kWorld;  // this measurement point's own
    rec_.mem = read_mem(res_);
    if (rec_.traced) zi::MetricsSink::instance().close();
  }

  Clock::time_point start() const noexcept { return t0_; }

 private:
  SetupRecord& rec_;
  const std::filesystem::path& metrics_path_;
  const zi::Communicator& comm_;
  const zi::AioEngine& aio_;
  zi::RankResources& res_;
  const zi::StreamCoordinator* coord_;
  Counters c0_{};
  ProcCost p0_;
  Clock::time_point t0_;
};

SetupRecord run_train_setup(const RunOptions& opt, const zi::TokenDataset& data,
                            int index, bool traced, SpanLog& spans,
                            const std::filesystem::path& metrics_path) {
  SetupRecord rec;
  rec.traced = traced;
  const auto t_start = Clock::now();
  const ProcCost proc_start = proc_now();
  ScratchDir dir(opt.work_dir / ("nvme-" + std::to_string(::getpid()) + "-" +
                                 std::to_string(index)));
  const zi::EngineConfig cfg = engine_config(opt.workload, dir.path);
  zi::AioConfig acfg;
  acfg.num_workers = kAioWorkers;
  zi::AioEngine aio(acfg);
  Gate gate;
  zi::WorldOptions wopt;
  wopt.timeout_ms = 120000.0;
  const int total_steps = kWarmupSteps + opt.timed_steps;
  zi::run_ranks(kWorld, wopt, [&](zi::Communicator& comm) {
    const bool lead = comm.rank() == 0;
    zi::Gpt model(train_model());
    zi::ZeroEngine engine(model, comm, aio, cfg);
    const auto t_built = Clock::now();
    gate.point(comm, [&] {
      record_setup(rec, spans, index, t_start, proc_start, t_built);
    });

    std::vector<std::int32_t> inputs, targets;
    auto step = [&](int s) {
      const auto a = Clock::now();
      data.sample_batch(s, comm.rank(), kTrainBatch, inputs, targets);
      const auto b = Clock::now();
      const zi::ZeroEngine::StepStats st = engine.train_step(inputs, targets);
      const auto c = Clock::now();
      if (!lead) return;
      rec.losses.push_back(st.global_loss);
      rec.loss_scale = st.loss_scale;
      if (s < kWarmupSteps) return;
      rec.sample_ms.push_back(seconds_between(a, b) * 1e3);
      rec.step_ms.push_back(seconds_between(b, c) * 1e3);
      rec.fwd_ms.push_back(st.fwd_seconds * 1e3);
      rec.bwd_ms.push_back(st.bwd_seconds * 1e3);
      rec.opt_ms.push_back(st.opt_seconds * 1e3);
      rec.skipped_steps += st.skipped ? 1 : 0;
      const std::int64_t uid = std::int64_t{index} * total_steps + s;
      const int parent = spans.add("train.step", uid, -1, a, c);
      spans.add("data.sample_batch", uid, parent, a, b);
      spans.add("core.train_step", uid, parent, b, c);
    };
    for (int s = 0; s < kWarmupSteps; ++s) step(s);

    TimedPhase timed(rec, metrics_path, comm, aio, engine.resources(),
                     engine.coordinator());
    gate.point(comm, [&] { timed.begin(); });
    for (int s = kWarmupSteps; s < total_steps; ++s) step(s);
    gate.point(comm, [&] { timed.end(); });
  });
  rec.timed_ops = opt.timed_steps;
  return rec;
}

SetupRecord run_serve_setup(const RunOptions& opt,
                            const std::vector<zi::ServeRequest>& warmup,
                            const std::vector<zi::ServeRequest>& timed,
                            int index, bool traced, SpanLog& spans,
                            const std::filesystem::path& metrics_path) {
  SetupRecord rec;
  rec.traced = traced;
  const auto t_start = Clock::now();
  const ProcCost proc_start = proc_now();
  ScratchDir dir(opt.work_dir / ("nvme-" + std::to_string(::getpid()) + "-" +
                                 std::to_string(index)));
  const zi::EngineConfig cfg = engine_config(opt.workload, dir.path);
  zi::ServeConfig scfg;
  scfg.max_batch = kMaxBatch;
  scfg.max_new_tokens = kMaxNew;
  scfg.kv_tier = opt.workload == Workload::kServeNvmeBatch ? zi::KvTier::kNvme
                                                           : zi::KvTier::kGpu;
  zi::AioConfig acfg;
  acfg.num_workers = kAioWorkers;
  zi::AioEngine aio(acfg);
  Gate gate;
  zi::WorldOptions wopt;
  wopt.timeout_ms = 120000.0;
  zi::run_ranks(kWorld, wopt, [&](zi::Communicator& comm) {
    zi::Gpt model(serve_model());
    zi::StreamEngine engine(model, comm, aio, cfg);
    zi::ServeEngine serve(engine, model, scfg);
    const auto t_built = Clock::now();
    gate.point(comm, [&] {
      record_setup(rec, spans, index, t_start, proc_start, t_built);
    });

    // Warmup: the first decode step records the prefetch trace.
    const auto w0 = Clock::now();
    serve.run(warmup);
    const auto w1 = Clock::now();
    if (comm.rank() == 0) spans.add("serve.run.warmup", index, -1, w0, w1);

    TimedPhase phase(rec, metrics_path, comm, aio, engine.resources(),
                     &engine.coordinator());
    gate.point(comm, [&] { phase.begin(); });
    std::vector<zi::ServeResult> results = serve.run(timed);
    gate.point(comm, [&] {
      phase.end();
      rec.trace_len = static_cast<double>(engine.coordinator().trace().size());
      // Per-request phases, rebuilt from RequestReport and counted from
      // each request's due arrival time.
      const int run_span =
          spans.add("serve.run", index, -1, phase.start(), Clock::now());
      const double base = spans.offset(phase.start());
      for (std::size_t i = 0; spans.on() && i < results.size(); ++i) {
        const zi::RequestReport& r = results[i].report;
        const double due = base + timed[i].arrival_seconds;
        const double admit = due + r.queue_seconds;
        const double first = admit + r.prefill_seconds;
        spans.add_s("serve.queue", r.request_id, run_span, due, admit);
        spans.add_s("serve.prefill", r.request_id, run_span, admit, first);
        spans.add_s("serve.decode", r.request_id, run_span, first,
                    first + r.decode_seconds);
      }
      rec.results = std::move(results);
    });
  });
  rec.timed_ops = static_cast<std::int64_t>(timed.size());
  return rec;
}

// FLOP count of a GPT forward over `tokens` rows attending `ctx` keys each
// (dense matmuls plus attention scores and mixing, LM head included).
double forward_flop(const zi::GptConfig& c, double tokens, double ctx) {
  const auto h = static_cast<double>(c.hidden);
  const auto l = static_cast<double>(c.layers);
  const auto v = static_cast<double>(c.vocab);
  return tokens * (l * (24.0 * h * h + 4.0 * h * ctx) + 2.0 * h * v);
}

// One training step on one rank: forward, the checkpoint recompute, and a
// backward of twice the forward.
double train_step_flop() {
  const zi::GptConfig c = train_model();
  const double fwd =
      forward_flop(c, static_cast<double>(kTrainBatch * c.seq),
                   static_cast<double>(c.seq));
  return fwd * (c.checkpoint_activations ? 4.0 : 3.0);
}

// Every rank runs every request: a prefill over the prompt, then one row per
// further token against the growing KV cache.
double request_flop(std::int64_t prompt_len, std::int64_t tokens_out) {
  const zi::GptConfig c = serve_model();
  const auto p = static_cast<double>(prompt_len);
  double f = forward_flop(c, p, p);
  for (std::int64_t k = 1; k < tokens_out; ++k) {
    f += forward_flop(c, 1.0, p + static_cast<double>(k));
  }
  return f;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kTrainGpu, Workload::kTrainNvme,
                     Workload::kServeNvmeBatch, Workload::kServeGpuPoisson}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kTrainGpu: return "train_gpu";
    case Workload::kTrainNvme: return "train_nvme";
    case Workload::kServeNvmeBatch: return "serve_nvme_batch";
    case Workload::kServeGpuPoisson: return "serve_gpu_poisson";
  }
  return "?";
}

bool is_train(Workload w) {
  return w == Workload::kTrainGpu || w == Workload::kTrainNvme;
}

zi::GptConfig train_model() {
  zi::GptConfig c;
  c.vocab = 64;
  c.seq = 8;
  c.hidden = 128;
  c.layers = 4;
  c.heads = 4;
  return c;
}

zi::GptConfig serve_model() {
  zi::GptConfig c;
  c.vocab = 256;
  c.seq = kPromptMax + kMaxNew;
  c.hidden = 64;
  c.layers = 4;
  c.heads = 4;
  c.checkpoint_activations = false;
  return c;
}

// Input streams of one seed, kept apart so no input shifts another.
enum Stream : std::uint64_t {
  kSuccessors = 1,
  kWalk = 2,
  kPromptLen = 3,
  kPromptTokens = 4,
  kArrivals = 5,
};

std::vector<std::int32_t> make_corpus(std::uint64_t seed) {
  constexpr std::size_t kLen = 1 << 15;
  constexpr int kFanout = 2;
  const auto vocab = static_cast<std::uint64_t>(train_model().vocab);
  zi::Rng succ(seed, kSuccessors);
  std::vector<std::int32_t> next(vocab * kFanout);
  for (auto& t : next) t = static_cast<std::int32_t>(succ.next_below(vocab));
  zi::Rng walk(seed, kWalk);
  std::vector<std::int32_t> out(kLen);
  std::int32_t cur = static_cast<std::int32_t>(walk.next_below(vocab));
  for (auto& t : out) {
    t = cur;
    const std::uint64_t pick = walk.next_below(kFanout);
    cur = next[static_cast<std::size_t>(cur) * kFanout + pick];
  }
  return out;
}

std::vector<std::int32_t> make_prompt(std::uint64_t seed, std::int64_t id) {
  const auto u = static_cast<std::uint64_t>(id);
  const zi::Rng len_rng(seed, kPromptLen);
  const std::uint64_t span = kPromptMax - kPromptMin + 1;
  const auto len = static_cast<std::size_t>(
      kPromptMin + static_cast<int>(len_rng.at(u) % span));
  const zi::Rng tok_rng(seed ^ (u * 0x9e3779b97f4a7c15ULL), kPromptTokens);
  const auto vocab = static_cast<std::uint64_t>(serve_model().vocab);
  std::vector<std::int32_t> prompt(len);
  for (std::size_t k = 0; k < len; ++k) {
    prompt[k] = static_cast<std::int32_t>(tok_rng.at(k) % vocab);
  }
  return prompt;
}

std::vector<double> make_arrivals(std::uint64_t seed, std::uint64_t pattern,
                                  int n, double rate) {
  zi::Rng rng(seed, kArrivals | (pattern << 8));
  const double horizon = static_cast<double>(n) / rate;
  std::vector<double> t(static_cast<std::size_t>(n));
  for (double& x : t) x = rng.next_uniform() * horizon;
  std::sort(t.begin(), t.end());
  return t;
}

std::vector<zi::ServeRequest> make_requests(Workload w, std::uint64_t seed,
                                            int n, std::uint64_t pattern) {
  std::vector<double> arrivals(static_cast<std::size_t>(n), 0.0);
  if (w == Workload::kServeGpuPoisson) {
    arrivals = make_arrivals(seed, pattern, n, kPoissonRate);
  }
  std::vector<zi::ServeRequest> reqs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& r = reqs[static_cast<std::size_t>(i)];
    r.id = i;
    r.prompt = make_prompt(seed, i);
    r.arrival_seconds = arrivals[static_cast<std::size_t>(i)];
  }
  return reqs;
}

namespace {

// --- Output checks --------------------------------------------------------

// Returns failed-operation count; appends a message per failure kind.
std::int64_t check_train(const SetupRecord& rec, int index,
                         std::vector<std::string>& errors) {
  for (std::size_t s = 0; s < rec.losses.size(); ++s) {
    if (!std::isfinite(rec.losses[s])) {
      errors.push_back("setup " + std::to_string(index) + ": loss at step " +
                       std::to_string(s) + " is not finite");
      return static_cast<std::int64_t>(rec.losses.size());
    }
  }
  if (rec.losses.empty() || !(rec.losses.back() < rec.losses.front())) {
    errors.push_back("setup " + std::to_string(index) +
                     ": final loss is not below the step-0 loss");
    return static_cast<std::int64_t>(rec.losses.size());
  }
  return 0;
}

std::int64_t check_serve(const SetupRecord& rec, std::size_t expected,
                         int index, std::vector<std::string>& errors) {
  const auto vocab = serve_model().vocab;
  std::int64_t bad = 0;
  for (const auto& r : rec.results) {
    bool ok = static_cast<std::int64_t>(r.tokens.size()) == kMaxNew;
    for (std::int32_t t : r.tokens) ok = ok && t >= 0 && t < vocab;
    bad += ok ? 0 : 1;
  }
  bad += static_cast<std::int64_t>(expected) -
         static_cast<std::int64_t>(std::min(expected, rec.results.size()));
  if (bad > 0) {
    errors.push_back("setup " + std::to_string(index) + ": " +
                     std::to_string(bad) +
                     " requests without exactly max_new_tokens ids in "
                     "[0, vocab)");
  }
  return bad;
}

// --- Metrics --------------------------------------------------------------

template <typename Fn>
std::vector<double> pool(const std::vector<const SetupRecord*>& recs, Fn&& f) {
  std::vector<double> all;
  for (const SetupRecord* r : recs) {
    const std::vector<double>& v = f(*r);
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

struct RequestTimes {
  std::vector<double> ttft_ms, itl_ms, queue_ms, prefill_ms;
  double slo_met = 0;
};

RequestTimes request_times(const std::vector<const SetupRecord*>& recs) {
  RequestTimes t;
  for (const SetupRecord* r : recs) {
    for (const auto& res : r->results) {
      const zi::RequestReport& rep = res.report;
      const double ttft = (rep.queue_seconds + rep.prefill_seconds) * 1e3;
      const double decode_ms = rep.decode_seconds * 1e3;
      const double itl =
          rep.tokens_out > 1
              ? decode_ms / static_cast<double>(rep.tokens_out - 1)
              : 0.0;
      t.ttft_ms.push_back(ttft);
      t.itl_ms.push_back(itl);
      t.queue_ms.push_back(rep.queue_seconds * 1e3);
      t.prefill_ms.push_back(rep.prefill_seconds * 1e3);
      const bool ok = rep.tokens_out == kMaxNew;
      if (ok && ttft <= kTtftLimitMs && itl <= kItlLimitMs) t.slo_met += 1;
    }
  }
  return t;
}

/// The model-step time samples: train_step wall time, or per-request
/// inter-token latency when serving.
std::vector<double> step_samples(Workload w,
                                 const std::vector<const SetupRecord*>& recs) {
  if (is_train(w)) {
    return pool(recs, [](const SetupRecord& r) -> const std::vector<double>& {
      return r.step_ms;
    });
  }
  return request_times(recs).itl_ms;
}

class Aggregator {
 public:
  Aggregator(const RunOptions& opt, std::vector<std::string>& refusals)
      : opt_(opt), refusals_(refusals) {}

  /// A percentile the run must report; a refusal is recorded (and fails
  /// the run: the workload is too short for the figure).
  double pct(const std::vector<double>& v, int p, const char* what) {
    const std::optional<double> x = percentile(v, p);
    if (!x) {
      refusals_.push_back(std::string("too few samples (") +
                        std::to_string(v.size()) + ") for the p" +
                        std::to_string(p) + " of " + what);
      return 0.0;
    }
    return *x;
  }

  std::vector<double> step_samples(
      const std::vector<const SetupRecord*>& recs) {
    return perfbench::step_samples(opt_.workload, recs);
  }

  /// Median over setups of each setup's own step-time percentile: one slow
  /// stretch of a run moves one setup's figure, not the run's.
  double setup_pct(const std::vector<const SetupRecord*>& recs, int p) {
    std::vector<double> per_setup;
    for (const SetupRecord* r : recs) {
      per_setup.push_back(pct(step_samples({r}), p, "one setup's step time"));
    }
    return median(per_setup);
  }

  double tokens_per_s(const std::vector<const SetupRecord*>& recs) {
    std::vector<double> per_setup;
    for (const SetupRecord* r : recs) {
      double tokens = 0;
      if (is_train(opt_.workload)) {
        tokens = static_cast<double>(kWorld * kTrainBatch * train_model().seq *
                                     r->timed_ops);
      } else {
        for (const auto& res : r->results) {
          tokens += static_cast<double>(res.tokens.size());
        }
      }
      per_setup.push_back(tokens / r->timed_s);
    }
    return median(per_setup);
  }

 private:
  const RunOptions& opt_;
  std::vector<std::string>& refusals_;
};

void end_to_end_metrics(const std::vector<SetupRecord>& recs,
                        Aggregator& agg, std::vector<Metric>& m) {
  auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  std::vector<const SetupRecord*> all;
  std::vector<double> setup_s;
  for (const SetupRecord& r : recs) {
    all.push_back(&r);
    setup_s.push_back(r.setup_s);
  }
  add("setup_s", median(setup_s), "s");
  add("rss_peak_mb", rss_peak_mib(), "MiB");
  add("tokens_per_s", agg.tokens_per_s(all), "tok/s");
  add("step_p50_ms", agg.setup_pct(all, 50), "ms");
  add("step_p90_ms", agg.setup_pct(all, 90), "ms");
}

void per_layer_metrics(const RunOptions& opt,
                       const std::vector<SetupRecord>& recs, Aggregator& agg,
                       std::int64_t attempted, std::int64_t failed,
                       std::vector<Metric>& m) {
  auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  const bool train = is_train(opt.workload);
  std::vector<const SetupRecord*> traced, plain;
  for (const SetupRecord& r : recs) (r.traced ? traced : plain).push_back(&r);
  const double n_traced = static_cast<double>(traced.size());

  Counters c{};  // summed over traced setups' timed phases
  double timed_ops = 0, timed_s = 0, tokens_out = 0, flop = 0;
  for (const SetupRecord* r : traced) {
    for (int i = 0; i < kNumCounters; ++i) c[i] += r->counters[i];
    timed_ops += static_cast<double>(r->timed_ops);
    timed_s += r->timed_s;
    for (const auto& res : r->results) {
      tokens_out += static_cast<double>(res.tokens.size());
      flop += request_flop(res.report.tokens_in, res.report.tokens_out);
    }
  }
  // Steps: train_step calls, or serve decode steps (each gathers every
  // streamed parameter exactly once, so fetches / trace length counts them).
  double steps = timed_ops;
  if (!train) {
    const double trace_len = traced.empty() ? 0 : traced.front()->trace_len;
    steps = trace_len > 0 ? c[kFetches] / trace_len : 0;
  }
  auto per_step = [&](double v) { return steps > 0 ? v / steps : 0.0; };
  auto per_setup = [&](double v) { return n_traced > 0 ? v / n_traced : 0.0; };
  auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto traced_median = [&](std::vector<double> SetupRecord::*field) {
    return median(pool(traced, [field](const SetupRecord& r)
                                   -> const std::vector<double>& {
      return r.*field;
    }));
  };

  // data
  add("data.sample_ms", traced_median(&SetupRecord::sample_ms), "ms");
  // core
  const double fwd = traced_median(&SetupRecord::fwd_ms);
  const double bwd = traced_median(&SetupRecord::bwd_ms);
  add("core.fwd_ms", fwd, "ms");
  add("core.bwd_ms", bwd, "ms");
  add("core.opt_ms", traced_median(&SetupRecord::opt_ms), "ms");
  add("core.fetch_ms", per_step(c[kFetchSeconds] * 1e3), "ms");
  add("core.reduce_ms", per_step(c[kReduceSeconds] * 1e3), "ms");
  add("core.fetches_per_step", per_step(c[kFetches]), "count");
  add("core.prefetch_hit_frac", frac(c[kPrefetchHits], c[kPrefetchesIssued]),
        "frac");
  add("core.prefetch_drops", per_setup(c[kPrefetchDrops]), "count");
  // comm
  add("comm.allgather_mb_per_step", per_step(c[kAllgatherBytes] / kMiB), "MiB");
  add("comm.reduce_scatter_mb_per_step",
        per_step(c[kReduceScatterBytes] / kMiB), "MiB");
  add("comm.broadcast_mb_per_step", per_step(c[kBroadcastBytes] / kMiB), "MiB");
  add("comm.allreduce_mb_per_step", per_step(c[kAllreduceBytes] / kMiB), "MiB");
  add("comm.collectives_per_step", per_step(c[kCollectives]), "count");
  add("comm.barriers_per_step", per_step(c[kBarriers]), "count");
  // tensor
  const double gflop_step =
      train ? train_step_flop() * 1e-9 : per_step(flop * 1e-9);
  const double compute_s =
      train ? (fwd + bwd) * 1e-3 : (steps > 0 ? timed_s / steps : 0.0);
  add("tensor.gflop_per_step", gflop_step, "GFLOP");
  add("tensor.gflops", frac(gflop_step, compute_s), "GFLOP/s");
  // optim
  double skipped = 0, loss_scale = 0;
  for (const SetupRecord* r : traced) {
    skipped += r->skipped_steps;
    loss_scale = r->loss_scale;
  }
  add("optim.skipped_steps", per_setup(skipped), "count");
  add("optim.loss_scale", loss_scale, "scale");
  // move
  static const char* kRouteKeys[zi::kNumRoutes] = {
      "gpu_fetch", "gpu_spill", "cpu_fetch", "cpu_spill",
      "nvme_fetch", "nvme_spill", "kv_fetch", "kv_spill"};
  for (int r = 0; r < zi::kNumRoutes; ++r) {
    const std::string base = std::string("move.") + kRouteKeys[r];
    add(base + ".mb", per_setup(c[kRouteBytes + r] / kMiB), "MiB");
    add(base + ".ms", per_setup(c[kRouteSeconds + r] * 1e3), "ms");
    add(base + ".transfers", per_setup(c[kRouteTransfers + r]), "count");
  }
  add("move.staged_pinned_frac",
        frac(c[kStagedPinned], c[kStagedPinned] + c[kStagedHeap]), "frac");
  add("move.coalesce_frac", frac(c[kSchedCoalesced], c[kSchedScheduled]),
        "frac");
  add("move.preemptions", per_setup(c[kSchedPreemptions]), "count");
  add("move.sched_latency_wait_ms", per_setup(c[kSchedLatencyWaitS] * 1e3),
        "ms");
  add("move.sched_bulk_wait_ms", per_setup(c[kSchedBulkWaitS] * 1e3), "ms");
  // aio
  add("aio.read_mb", per_setup(c[kAioRead] / kMiB), "MiB");
  add("aio.write_mb", per_setup(c[kAioWrite] / kMiB), "MiB");
  add("aio.requests", per_setup(c[kAioRequests]), "count");
  add("aio.sub_requests", per_setup(c[kAioSubRequests]), "count");
  add("aio.retries", per_setup(c[kAioRetries]), "count");
  add("aio.retries_exhausted", per_setup(c[kAioRetriesExhausted]), "count");
  // mem
  MemPeaks peak;
  for (const SetupRecord& r : recs) {
    peak.gpu_mb = std::max(peak.gpu_mb, r.mem.gpu_mb);
    peak.cpu_mb = std::max(peak.cpu_mb, r.mem.cpu_mb);
    peak.nvme_mb = std::max(peak.nvme_mb, r.mem.nvme_mb);
    peak.pinned_blocked = std::max(peak.pinned_blocked, r.mem.pinned_blocked);
    peak.pinned_peak_in_use =
        std::max(peak.pinned_peak_in_use, r.mem.pinned_peak_in_use);
  }
  add("mem.gpu_peak_mb", peak.gpu_mb, "MiB");
  add("mem.cpu_peak_mb", peak.cpu_mb, "MiB");
  add("mem.nvme_peak_mb", peak.nvme_mb, "MiB");
  add("mem.pinned_blocked_acquires", peak.pinned_blocked, "count");
  add("mem.pinned_peak_in_use", peak.pinned_peak_in_use, "count");
  // serve (untraced setups: these are user-visible timings)
  const RequestTimes rt = request_times(plain);
  add("serve.queue_p50_ms", train ? 0.0 : agg.pct(rt.queue_ms, 50, "queue"),
        "ms");
  add("serve.prefill_p50_ms",
        train ? 0.0 : agg.pct(rt.prefill_ms, 50, "prefill"), "ms");
  add("serve.param_fetch_kb_per_token",
        frac(c[kRouteBytes + static_cast<int>(zi::Route::kNvmeFetch)] / 1024.0,
             tokens_out),
        "KiB");
  // proc: setup phase per setup (median), timed phase per operation
  // (untraced setups).
  auto proc_setup = [&](double ProcCost::*f) {
    std::vector<double> v;
    for (const SetupRecord& r : recs) v.push_back(r.setup_proc.*f);
    return median(v);
  };
  double plain_ops = 0;
  ProcCost timed;
  for (const SetupRecord* r : plain) {
    plain_ops += static_cast<double>(r->timed_ops);
    timed += r->timed_proc;
  }
  const std::pair<const char*, double ProcCost::*> kProc[] = {
      {"minor_faults", &ProcCost::minor_faults},
      {"major_faults", &ProcCost::major_faults},
      {"vol_ctx_switches", &ProcCost::vol_ctx_switches},
      {"invol_ctx_switches", &ProcCost::invol_ctx_switches},
      {"user_s", &ProcCost::user_s},
      {"sys_s", &ProcCost::sys_s}};
  for (const auto& [name, field] : kProc) {
    const bool secs = std::string(name).ends_with("_s");
    add(std::string("proc.setup.") + name, proc_setup(field),
          secs ? "s" : "count");
  }
  for (const auto& [name, field] : kProc) {
    const bool secs = std::string(name).ends_with("_s");
    add(std::string("proc.timed.") + name, frac(timed.*field, plain_ops),
          secs ? "s/op" : "count/op");
  }
  // obs
  const double traced_p50 = median(agg.step_samples(traced));
  const double plain_p50 = median(agg.step_samples(plain));
  add("obs.trace_overhead_frac",
        plain_p50 > 0 ? traced_p50 / plain_p50 - 1.0 : 0.0, "frac");
  // The workload-specific user-facing figures (untraced setups); 0 where a
  // figure does not apply to the workload.
  const bool poisson = opt.workload == Workload::kServeGpuPoisson;
  double loss_final = 0;
  if (train && !plain.empty() && !plain.front()->losses.empty()) {
    loss_final = plain.front()->losses.back();
  }
  add("train_loss_final", loss_final, "nats");
  add("ttft_p50_ms", train ? 0.0 : agg.pct(rt.ttft_ms, 50, "TTFT"), "ms");
  add("ttft_p95_ms", train ? 0.0 : agg.pct(rt.ttft_ms, 95, "TTFT"), "ms");
  add("itl_p50_ms", train ? 0.0 : agg.pct(rt.itl_ms, 50, "ITL"), "ms");
  add("itl_p95_ms", train ? 0.0 : agg.pct(rt.itl_ms, 95, "ITL"), "ms");
  const double requests = static_cast<double>(rt.ttft_ms.size());
  add("slo_met_frac", poisson ? frac(rt.slo_met, requests) : 0.0, "frac");
  add("fail_frac", frac(static_cast<double>(failed),
                          static_cast<double>(attempted)),
        "frac");
}

}  // namespace

RunResult run_workload(const RunOptions& opt) {
  RunResult out;
  const auto t_begin = Clock::now();
  std::filesystem::create_directories(opt.work_dir);
  const std::string tag = std::string(workload_name(opt.workload)) + "-seed" +
                          std::to_string(opt.seed);
  const std::filesystem::path metrics_path =
      opt.work_dir / ("metrics-" + tag + ".jsonl");
  SpanLog spans(opt.trace, t_begin);
  SpanLog no_spans(false, t_begin);

  // Inputs, generated once per run from the seed.
  const bool train = is_train(opt.workload);
  std::optional<zi::TokenDataset> data;
  std::vector<zi::ServeRequest> warmup, timed;
  const int n = opt.requests > 0 ? opt.requests
                : opt.workload == Workload::kServeNvmeBatch ? kClosedRequests
                                                            : kPoissonRequests;
  if (train) {
    data.emplace(make_corpus(opt.seed), train_model().seq, opt.seed);
  } else {
    // Warmup requests use ids past the timed ones, so no prompt repeats.
    for (int i = 0; i < kMaxBatch; ++i) {
      zi::ServeRequest r;
      r.id = n + i;
      r.prompt = make_prompt(opt.seed, r.id);
      warmup.push_back(std::move(r));
    }
  }

  // In the traced run, setups alternate untraced / traced so the trace
  // overhead is measured inside one process.
  const int min_setups = opt.trace ? std::max(opt.min_setups, 4)
                                   : opt.min_setups;
  std::vector<SetupRecord> recs;
  while (static_cast<int>(recs.size()) < min_setups ||
         seconds_between(t_begin, Clock::now()) < opt.seconds) {
    const int index = static_cast<int>(recs.size());
    const bool traced = opt.trace && index % 2 == 1;
    if (!train) {
      timed = make_requests(opt.workload, opt.seed, n,
                            static_cast<std::uint64_t>(index));
    }
    SpanLog& log = traced ? spans : no_spans;
    const std::int64_t ops =
        train ? kWarmupSteps + opt.timed_steps
              : static_cast<std::int64_t>(warmup.size() + timed.size());
    out.attempted += ops;
    SetupRecord rec;
    try {
      rec = train ? run_train_setup(opt, *data, index, traced, log,
                                    metrics_path)
                  : run_serve_setup(opt, warmup, timed, index, traced, log,
                                    metrics_path);
    } catch (const std::exception& e) {
      out.failed += ops;
      out.errors.push_back("setup " + std::to_string(index) + ": " + e.what());
      break;
    }
    const std::uint64_t digest =
        train ? loss_digest(rec.losses) : token_digest(rec.results);
    const std::int64_t bad =
        train ? check_train(rec, index, out.errors)
              : check_serve(rec, timed.size(), index, out.errors);
    out.failed += bad;
    if (index == 0) {
      out.digest = digest;
    } else if (digest != out.digest) {
      out.failed += ops;
      out.errors.push_back("setup " + std::to_string(index) +
                           ": outputs differ from setup 0 on the same inputs");
    }
    // One diagnostic line per setup (stderr), for eyeballing drift.
    std::fprintf(stderr,
                 "zibench: setup %d%s: setup %.3f s, timed %.3f s, step "
                 "median %.3f ms\n",
                 index, traced ? " (traced)" : "", rec.setup_s, rec.timed_s,
                 median(step_samples(opt.workload, {&rec})));
    recs.push_back(std::move(rec));
    if (!out.errors.empty()) break;
  }
  out.setups = static_cast<int>(recs.size());

  Aggregator agg(opt, out.refusals);
  if (!recs.empty()) {
    if (opt.trace) {
      per_layer_metrics(opt, recs, agg, out.attempted, out.failed,
                        out.metrics);
      out.trace_file = opt.work_dir / ("trace-" + tag + ".json");
      spans.write(out.trace_file);
    } else {
      end_to_end_metrics(recs, agg, out.metrics);
    }
  }
  out.correct = out.errors.empty() && out.failed == 0;
  return out;
}

}  // namespace perfbench
