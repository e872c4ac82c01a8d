#include "core/state_store.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/half.hpp"

namespace zi {

namespace {

std::span<const std::byte> as_bytes_span(std::span<const half> s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size_bytes()};
}
std::span<std::byte> as_bytes_span(std::span<half> s) {
  return {reinterpret_cast<std::byte*>(s.data()), s.size_bytes()};
}

}  // namespace

ModelStateStore::ModelStateStore(RankResources& res,
                                 const EngineConfig& config,
                                 const std::vector<Parameter*>& params,
                                 int rank, int world)
    : res_(res), config_(config), params_(params), rank_(rank), world_(world) {
  entries_.resize(params_.size());
  std::vector<half> h16_scratch;
  std::vector<float> f32_scratch;

  for (Parameter* p : params_) {
    ZI_CHECK_MSG(p->id() >= 0 &&
                     static_cast<std::size_t>(p->id()) < entries_.size(),
                 "parameter ids not finalized for " << p->name());
    Entry& e = entries_[static_cast<std::size_t>(p->id())];
    // rank_weights (validated by the engine: stage 3 + bandwidth-centric
    // only) skews both shard layouts; empty weights reproduce the uniform
    // layout exactly.
    e.param_spec = make_shard_spec(p->numel(), world_, config_.rank_weights);
    e.opt_spec =
        config_.optimizer_partitioned()
            ? make_shard_spec(p->numel(), world_, config_.rank_weights)
            : make_shard_spec(p->numel(), 1);
    const auto shard_n = static_cast<std::size_t>(e.opt_spec.shard_elems);

    // Forward-only streaming (inference_only): no optimizer will ever run,
    // so the fp32 master/momentum/variance shards and the fp16 gradient
    // shard are never allocated — the store holds just the fp16 parameter
    // shards below. The fp16 init is identical either way, so serving
    // weights match the training initialization bit-for-bit.
    if (!config_.inference_only) {
      // Partitioned init: the fp16 values this rank would see after
      // rounding. Master weights are initialized FROM the fp16-rounded
      // values so every stage/placement combination starts from
      // bit-identical state.
      const int opt_rank = config_.optimizer_partitioned() ? rank_ : 0;
      h16_scratch.resize(shard_n);
      init_shard_fp16(*p, e.opt_spec, opt_rank, h16_scratch);
      f32_scratch.resize(shard_n);
      cast_f16_to_f32(h16_scratch, f32_scratch);

      const Tier opt_tier = config_.optimizer_placement;
      const std::uint64_t f32_bytes = shard_n * sizeof(float);
      e.master = std::make_unique<TierBuffer>(res_, opt_tier, f32_bytes);
      e.master->store({reinterpret_cast<const std::byte*>(f32_scratch.data()),
                       f32_bytes});
      std::memset(f32_scratch.data(), 0, f32_bytes);
      e.momentum = std::make_unique<TierBuffer>(res_, opt_tier, f32_bytes);
      e.momentum->store(
          {reinterpret_cast<const std::byte*>(f32_scratch.data()), f32_bytes});
      e.variance = std::make_unique<TierBuffer>(res_, opt_tier, f32_bytes);
      e.variance->store(
          {reinterpret_cast<const std::byte*>(f32_scratch.data()), f32_bytes});

      e.grad_fp16 = std::make_unique<TierBuffer>(res_, config_.grad_placement,
                                                 shard_n * sizeof(half));
    }

    if (config_.params_partitioned()) {
      if (config_.bandwidth_centric) {
        // Bandwidth-centric: this rank persists its 1/dp slice.
        const auto pshard_n =
            static_cast<std::size_t>(e.param_spec.shard_elems);
        h16_scratch.resize(pshard_n);
        init_shard_fp16(*p, e.param_spec, rank_, h16_scratch);
        e.param_fp16 = std::make_unique<TierBuffer>(
            res_, config_.param_placement, pshard_n * sizeof(half));
        e.param_fp16->store(as_bytes_span(std::span<const half>(h16_scratch)));
      } else if (param_owner(p) == rank_) {
        // Broadcast baseline: the owner persists the whole parameter.
        const auto n = static_cast<std::size_t>(p->numel());
        h16_scratch.resize(n);
        const ShardSpec whole = make_shard_spec(p->numel(), 1);
        init_shard_fp16(*p, whole, 0, h16_scratch);
        e.param_fp16 = std::make_unique<TierBuffer>(
            res_, config_.param_placement, n * sizeof(half));
        e.param_fp16->store(as_bytes_span(std::span<const half>(h16_scratch)));
      }
    }
  }
}

const ModelStateStore::Entry& ModelStateStore::entry(const Parameter* p) const {
  ZI_CHECK(p != nullptr && p->id() >= 0 &&
           static_cast<std::size_t>(p->id()) < entries_.size());
  return entries_[static_cast<std::size_t>(p->id())];
}

ModelStateStore::Entry& ModelStateStore::entry(const Parameter* p) {
  return const_cast<Entry&>(
      static_cast<const ModelStateStore*>(this)->entry(p));
}

const ShardSpec& ModelStateStore::param_spec(const Parameter* p) const {
  return entry(p).param_spec;
}

int ModelStateStore::param_owner(const Parameter* p) const {
  return p->id() % world_;
}

const TierBuffer& ModelStateStore::param_full_buffer(const Parameter* p,
                                                     std::size_t elems) const {
  const Entry& e = entry(p);
  ZI_CHECK_MSG(e.param_fp16 != nullptr && broadcast_mode(),
               "no whole-parameter copy of " << p->name() << " on rank "
                                             << rank_);
  ZI_CHECK(static_cast<std::int64_t>(elems) == p->numel());
  return *e.param_fp16;
}

void ModelStateStore::load_param_full(const Parameter* p,
                                      std::span<half> dst) const {
  // Eager path: straight through the DataMover's synchronous helper — no
  // async handle is built just to be waited on.
  param_full_buffer(p, dst.size()).load(as_bytes_span(dst));
}

TransferHandle ModelStateStore::load_param_full_async(
    const Parameter* p, std::span<half> dst, TransferClass cls) const {
  return param_full_buffer(p, dst.size())
      .load_async(as_bytes_span(dst), 0, cls);
}

void ModelStateStore::store_param_full(const Parameter* p,
                                       std::span<const half> src) {
  Entry& e = entry(p);
  ZI_CHECK_MSG(e.param_fp16 != nullptr && broadcast_mode(),
               "no whole-parameter copy of " << p->name() << " on rank "
                                             << rank_);
  e.param_fp16->store(as_bytes_span(src));
}

const ShardSpec& ModelStateStore::opt_spec(const Parameter* p) const {
  return entry(p).opt_spec;
}

const TierBuffer& ModelStateStore::param_shard_buffer(
    const Parameter* p) const {
  const Entry& e = entry(p);
  ZI_CHECK_MSG(e.param_fp16 != nullptr,
               "no parameter shard for " << p->name()
                                         << " (params not partitioned)");
  return *e.param_fp16;
}

TransferHandle ModelStateStore::load_param_shard_async(
    const Parameter* p, std::span<half> dst, TransferClass cls) const {
  return param_shard_buffer(p).load_async(as_bytes_span(dst), 0, cls);
}

void ModelStateStore::load_param_shard(const Parameter* p,
                                       std::span<half> dst) const {
  param_shard_buffer(p).load(as_bytes_span(dst));
}

TransferHandle ModelStateStore::store_param_shard_async(
    const Parameter* p, std::span<const half> src, std::int64_t elem_offset) {
  Entry& e = entry(p);
  ZI_CHECK(e.param_fp16 != nullptr);
  return e.param_fp16->store_async(
      as_bytes_span(src),
      static_cast<std::uint64_t>(elem_offset) * sizeof(half));
}

const TierBuffer& ModelStateStore::grad_buffer(const Parameter* p) const {
  const Entry& e = entry(p);
  ZI_CHECK_MSG(e.grad_fp16 != nullptr,
               "no gradient shard for " << p->name()
                                        << " (inference_only store)");
  return *e.grad_fp16;
}

void ModelStateStore::store_grad_shard(const Parameter* p,
                                       std::span<const half> src) {
  const_cast<TierBuffer&>(grad_buffer(p)).store(as_bytes_span(src));
}

void ModelStateStore::accumulate_grad_shard(const Parameter* p,
                                            std::span<const half> src) {
  TierBuffer& grad = const_cast<TierBuffer&>(grad_buffer(p));
  std::vector<half> current(src.size());
  grad.load(as_bytes_span(std::span<half>(current)));
  // fp32 sums in stack tiles, not fp32 copies of the whole shard.
  constexpr std::size_t kTile = 512;
  float sum[kTile];
  float add[kTile];
  for (std::size_t lo = 0; lo < src.size(); lo += kTile) {
    const std::size_t len = std::min(kTile, src.size() - lo);
    const std::span<half> cur = std::span<half>(current).subspan(lo, len);
    cast_f16_to_f32(cur, {sum, len});
    cast_f16_to_f32(src.subspan(lo, len), {add, len});
    for (std::size_t i = 0; i < len; ++i) sum[i] += add[i];
    cast_f32_to_f16({sum, len}, cur);
  }
  grad.store(as_bytes_span(std::span<const half>(current)));
}

void ModelStateStore::load_grad_shard(const Parameter* p,
                                      std::span<half> dst) const {
  grad_buffer(p).load(as_bytes_span(dst));
}

void ModelStateStore::load_grad_shard_chunk(const Parameter* p,
                                            std::span<half> dst,
                                            std::int64_t elem_offset) const {
  grad_buffer(p).load(
      as_bytes_span(dst),
      static_cast<std::uint64_t>(elem_offset) * sizeof(half));
}

namespace {
TierBuffer& checked_opt_state(const char* what, TierBuffer* buf,
                              const Parameter* p) {
  ZI_CHECK_MSG(buf != nullptr, "no " << what << " state for " << p->name()
                                     << " (inference_only store)");
  return *buf;
}
}  // namespace

TierBuffer& ModelStateStore::master(const Parameter* p) {
  return checked_opt_state("master", entry(p).master.get(), p);
}
TierBuffer& ModelStateStore::momentum(const Parameter* p) {
  return checked_opt_state("momentum", entry(p).momentum.get(), p);
}
TierBuffer& ModelStateStore::variance(const Parameter* p) {
  return checked_opt_state("variance", entry(p).variance.get(), p);
}

}  // namespace zi
