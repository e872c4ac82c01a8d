#include "serve/kv_cache.hpp"

#include <cstring>

#include "common/error.hpp"

namespace zi {

const char* kv_tier_name(KvTier t) {
  switch (t) {
    case KvTier::kGpu: return "gpu";
    case KvTier::kCpu: return "cpu";
    case KvTier::kNvme: return "nvme";
  }
  return "?";
}

TieredKvCache::TieredKvCache(RankResources& res, KvTier tier,
                             std::int64_t layers, std::int64_t cap_rows,
                             std::int64_t dim, int slots)
    : res_(res),
      tier_(tier),
      layers_(layers),
      cap_rows_(cap_rows),
      dim_(dim),
      layer_bytes_(static_cast<std::uint64_t>(cap_rows) * dim * sizeof(float)),
      slot_bytes_(static_cast<std::uint64_t>(layers) * 2 * layer_bytes_),
      scratch_(res.mover().stage(2 * layer_bytes_)) {
  ZI_CHECK(layers > 0 && cap_rows > 0 && dim > 0 && slots > 0);
  switch (tier_) {
    case KvTier::kGpu:
      for (int s = 0; s < slots; ++s) {
        gpu_slots_.push_back(res_.gpu().allocate(slot_bytes_));
      }
      break;
    case KvTier::kCpu:
      cpu_slots_.assign(static_cast<std::size_t>(slots),
                        std::vector<float>(slot_bytes_ / sizeof(float), 0.0f));
      break;
    case KvTier::kNvme:
      for (int s = 0; s < slots; ++s) {
        nvme_slots_.push_back(res_.nvme().allocate(slot_bytes_));
      }
      break;
  }
}

TieredKvCache::~TieredKvCache() {
  // The spill sources live in scratch_; handles must not outlive it. Waits
  // may rethrow I/O errors — swallow them, destruction is best-effort.
  for (TransferHandle& h : pending_spills_) {
    try {
      h.wait();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
  pending_spills_.clear();
}

float* TieredKvCache::scratch_floats() noexcept {
  return reinterpret_cast<float*>(scratch_.bytes().data());
}

std::uint64_t TieredKvCache::layer_offset(std::int64_t layer,
                                          bool v_half) const noexcept {
  return (static_cast<std::uint64_t>(layer) * 2 + (v_half ? 1 : 0)) *
         layer_bytes_;
}

KvLayerView TieredKvCache::acquire(int slot, std::int64_t layer,
                                   std::int64_t used_rows) {
  ZI_CHECK(layer >= 0 && layer < layers_);
  ZI_CHECK(used_rows >= 0 && used_rows <= cap_rows_);
  if (tier_ == KvTier::kGpu) {
    auto* base = reinterpret_cast<float*>(
        gpu_slots_.at(static_cast<std::size_t>(slot)).data() +
        layer_offset(layer, false));
    return KvLayerView{base, base + cap_rows_ * dim_};
  }
  // The working buffer may still back in-flight spills from the previous
  // (slot, layer): quiesce before overwriting it.
  wait_spills();
  KvLayerView view{scratch_floats(), scratch_floats() + cap_rows_ * dim_};
  const std::size_t used_bytes =
      static_cast<std::size_t>(used_rows) * dim_ * sizeof(float);
  if (used_bytes == 0) return view;
  if (tier_ == KvTier::kCpu) {
    const auto& slab = cpu_slots_.at(static_cast<std::size_t>(slot));
    const auto* base = reinterpret_cast<const std::byte*>(slab.data());
    res_.mover().fetch_copy(
        Route::kKvFetch,
        std::span<std::byte>(reinterpret_cast<std::byte*>(view.k), used_bytes),
        base + layer_offset(layer, false));
    res_.mover().fetch_copy(
        Route::kKvFetch,
        std::span<std::byte>(reinterpret_cast<std::byte*>(view.v), used_bytes),
        base + layer_offset(layer, true));
  } else {
    const Extent& ext = nvme_slots_.at(static_cast<std::size_t>(slot));
    TransferHandle hk = res_.mover().fetch_kv(
        ext,
        std::span<std::byte>(reinterpret_cast<std::byte*>(view.k), used_bytes),
        layer_offset(layer, false));
    TransferHandle hv = res_.mover().fetch_kv(
        ext,
        std::span<std::byte>(reinterpret_cast<std::byte*>(view.v), used_bytes),
        layer_offset(layer, true));
    // Decode blocks on the cache — wait inline. Quiesce BOTH reads before
    // letting an error propagate: a dropped handle does not wait, and the
    // scratch buffer must not back an in-flight read while acquire()
    // unwinds (the lease itself survives — it is a member).
    try {
      hk.wait();
    } catch (...) {
      try {
        hv.wait();
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
      throw;
    }
    hv.wait();
  }
  return view;
}

void TieredKvCache::release(int slot, std::int64_t layer,
                            std::int64_t start_row, std::int64_t new_rows) {
  ZI_CHECK(layer >= 0 && layer < layers_);
  ZI_CHECK(start_row >= 0 && new_rows >= 0 &&
           start_row + new_rows <= cap_rows_);
  if (new_rows == 0 || tier_ == KvTier::kGpu) return;
  const std::uint64_t row_off =
      static_cast<std::uint64_t>(start_row) * dim_ * sizeof(float);
  const std::size_t new_bytes =
      static_cast<std::size_t>(new_rows) * dim_ * sizeof(float);
  float* k = scratch_floats() + start_row * dim_;
  float* v = scratch_floats() + cap_rows_ * dim_ + start_row * dim_;
  if (tier_ == KvTier::kCpu) {
    auto& slab = cpu_slots_.at(static_cast<std::size_t>(slot));
    auto* base = reinterpret_cast<std::byte*>(slab.data());
    res_.mover().spill_copy(
        Route::kKvSpill, base + layer_offset(layer, false) + row_off,
        std::span<const std::byte>(reinterpret_cast<const std::byte*>(k),
                                   new_bytes));
    res_.mover().spill_copy(
        Route::kKvSpill, base + layer_offset(layer, true) + row_off,
        std::span<const std::byte>(reinterpret_cast<const std::byte*>(v),
                                   new_bytes));
  } else {
    const Extent& ext = nvme_slots_.at(static_cast<std::size_t>(slot));
    pending_spills_.push_back(res_.mover().spill_kv(
        ext,
        std::span<const std::byte>(reinterpret_cast<const std::byte*>(k),
                                   new_bytes),
        layer_offset(layer, false) + row_off));
    pending_spills_.push_back(res_.mover().spill_kv(
        ext,
        std::span<const std::byte>(reinterpret_cast<const std::byte*>(v),
                                   new_bytes),
        layer_offset(layer, true) + row_off));
  }
}

void TieredKvCache::wait_spills() {
  for (TransferHandle& h : pending_spills_) h.wait();
  pending_spills_.clear();
}

}  // namespace zi
