#include "core/coordinator.hpp"

#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "common/half.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zi {

void ParamCoordinator::on_post_backward(Module& m) {
  for (const auto& p : m.own_parameters()) {
    reduce_and_store_grad(p.get());
    release(p.get());
  }
  for (Parameter* p : m.external_parameters()) release(p);
  if (!module_stack_.empty() && module_stack_.back() == &m) {
    module_stack_.pop_back();
  }
}

void ParamCoordinator::ensure_grad_buffer(Parameter* p) {
  if (p->grad_tensor().defined()) return;
  ArenaBlock block = res_.gpu().allocate(
      static_cast<std::uint64_t>(p->numel()) * sizeof(float));
  std::memset(block.data(), 0,
              static_cast<std::size_t>(p->numel()) * sizeof(float));
  p->grad_tensor() = Tensor::view(p->shape(), DType::kF32, block.data());
  grad_blocks_.emplace(p->id(), std::move(block));
}

void ParamCoordinator::reduce_and_store_grad(Parameter* p) {
  ZI_CHECK_MSG(p->grad_tensor().defined(),
               "no gradient accumulated for " << p->name());
  ZI_TRACE_SPAN("coord", "reduce:" + p->name());
  using Clock = std::chrono::steady_clock;
  const bool timed = MetricsSink::enabled();
  const auto reduce_t0 = timed ? Clock::now() : Clock::time_point{};
  const ShardSpec& spec = store_.param_spec(p);

  // fp32 accumulation happened in the grad buffer; storage/transit is fp16
  // (the mixed-precision recipe). Pad to the shard grid, reduce-scatter.
  std::vector<half> padded(static_cast<std::size_t>(spec.padded_numel()),
                           half(0.0f));
  cast_f32_to_f16(p->grad_tensor().span<float>(),
                  std::span<half>(padded.data(),
                                  static_cast<std::size_t>(p->numel())));
  // Weighted shards: spread the flat gradient into equal collective slots
  // (zero tails) so the reduce-scatter stays slot-aligned and rank-order
  // deterministic (no-op for uniform specs).
  expand_to_slots<half>(spec, padded);
  std::vector<half> shard(static_cast<std::size_t>(spec.shard_elems));
  comm_.reduce_scatter_sum<half>(padded, shard);
  stats_.reduce_scatter_fp16_elems += padded.size();

  if (accumulate_grads_) {
    store_.accumulate_grad_shard(p, shard);
  } else {
    store_.store_grad_shard(p, shard);
  }
  if (timed) {
    stats_.reduce_seconds +=
        std::chrono::duration<double>(Clock::now() - reduce_t0).count();
  }
  if (observer_) {
    DataMovementEvent ev;
    ev.kind = DataMovementEvent::Kind::kReduceScatter;
    ev.param = p->name();
    ev.tier = config_.grad_placement;
    emit(ev);
  }
  ++stats_.grads_reduced;

  p->grad_tensor() = Tensor();
  grad_blocks_.erase(p->id());
}

}  // namespace zi
