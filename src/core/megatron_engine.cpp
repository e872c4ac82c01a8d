#include "core/megatron_engine.hpp"

#include "common/half.hpp"
#include "tensor/ops.hpp"

namespace zi {

MegatronEngine::Grid MegatronEngine::make_grid(Communicator& world, int tp) {
  ZI_CHECK_MSG(world.size() % tp == 0,
               "world " << world.size() << " not divisible by tp " << tp);
  Communicator tp_comm = world.split(world.rank() / tp);
  Communicator dp_comm = world.split(world.rank() % tp);
  return Grid{std::move(tp_comm), std::move(dp_comm)};
}

MegatronEngine::MegatronEngine(TrainableModel& model, Communicator& world,
                               Grid grid, MegatronConfig config)
    : model_(model),
      world_(world),
      grid_(std::move(grid)),
      config_(config),
      scaler_(config.loss_scale) {
  gpu_ = std::make_unique<DeviceArena>(
      "gpu[" + std::to_string(world.rank()) + "]", config_.gpu_arena_bytes,
      DeviceArena::Mode::kReal);
  local_store_ = std::make_unique<LocalParamStore>(model_.module());
  // Replicated local model states: fp16 params (2 B) + fp32 compute copy
  // (4) + fp32 grads (4) + fp32 momentum/variance (8) per element. This is
  // the footprint that caps 3D parallelism at aggregate-GPU scale.
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(local_store_->total_numel()) *
      (2 + 4 + 4 + 8);
  reservation_ = gpu_->allocate(bytes);

  for (Parameter* p : local_store_->params()) {
    // Master weights start from the fp16-rounded initialization (matching
    // the ZeRO engines) and keep full fp32 precision thereafter.
    const float* full = p->full_tensor().data<float>();
    master_.emplace_back(full, full + p->numel());
    momentum_.emplace_back(static_cast<std::size_t>(p->numel()), 0.0f);
    variance_.emplace_back(static_cast<std::size_t>(p->numel()), 0.0f);
  }
}

MegatronEngine::StepStats MegatronEngine::train_step(
    std::span<const std::int32_t> tokens,
    std::span<const std::int32_t> targets) {
  local_store_->zero_grads();
  const float cur_scale = scaler_.scale();
  const float dp = static_cast<float>(grid_.dp.size());

  StepStats st;
  st.loss_scale = cur_scale;
  st.local_loss = model_.forward_loss(tokens, targets);
  model_.backward_loss(cur_scale / dp);

  // Gradient averaging over the data-parallel dimension only (tensor-
  // parallel slices are disjoint; replicated params have identical grads
  // on every tp rank by construction).
  std::vector<half> grad16;
  bool overflow = false;
  for (Parameter* p : local_store_->params()) {
    grad16.resize(static_cast<std::size_t>(p->numel()));
    cast_f32_to_f16(p->grad_tensor().span<float>(), grad16);
    grid_.dp.allreduce_sum<half>(grad16);
    for (const half h : grad16) {
      if (!h.isfinite()) overflow = true;
    }
    // Write the reduced fp16 grads back as fp32 for the optimizer.
    cast_f16_to_f32(grad16, p->grad_tensor().span<float>());
  }
  overflow = world_.allreduce_or(overflow);
  st.global_loss = static_cast<float>(
      world_.allreduce_sum_scalar(st.local_loss) / world_.size());
  st.skipped = scaler_.update(overflow);
  if (st.skipped) return st;

  ++opt_step_;
  const auto& params = local_store_->params();
  for (std::size_t k = 0; k < params.size(); ++k) {
    Parameter* p = params[k];
    adam_step(config_.adam, opt_step_, master_[k], momentum_[k], variance_[k],
              p->grad_tensor().span<float>(), cur_scale);
    cast_f32_to_f16(master_[k], local_store_->fp16(p).span<half>());
  }
  local_store_->refresh_full_from_fp16();
  return st;
}

}  // namespace zi
