#include "model/local_store.hpp"

#include "common/error.hpp"
#include "common/half.hpp"

namespace zi {

LocalParamStore::LocalParamStore(Module& root) {
  params_ = root.all_parameters();
  for (Parameter* p : params_) {
    total_numel_ += p->numel();
    // fp16 storage holds the rounded initial values — the same rounding a
    // partitioned shard would store.
    Tensor h(p->shape(), DType::kF16);
    half* hp = h.data<half>();
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      hp[i] = half(p->init_value(i));
    }
    fp16_.emplace(p, std::move(h));

    p->full_tensor() = Tensor(p->shape(), DType::kF32);
    p->grad_tensor() = Tensor(p->shape(), DType::kF32);
    p->set_status(Parameter::Status::kAvailable);
  }
  refresh_full_from_fp16();
}

void LocalParamStore::refresh_full_from_fp16() {
  for (Parameter* p : params_) {
    cast_f16_to_f32(fp16_.at(p).span<half>(), p->full_tensor().span<float>());
  }
}

void LocalParamStore::zero_grads() {
  for (Parameter* p : params_) p->grad_tensor().zero();
}

Tensor& LocalParamStore::fp16(Parameter* p) {
  auto it = fp16_.find(p);
  ZI_CHECK_MSG(it != fp16_.end(), "unknown parameter " << p->name());
  return it->second;
}

}  // namespace zi
