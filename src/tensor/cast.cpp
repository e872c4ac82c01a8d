#include "tensor/cast.hpp"

#include "common/half.hpp"

namespace zi {

Tensor cast(const Tensor& src, DType dtype) {
  Tensor out(src.shape(), dtype);
  if (src.dtype() == dtype) {
    out.copy_from(src);
  } else if (dtype == DType::kF32) {
    cast_f16_to_f32(src.span<half>(), out.span<float>());
  } else {
    cast_f32_to_f16(src.span<float>(), out.span<half>());
  }
  return out;
}

}  // namespace zi
