// Tensor-level precision conversion between fp16 storage and fp32 compute.
// The element loops are the span converters in common/half.hpp.
#pragma once

#include "tensor/tensor.hpp"

namespace zi {

/// Tensor-level conversion into a new owned tensor of `dtype`.
Tensor cast(const Tensor& src, DType dtype);

}  // namespace zi
