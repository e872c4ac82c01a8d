// Fixture report declaration: one documented field, one undocumented field,
// one field whose documented meaning differs from its declared doc.
#pragma once

#define ZI_STEP_REPORT_FIELDS(X)                                          \
  X(step, std::int64_t, 0, kValue, "Documented and declared: clean.")     \
  X(bogus_field, double, 0.0, kValue,                                     \
    "Declared but undocumented: finding.")                                \
  X(loss, float, 0.0f, kValue, "Mean loss across ranks.")
