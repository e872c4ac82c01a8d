// Report schemas, each declared once.
//
// A report (StepReport, RequestReport, ServeReport) is one X-macro list of
// rows X(name, type, init, kind, doc). The struct members, the JSON-line
// writer and the engine's per-step deltas are generated from that list, and
// zilint's doc-drift rule checks DESIGN.md's field tables against its names
// and docs, so a field is added, renamed or re-documented in one place.
//
//   kind  kValue    emitted as filled (ids, timings, gauges, ratios, and
//                   totals that are cumulative on purpose)
//         kDelta    a per-step delta: the engine fills the source counter's
//                   cumulative value and subtracts the previous snapshot
//         kDerived  a const member function computed from other fields
//   doc   the field's meaning; DESIGN.md's table row repeats it verbatim
//
// Std-only, like the rest of src/obs.
#pragma once

#include <cstdio>
#include <string>
#include <type_traits>

namespace zi {

enum class FieldKind { kValue, kDelta, kDerived };

// Row -> struct member, by kind.
#define ZI_REPORT_MEMBER(name, type, init, kind, doc) \
  ZI_REPORT_MEMBER_##kind(name, type, init)
#define ZI_REPORT_MEMBER_kValue(name, type, init) type name = init;
#define ZI_REPORT_MEMBER_kDelta(name, type, init) type name = init;
#define ZI_REPORT_MEMBER_kDerived(name, type, init) type name() const;

// Row -> one visitor call f(name, value), inside a const member.
#define ZI_REPORT_VISIT(name, type, init, kind, doc) \
  f(#name, ZI_REPORT_VALUE_##kind(name));
#define ZI_REPORT_VALUE_kValue(name) name
#define ZI_REPORT_VALUE_kDelta(name) name
#define ZI_REPORT_VALUE_kDerived(name) name()

/// A report struct's body: one member per row, for_each_field(f) calling
/// f(name, value) per field in declaration order, and to_json_line() (one
/// JSON object, no trailing newline).
#define ZI_REPORT_BODY(FIELDS)       \
  FIELDS(ZI_REPORT_MEMBER)           \
  template <typename F>              \
  void for_each_field(F&& f) const { \
    FIELDS(ZI_REPORT_VISIT)          \
  }                                  \
  std::string to_json_line() const { return json_line(*this); }

/// One JSON object over every field of `report`, in declaration order, no
/// trailing newline: integers in decimal, floating point as %.9g, bools as
/// true/false.
template <typename Report>
std::string json_line(const Report& report) {
  std::string out = "{";
  report.for_each_field([&out](const char* key, auto value) {
    out += '"';
    out += key;
    out += "\":";
    if constexpr (std::is_same_v<decltype(value), bool>) {
      out += value ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<decltype(value)>) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
      out += buf;
    } else {
      out += std::to_string(value);
    }
    out += ',';
  });
  out.back() = '}';  // replace the trailing comma
  return out;
}

}  // namespace zi
