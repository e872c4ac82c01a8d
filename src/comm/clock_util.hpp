// Internal time helpers shared by the comm transport backends. steady_clock
// is CLOCK_MONOTONIC on Linux, which is system-wide — a heartbeat timestamp
// taken in one rank *process* is comparable to now() in another, so the proc
// backend can publish these through shared memory unchanged.
#pragma once

#include <chrono>
#include <cstdint>

namespace zi::detail {

using CommClock = std::chrono::steady_clock;

inline std::int64_t comm_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             CommClock::now().time_since_epoch())
      .count();
}

inline CommClock::duration comm_ms_to_duration(double ms) {
  return std::chrono::duration_cast<CommClock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

// Wait-slice of every comm wait: short enough that heartbeats
// stay fresh relative to any sane stall threshold, long enough to be cheap.
inline constexpr std::chrono::milliseconds kWaitSlice{50};

}  // namespace zi::detail
