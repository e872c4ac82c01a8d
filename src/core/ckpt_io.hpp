// Crash-safe checkpoint file I/O.
//
// A checkpoint on disk is a pair of files:
//   <path>           — the payload blob, written through the async engine
//   <path>.manifest  — a small text sidecar: payload size + FNV-1a checksum
//
// The write protocol makes the pair atomic with respect to crashes:
//   1. payload  -> <path>.tmp, fsync, rename to <path>
//   2. manifest -> <path>.manifest.tmp, fsync, rename, fsync(parent dir)
// The manifest rename is the commit point: a payload without a valid
// manifest is an interrupted write, and one that disagrees with its
// manifest — truncation, bit rot, torn write — fails verification. Both
// throw CheckpointCorruptionError at load time, which resume logic treats
// as "fall back to the previous checkpoint" rather than a fatal error.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "aio/aio_engine.hpp"

namespace zi {

/// FNV-1a 64-bit over the payload bytes. Not cryptographic; detects the
/// truncations and torn writes a crashed checkpointer actually produces.
std::uint64_t ckpt_checksum(std::span<const std::byte> data);

/// Sidecar path for a checkpoint payload: `<path>.manifest`.
std::string ckpt_manifest_path(const std::string& path);

/// Atomically persist `blob` at `path` (protocol above). The payload goes
/// through `aio`, so it shares the engine's retry policy and fault sites.
void write_checkpoint_file(AioEngine& aio, const std::string& path,
                           std::span<const std::byte> blob);

/// Read and verify a checkpoint payload. A missing or unreadable manifest,
/// or any mismatch between manifest and payload, throws
/// CheckpointCorruptionError.
std::vector<std::byte> read_checkpoint_file(AioEngine& aio,
                                            const std::string& path);

}  // namespace zi
