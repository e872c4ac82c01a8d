#include "core/ckpt_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace zi {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestHeader = "zi-ckpt-manifest v1";

/// fsync the directory containing `path` so a rename inside it is durable.
void fsync_parent_dir(const std::string& path) {
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    throw IoError("open(" + dir + "): " + std::strerror(errno), errno);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw IoError("fsync(" + dir + "): " + std::strerror(err), err);
  }
  ::close(fd);
}

/// Durably write a small text file: tmp + fsync + rename + parent fsync.
/// Self-contained durability — callers need no follow-up fsync — and every
/// error path unlinks the tmp file so a failed write leaves no litter for
/// recovery scans to trip over.
void atomic_write_text(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw IoError("open(" + tmp + "): " + std::strerror(errno), errno);
  }
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw IoError("write(" + tmp + "): " + std::strerror(err), err);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    throw IoError("fsync(" + tmp + "): " + std::strerror(err), err);
  }
  ::close(fd);
  try {
    fs::rename(tmp, path);
    fsync_parent_dir(path);
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
}

}  // namespace

std::uint64_t ckpt_checksum(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  for (const std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;  // FNV prime
  }
  return h;
}

std::string ckpt_manifest_path(const std::string& path) {
  return path + ".manifest";
}

void write_checkpoint_file(AioEngine& aio, const std::string& path,
                           std::span<const std::byte> blob) {
  const std::string tmp = path + ".tmp";
  // Any failure between open and rename (resize, an exhausted-retry write,
  // the sync, the rename itself) must not leak the tmp file: a later run's
  // recovery scan would find a half-written <path>.tmp next to intact
  // checkpoints. AioEngine::open never dedups by path, so a retry after the
  // unlink gets a fresh descriptor.
  try {
    AioFile* f = aio.open(tmp);
    f->resize(blob.size());
    aio.write(f, 0, blob);
    f->sync();
    fs::rename(tmp, path);
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
  fsync_parent_dir(path);

  std::ostringstream manifest;
  manifest << kManifestHeader << "\n"
           << "bytes " << blob.size() << "\n"
           << "fnv1a64 " << std::hex << ckpt_checksum(blob) << "\n";
  // atomic_write_text is durable on its own (tmp + fsync + rename + parent
  // fsync), so the manifest needs no extra fsync here.
  atomic_write_text(ckpt_manifest_path(path), manifest.str());
}

std::vector<std::byte> read_checkpoint_file(AioEngine& aio,
                                            const std::string& path) {
  if (!fs::exists(path)) {
    throw IoError("checkpoint not found: " + path, ENOENT);
  }

  // The manifest rename is the commit point: a payload without one is an
  // interrupted save, not a checkpoint.
  const std::string manifest_path = ckpt_manifest_path(path);
  if (!fs::exists(manifest_path)) {
    throw CheckpointCorruptionError("checkpoint " + path +
                                    " has no manifest (uncommitted save)");
  }
  std::uint64_t expect_bytes = 0;
  std::uint64_t expect_sum = 0;
  std::ifstream in(manifest_path);
  std::string header;
  std::getline(in, header);
  std::string key_bytes, key_sum;
  in >> key_bytes >> expect_bytes >> key_sum >> std::hex >> expect_sum;
  if (!in || header != kManifestHeader || key_bytes != "bytes" ||
      key_sum != "fnv1a64") {
    throw CheckpointCorruptionError("unreadable manifest: " + manifest_path);
  }

  AioFile* f = aio.open(path);
  const std::uint64_t actual_bytes = f->size();
  if (actual_bytes != expect_bytes) {
    throw CheckpointCorruptionError(
        "checkpoint " + path + ": manifest says " +
        std::to_string(expect_bytes) + " bytes, file has " +
        std::to_string(actual_bytes));
  }
  std::vector<std::byte> blob(actual_bytes);
  if (!blob.empty()) aio.read(f, 0, blob);
  const std::uint64_t actual_sum = ckpt_checksum(blob);
  if (actual_sum != expect_sum) {
    std::ostringstream msg;
    msg << "checkpoint " << path << ": checksum mismatch (manifest "
        << std::hex << expect_sum << ", payload " << actual_sum << ")";
    throw CheckpointCorruptionError(msg.str());
  }
  return blob;
}

}  // namespace zi
