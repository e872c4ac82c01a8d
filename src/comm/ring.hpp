// Ring-algorithm collectives built on point-to-point messaging — the
// NCCL-style algorithm layer.
//
// The engine itself uses the direct shared-memory collectives in
// world.hpp (their rank-order reduction is what makes the exactness tests
// bitwise); this layer exists because on real hardware these collectives
// ARE rings, and the paper's bandwidth arithmetic (Sec. 6.1: "both
// broadcast and allgather communication collectives have the same
// communication cost") is a statement about the ring algorithms:
//
//   ring allgather       : each rank sends (n-1) chunks of size S/n
//   ring reduce-scatter  : each rank sends (n-1) chunks of size S/n
//   ring allreduce       : reduce-scatter + allgather = 2(n-1)/n · S
//
// The suite verifies the classic algorithms against the direct versions
// and exposes per-rank traffic so the 2(n-1)/n identity is testable.
#pragma once

#include <span>

#include "comm/world.hpp"

namespace zi {

/// Ring allgather: recv must be send.size() * world; each rank forwards
/// its chunk around the ring in (world-1) steps.
template <typename T>
void ring_allgather(Communicator& comm, std::span<const T> send,
                    std::span<T> recv);

/// Ring reduce-scatter (sum): send is recv.size() * world; after (world-1)
/// steps each rank holds the fully reduced chunk it owns. Accumulation is
/// fp32 regardless of T.
template <typename T>
void ring_reduce_scatter_sum(Communicator& comm, std::span<const T> send,
                             std::span<T> recv);

/// Ring allreduce = ring reduce-scatter + ring allgather (exactly, by
/// construction).
template <typename T>
void ring_allreduce_sum(Communicator& comm, std::span<T> data);

// ---------------------------------------------------------------------------
// Implementation

template <typename T>
void ring_allgather(Communicator& comm, std::span<const T> send,
                    std::span<T> recv) {
  const int n = comm.size();
  const int rank = comm.rank();
  const std::size_t chunk = send.size();
  ZI_CHECK(recv.size() == chunk * static_cast<std::size_t>(n));
  // Own chunk in place.
  std::copy(send.begin(), send.end(),
            recv.begin() + static_cast<std::ptrdiff_t>(chunk) * rank);
  if (n == 1) return;
  const int next = (rank + 1) % n;
  const int prev = (rank + n - 1) % n;
  // Step s: forward the chunk originally owned by (rank - s).
  for (int s = 0; s < n - 1; ++s) {
    const int send_owner = (rank - s + n) % n;
    const int recv_owner = (rank - s - 1 + n) % n;
    comm.send(std::span<const T>(
                  recv.data() + chunk * static_cast<std::size_t>(send_owner),
                  chunk),
              next, /*tag=*/s);
    comm.recv(std::span<T>(
                  recv.data() + chunk * static_cast<std::size_t>(recv_owner),
                  chunk),
              prev, /*tag=*/s);
  }
}

template <typename T>
void ring_reduce_scatter_sum(Communicator& comm, std::span<const T> send,
                             std::span<T> recv) {
  const int n = comm.size();
  const int rank = comm.rank();
  const std::size_t chunk = recv.size();
  ZI_CHECK(send.size() == chunk * static_cast<std::size_t>(n));
  if (n == 1) {
    std::copy(send.begin(), send.end(), recv.begin());
    return;
  }
  const int next = (rank + 1) % n;
  const int prev = (rank + n - 1) % n;

  // Accumulators in fp32 (matching the direct collectives' precision).
  std::vector<float> acc(send.size());
  detail::to_f32<T>(send, acc);
  std::vector<float> inbox(chunk);
  // Classic ring schedule, relabeled so rank r finishes owning chunk r
  // (matching the direct collective's ownership): run as virtual rank
  // v = r-1, whose standard schedule ends with complete chunk v+1 = r.
  const int v = (rank + n - 1) % n;
  for (int s = 0; s < n - 1; ++s) {
    const int send_chunk = (v - s + n) % n;
    const int recv_chunk = (v - s - 1 + 2 * n) % n;
    comm.send(std::span<const float>(
                  acc.data() + chunk * static_cast<std::size_t>(send_chunk),
                  chunk),
              next, /*tag=*/100 + s);
    comm.recv(std::span<float>(inbox), prev, /*tag=*/100 + s);
    float* dst = acc.data() + chunk * static_cast<std::size_t>(recv_chunk);
    for (std::size_t i = 0; i < chunk; ++i) dst[i] += inbox[i];
  }
  // After the loop this rank's fully-reduced chunk is its own index.
  const float* mine = acc.data() + chunk * static_cast<std::size_t>(rank);
  detail::from_f32<T>({mine, chunk}, recv);
}

template <typename T>
void ring_allreduce_sum(Communicator& comm, std::span<T> data) {
  const int n = comm.size();
  ZI_CHECK_MSG(data.size() % static_cast<std::size_t>(n) == 0,
               "ring allreduce requires size divisible by world");
  const std::size_t chunk = data.size() / static_cast<std::size_t>(n);
  std::vector<T> shard(chunk);
  ring_reduce_scatter_sum<T>(comm, data, shard);
  ring_allgather<T>(comm, shard, data);
}

}  // namespace zi
