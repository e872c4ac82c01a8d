// Collectives tests, including the determinism property the ZeRO ≡ DDP
// equivalence rests on: allreduce == reduce_scatter + allgather exactly.
#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <vector>

#include "comm/world.hpp"
#include "common/half.hpp"

namespace zi {
namespace {

TEST(Comm, RanksAreDistinctAndComplete) {
  std::vector<std::atomic<int>> hits(4);
  run_ranks(4, [&](Communicator& comm) {
    hits[static_cast<std::size_t>(comm.rank())].fetch_add(1);
    EXPECT_EQ(comm.size(), 4);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Comm, ExceptionFromRankPropagates) {
  EXPECT_THROW(
      run_ranks(2,
                [](Communicator& comm) {
                  if (comm.rank() == 1) throw Error("rank failure");
                }),
      Error);
}

TEST(Comm, Broadcast) {
  run_ranks(4, [](Communicator& comm) {
    std::vector<float> data(16, -1.0f);
    if (comm.rank() == 2) {
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<float>(i);
    }
    comm.broadcast<float>(data, /*root=*/2);
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(data[i], static_cast<float>(i));
    }
  });
}

TEST(Comm, Allgather) {
  run_ranks(3, [](Communicator& comm) {
    std::vector<float> send(4);
    for (int i = 0; i < 4; ++i) {
      send[static_cast<std::size_t>(i)] = static_cast<float>(comm.rank() * 10 + i);
    }
    std::vector<float> recv(12);
    comm.allgather<float>(send, recv);
    for (int r = 0; r < 3; ++r) {
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(recv[static_cast<std::size_t>(r * 4 + i)],
                  static_cast<float>(r * 10 + i));
      }
    }
  });
}

TEST(Comm, ReduceScatterSum) {
  run_ranks(4, [](Communicator& comm) {
    // Every rank contributes [rank, rank, ...]; each chunk sums to 0+1+2+3=6.
    std::vector<float> send(8, static_cast<float>(comm.rank()));
    std::vector<float> recv(2);
    comm.reduce_scatter_sum<float>(send, recv);
    EXPECT_EQ(recv[0], 6.0f);
    EXPECT_EQ(recv[1], 6.0f);
  });
}

TEST(Comm, AllreduceSum) {
  run_ranks(4, [](Communicator& comm) {
    std::vector<float> data(10);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<float>(comm.rank()) + static_cast<float>(i) * 0.5f;
    }
    comm.allreduce_sum<float>(data);
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_FLOAT_EQ(data[i], 6.0f + 4.0f * static_cast<float>(i) * 0.5f);
    }
  });
}

// THE determinism property: allreduce(x) == allgather(reduce_scatter(x))
// bit-for-bit, because both sum in ascending rank order with fp32
// accumulation. ZeRO-3 uses the right-hand side, DDP the left.
TEST(CommProperty, AllreduceEqualsReduceScatterPlusAllgather) {
  constexpr int kRanks = 4;
  constexpr std::size_t kPerRank = 32;
  run_ranks(kRanks, [&](Communicator& comm) {
    std::vector<float> contribution(kPerRank * kRanks);
    for (std::size_t i = 0; i < contribution.size(); ++i) {
      // Non-associative-friendly values: sums depend on order.
      contribution[i] =
          1.0f + 1e-7f * static_cast<float>((comm.rank() * 131 + static_cast<int>(i) * 17) % 97);
    }
    std::vector<float> via_allreduce = contribution;
    comm.allreduce_sum<float>(via_allreduce);

    std::vector<float> shard(kPerRank);
    comm.reduce_scatter_sum<float>(contribution, shard);
    std::vector<float> via_rs_ag(kPerRank * kRanks);
    comm.allgather<float>(shard, via_rs_ag);

    for (std::size_t i = 0; i < via_rs_ag.size(); ++i) {
      EXPECT_EQ(via_allreduce[i], via_rs_ag[i]) << i;
    }
  });
}

TEST(Comm, ReduceScatterHalfAccumulatesInFp32) {
  run_ranks(4, [](Communicator& comm) {
    // 2048 in fp16 has ulp 2: adding 1.0 four times in pure fp16 would
    // stall at 2048. fp32 accumulation must reach 2052.
    std::vector<half> send(4, half(comm.rank() == 0 ? 2048.0f : 1.0f));
    std::vector<half> recv(1);
    comm.reduce_scatter_sum<half>(send, recv);
    EXPECT_EQ(recv[0].to_float(), 2052.0f);
  });
}

// The fp16 sums equal a scalar fold bit for bit: each element starts at
// 0.0f, adds rank 0, rank 1, ... in fp32, and rounds once with the software
// reference. A 37-element chunk runs the converters' 8-wide bodies and a
// tail; a 1029-element one also spans the collectives' 512-element scratch
// tiles. The inputs mix -0.0, subnormals and values near 65504, whose sums
// overflow to inf.
TEST(Comm, HalfSumsMatchScalarFoldBitForBit) {
  constexpr int kRanks = 4;
  for (const std::size_t chunk : {std::size_t{37}, std::size_t{1029}}) {
    const std::size_t total = chunk * kRanks;
    std::vector<std::vector<half>> sends(kRanks, std::vector<half>(total));
    std::mt19937 rng(static_cast<std::uint32_t>(chunk));
    for (auto& send : sends) {
      for (half& h : send) {
        const std::uint32_t u = rng();
        const auto sign = static_cast<std::uint16_t>((u >> 31) << 15);
        std::uint16_t mag = 0;  // case 0: ±0.0
        switch (u % 4) {
          case 1: mag = static_cast<std::uint16_t>((u >> 8) & 0x3FF); break;
          case 2: mag = static_cast<std::uint16_t>(0x7BFF - (u >> 8) % 64); break;
          case 3: mag = static_cast<std::uint16_t>((u >> 8) % 0x7C00); break;
          default: break;
        }
        h = half::from_bits(static_cast<std::uint16_t>(sign | mag));
      }
    }
    std::vector<std::uint16_t> expected(total);
    for (std::size_t i = 0; i < total; ++i) {
      float acc = 0.0f;
      for (const auto& send : sends) {
        acc += half_bits_to_float_ref(send[i].bits());
      }
      expected[i] = float_to_half_bits_ref(acc);
    }
    run_ranks(kRanks, [&](Communicator& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      std::vector<half> recv(chunk);
      comm.reduce_scatter_sum<half>(sends[r], recv);
      for (std::size_t i = 0; i < chunk; ++i) {
        EXPECT_EQ(recv[i].bits(), expected[r * chunk + i])
            << chunk << ":" << i;
      }
      std::vector<half> data = sends[r];
      comm.allreduce_sum<half>(data);
      for (std::size_t i = 0; i < total; ++i) {
        EXPECT_EQ(data[i].bits(), expected[i]) << chunk << ":" << i;
      }
    });
  }
}

TEST(Comm, HalfSumOfNegativeZerosIsPositiveZero) {
  run_ranks(4, [](Communicator& comm) {
    const std::vector<half> send(4 * 37, half(-0.0f));
    std::vector<half> recv(37);
    comm.reduce_scatter_sum<half>(send, recv);
    for (const half h : recv) EXPECT_EQ(h.bits(), 0x0000);
    std::vector<half> data = send;
    comm.allreduce_sum<half>(data);
    for (const half h : data) EXPECT_EQ(h.bits(), 0x0000);
  });
}

TEST(Comm, Gather) {
  run_ranks(3, [](Communicator& comm) {
    std::vector<float> send(2, static_cast<float>(comm.rank() + 1));
    std::vector<float> recv(comm.rank() == 0 ? 6 : 0);
    comm.gather<float>(send, recv, /*root=*/0);
    if (comm.rank() == 0) {
      EXPECT_EQ(recv[0], 1.0f);
      EXPECT_EQ(recv[2], 2.0f);
      EXPECT_EQ(recv[4], 3.0f);
    }
  });
}

TEST(Comm, AllreduceMax) {
  run_ranks(5, [](Communicator& comm) {
    const double v = comm.rank() == 3 ? 99.5 : static_cast<double>(comm.rank());
    EXPECT_EQ(comm.allreduce_max(v), 99.5);
  });
}

TEST(Comm, TrafficCountersAccumulate) {
  run_ranks(2, [](Communicator& comm) {
    std::vector<float> send(8, 1.0f);
    std::vector<float> recv(16);
    comm.allgather<float>(send, recv);
    std::vector<float> rs_recv(8);
    comm.reduce_scatter_sum<float>(recv, rs_recv);
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.traffic().allgather_bytes.load(), 2u * 8u * sizeof(float));
      EXPECT_EQ(comm.traffic().reduce_scatter_bytes.load(),
                2u * 16u * sizeof(float));
      EXPECT_GE(comm.traffic().barriers.load(), 2u);
      EXPECT_EQ(comm.traffic().collectives.load(), 4u);
    }
    comm.barrier();
  });
}

TEST(Comm, SingleRankDegenerateCase) {
  run_ranks(1, [](Communicator& comm) {
    std::vector<float> data(4, 2.0f);
    comm.allreduce_sum<float>(data);
    EXPECT_EQ(data[0], 2.0f);
    std::vector<float> recv(4);
    comm.allgather<float>(std::span<const float>(data), recv);
    EXPECT_EQ(recv[3], 2.0f);
    std::vector<float> rs(4);
    comm.reduce_scatter_sum<float>(std::span<const float>(data), rs);
    EXPECT_EQ(rs[0], 2.0f);
  });
}

TEST(Comm, RepeatedCollectivesDoNotDeadlock) {
  run_ranks(4, [](Communicator& comm) {
    std::vector<float> v(16, static_cast<float>(comm.rank()));
    for (int iter = 0; iter < 50; ++iter) {
      comm.allreduce_sum<float>(v);
      comm.barrier();
      std::vector<float> shard(4);
      comm.reduce_scatter_sum<float>(std::span<const float>(v), shard);
      comm.allgather<float>(std::span<const float>(shard), v);
    }
  });
}

}  // namespace
}  // namespace zi
