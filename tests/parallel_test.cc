// Tests for the persistent work-stealing pool in util/parallel: exactly-once
// execution across edge-case shapes, nested regions, reuse across many
// calls, contention under skewed per-item cost, and the determinism
// contract of ParallelReduce (bit-identical merges across thread counts).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/hashing.h"
#include "util/parallel/thread_pool.h"

namespace autotest::util::parallel {
namespace {

Options Threads(size_t n, size_t grain = 0) {
  Options opt;
  opt.num_threads = n;
  opt.grain = grain;
  return opt;
}

// Every index in [0, n) must execute exactly once.
void ExpectExactlyOnce(size_t n, const Options& opt) {
  std::vector<std::atomic<uint32_t>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); }, opt);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroItems) {
  std::atomic<uint32_t> calls{0};
  ParallelFor(0, [&](size_t) { calls.fetch_add(1); }, Threads(8));
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ParallelForTest, SingleItem) { ExpectExactlyOnce(1, Threads(8)); }

TEST(ParallelForTest, FewerItemsThanThreads) {
  ExpectExactlyOnce(3, Threads(8));
}

TEST(ParallelForTest, NotDivisibleByGrain) {
  // 1000 = 142 * 7 + 6: last chunk is a partial one.
  ExpectExactlyOnce(1000, Threads(4, /*grain=*/7));
}

TEST(ParallelForTest, GrainLargerThanN) {
  ExpectExactlyOnce(5, Threads(4, /*grain=*/100));
}

TEST(ParallelForTest, ManyThreadCountGrainCombos) {
  for (size_t threads : {1, 2, 3, 8, 16}) {
    for (size_t grain : {0, 1, 3, 64}) {
      ExpectExactlyOnce(257, Threads(threads, grain));
    }
  }
}

TEST(ParallelForTest, NestedCallsRunInline) {
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 100;
  std::vector<uint64_t> sums(kOuter, 0);
  ParallelFor(
      kOuter,
      [&](size_t o) {
        // The nested region must execute serially on this worker without
        // deadlocking or touching other outer iterations' slots.
        ParallelFor(
            kInner, [&](size_t i) { sums[o] += i + 1; }, Threads(8));
      },
      Threads(8, /*grain=*/1));
  for (size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(sums[o], kInner * (kInner + 1) / 2);
  }
}

TEST(ParallelForTest, ReuseAcrossThousandCalls) {
  // The pool is persistent: 1000 successive regions reuse the same
  // workers. Mix shapes so ranges/tickets are re-initialized every time.
  std::atomic<uint64_t> total{0};
  uint64_t expected = 0;
  for (size_t call = 0; call < 1000; ++call) {
    size_t n = 1 + (call % 37);
    expected += n;
    ParallelFor(n, [&](size_t) { total.fetch_add(1); },
                Threads(1 + call % 5));
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ParallelForTest, ConcurrentExternalSubmitters) {
  // Regions submitted from distinct external threads serialize on the
  // pool but must all complete correctly.
  constexpr size_t kSubmitters = 4;
  constexpr size_t kN = 500;
  std::vector<std::atomic<uint64_t>> counts(kSubmitters);
  for (auto& c : counts) c.store(0);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSubmitters; ++s) {
    threads.emplace_back([&, s] {
      for (int rep = 0; rep < 20; ++rep) {
        ParallelFor(kN, [&](size_t) { counts[s].fetch_add(1); },
                    Threads(4));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(counts[s].load(), 20u * kN);
  }
}

TEST(ParallelForTest, ContentionStressSkewedCost) {
  // Skewed per-item cost: a few indices are ~1000x more expensive, so
  // naive static partitioning would leave most workers idle; stealing
  // must still execute every index exactly once.
  constexpr size_t kN = 20000;
  std::vector<std::atomic<uint32_t>> hits(kN);
  for (auto& h : hits) h.store(0);
  std::atomic<uint64_t> sink{0};
  ParallelFor(
      kN,
      [&](size_t i) {
        uint64_t spin = (i % 1024 == 0) ? 20000 : 20;
        uint64_t acc = i;
        for (uint64_t s = 0; s < spin; ++s) acc = SplitMix64(acc);
        sink.fetch_add(acc & 1, std::memory_order_relaxed);
        hits[i].fetch_add(1);
      },
      Threads(8, /*grain=*/16));
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(ParallelForEachChunkTest, ChunksTileTheRange) {
  constexpr size_t kN = 1003;
  constexpr size_t kGrain = 17;
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  ParallelForEachChunk(
      kN,
      [&](size_t b, size_t e) {
        std::lock_guard<std::mutex> lk(mu);
        chunks.push_back({b, e});
      },
      Threads(8, kGrain));
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), (kN + kGrain - 1) / kGrain);
  size_t expect_begin = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, expect_begin);
    EXPECT_GT(e, b);
    EXPECT_LE(e - b, kGrain);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, kN);
}

// ---------------------------------------------------------------------------
// ParallelReduce golden tests: the chunk partition depends only on n (and
// an explicit grain), so floating-point sums must be bit-identical across
// thread counts.
// ---------------------------------------------------------------------------

double NoisyValue(size_t i) {
  // Values spanning many magnitudes so float addition is order-sensitive:
  // any change in merge order would change the bits of the sum.
  uint64_t h = SplitMix64(i + 1);
  double mant = static_cast<double>(h % 1000003) / 1000003.0;
  int exp = static_cast<int>(h >> 60) - 8;
  return std::ldexp(mant, exp);
}

double ReduceSum(size_t n, const Options& opt) {
  return ParallelReduce(
      n, 0.0, [](size_t i, double& acc) { acc += NoisyValue(i); },
      [](double a, double b) { return a + b; }, opt);
}

TEST(ParallelReduceTest, SumBitIdenticalAcrossThreadCounts) {
  for (size_t n : {0ul, 1ul, 63ul, 64ul, 65ul, 10000ul}) {
    double reference = ReduceSum(n, Threads(1));
    for (size_t threads : {2, 3, 8}) {
      double got = ReduceSum(n, Threads(threads));
      EXPECT_EQ(got, reference) << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ParallelReduceTest, ExplicitGrainStillDeterministic) {
  constexpr size_t kN = 5000;
  double reference = ReduceSum(kN, Threads(1, /*grain=*/13));
  for (size_t threads : {2, 8}) {
    EXPECT_EQ(ReduceSum(kN, Threads(threads, /*grain=*/13)), reference);
  }
}

TEST(ParallelReduceTest, MatchesSerialChunkedReference) {
  constexpr size_t kN = 4096;
  const size_t grain = ReduceGrain(kN);
  // The documented merge order: fold each chunk serially, then fold the
  // chunk partials in ascending chunk order.
  double expected = 0.0;
  for (size_t b = 0; b < kN; b += grain) {
    double partial = 0.0;
    for (size_t i = b; i < std::min(kN, b + grain); ++i) {
      partial += NoisyValue(i);
    }
    expected += partial;
  }
  EXPECT_EQ(ReduceSum(kN, Threads(8)), expected);
}

TEST(ParallelReduceTest, NonCommutativeMergeKeepsIndexOrder) {
  // Concatenation makes merge order visible directly.
  constexpr size_t kN = 300;
  auto run = [&](size_t threads) {
    return ParallelReduce(
        kN, std::string(),
        [](size_t i, std::string& acc) {
          acc += static_cast<char>('a' + (SplitMix64(i) % 26));
        },
        [](std::string a, std::string b) { return a + b; },
        Threads(threads, /*grain=*/7));
  };
  std::string reference = run(1);
  ASSERT_EQ(reference.size(), kN);
  EXPECT_EQ(run(2), reference);
  EXPECT_EQ(run(8), reference);
}

// ---------------------------------------------------------------------------
// Stats and shim.
// ---------------------------------------------------------------------------

TEST(ParallelStatsTest, CountersAdvance) {
  ResetStats();
  ParallelFor(1000, [](size_t) {}, Threads(4, /*grain=*/10));
  StatsSnapshot s = SnapshotStats();
  EXPECT_EQ(s.invocations, 1u);
  EXPECT_EQ(s.items, 1000u);
  EXPECT_EQ(s.chunks, 100u);
  EXPECT_LE(s.participants, s.slots_offered);
  EXPECT_GE(s.utilization(), 0.0);
  EXPECT_LE(s.utilization(), 1.0);
  std::string text = FormatStats();
  EXPECT_NE(text.find("invocations=1"), std::string::npos);
  EXPECT_NE(text.find("items=1000"), std::string::npos);
}

TEST(ParallelStatsTest, SerialFallbackCounted) {
  ResetStats();
  ParallelFor(50, [](size_t) {}, Threads(1));
  StatsSnapshot s = SnapshotStats();
  EXPECT_EQ(s.serial_invocations, 1u);
  EXPECT_EQ(s.items, 50u);
}

}  // namespace
}  // namespace autotest::util::parallel
