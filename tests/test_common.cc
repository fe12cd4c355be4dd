#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/checksum.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"

namespace cm {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("key missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "key missing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: key missing");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(0), 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = AbortedError("race");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kAborted);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(Hash, DeterministicAndSpread) {
  Hash128 a = HashKey("key-1");
  Hash128 b = HashKey("key-1");
  Hash128 c = HashKey("key-2");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_FALSE(a.is_zero());
}

TEST(Hash, NoCollisionsOnSmallCorpus) {
  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (int i = 0; i < 100000; ++i) {
    Hash128 h = HashKey("key-" + std::to_string(i));
    EXPECT_TRUE(seen.emplace(h.hi, h.lo).second) << "collision at " << i;
  }
}

TEST(Hash, EmptyAndLongKeys) {
  EXPECT_NE(HashKey(""), HashKey("x"));
  std::string longkey(10000, 'a');
  EXPECT_NE(HashKey(longkey), HashKey(longkey + "a"));
}

// Pinned outputs: placement, IndexEntry tags and every DataEntry's keyhash
// derive from HashKey, so any change to it must be a deliberate one. Key of
// length n is 'a' + (7*i mod 26) for i < n, covering empty, sub-block,
// exact-block and block-plus-tail inputs.
TEST(Hash, GoldenValues) {
  struct Golden {
    int len;
    uint64_t hi;
    uint64_t lo;
  };
  constexpr Golden kGolden[] = {
      {0, 0xe9e0033e3badaf36ull, 0xdfc7a99951f24649ull},
      {1, 0x8a18e7a66d3e0194ull, 0x2b48bd59813c09dfull},
      {7, 0x3af42d2e0b03fb6cull, 0xe3c14e753e981dfcull},
      {8, 0x773dea91b4d7bd19ull, 0x98acaae0c2d8ddb4ull},
      {9, 0xff04614eb7da3962ull, 0x9ba340412ec0ac00ull},
      {15, 0xfc66d7f911dbf5a9ull, 0x8a089804c581903dull},
      {16, 0x276ea2ea90a5e414ull, 0xd22442b9f9b80bd8ull},
      {17, 0x1d624682b7bd693bull, 0xbc57118ca7ccf4b2ull},
      {64, 0x6d71232885535928ull, 0x828bd01e32233c89ull},
      {255, 0x4046c8f1dfe90c18ull, 0x498fd83bdf6186a4ull},
      {256, 0x0b577cc14252e9c5ull, 0xf95542f191aacb4aull},
  };
  for (const Golden& g : kGolden) {
    std::string key;
    for (int i = 0; i < g.len; ++i) {
      key.push_back(static_cast<char>('a' + (i * 7) % 26));
    }
    const Hash128 h = HashKey(key);
    EXPECT_EQ(h.hi, g.hi) << "len " << g.len;
    EXPECT_EQ(h.lo, g.lo) << "len " << g.len;
  }
}

TEST(Hash, BucketSelectionIsUniformish) {
  constexpr int kBuckets = 64;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < 64000; ++i) {
    Hash128 h = HashKey("uniform-" + std::to_string(i));
    counts[Mix64(h.lo) % kBuckets]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(Crc32c, KnownVector) {
  // CRC32C("123456789") = 0xE3069283 (iSCSI test vector).
  EXPECT_EQ(ComputeCrc32c(AsByteSpan("123456789")), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(ComputeCrc32c(ByteSpan{}), 0u); }

TEST(Crc32c, IncrementalMatchesOneShot) {
  Crc32c inc;
  inc.Update(AsByteSpan("hello ")).Update(AsByteSpan("world"));
  EXPECT_EQ(inc.value(), ComputeCrc32c(AsByteSpan("hello world")));
}

TEST(Crc32c, DetectsSingleBitFlip) {
  Bytes data = ToBytes("the quick brown fox");
  uint32_t clean = ComputeCrc32c(data);
  data[5] ^= std::byte{0x01};
  EXPECT_NE(ComputeCrc32c(data), clean);
}

TEST(Crc32c, IntegerUpdatesMatchByteEncoding) {
  Crc32c a;
  a.UpdateU32(0xdeadbeef).UpdateU64(0x0123456789abcdefull);
  std::byte buf[12];
  StoreU32(buf, 0xdeadbeef);
  StoreU64(buf + 4, 0x0123456789abcdefull);
  EXPECT_EQ(a.value(), ComputeCrc32c(ByteSpan(buf, 12)));
}

// Bit-at-a-time CRC32C straight from the reflected polynomial: no table and
// no instruction, so it shares no code with either kernel under test.
uint32_t BitwiseCrc32c(ByteSpan data) {
  uint32_t crc = 0xffffffffu;
  for (std::byte b : data) {
    crc ^= static_cast<uint8_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0x82f63b78u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

using Crc32cKernel = uint32_t (*)(uint32_t, ByteSpan);

uint32_t RunKernel(Crc32cKernel kernel, ByteSpan data) {
  return ~kernel(0xffffffffu, data);
}

Bytes RandomBytes(Rng& rng, size_t n) {
  Bytes out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng.NextU64());
  return out;
}

// Every length 0-64 (each tail length after whole words), random lengths up
// to 5000, all 8 start alignments, and incremental updates split at random
// points, each against the bitwise reference.
void ExpectKernelMatchesReference(Crc32cKernel kernel) {
  Rng rng(0xc5c32);
  for (size_t n = 0; n <= 64; ++n) {
    const Bytes data = RandomBytes(rng, n);
    EXPECT_EQ(RunKernel(kernel, data), BitwiseCrc32c(data)) << "len " << n;
  }
  for (int i = 0; i < 200; ++i) {
    const Bytes data = RandomBytes(rng, rng.NextBounded(5001));
    EXPECT_EQ(RunKernel(kernel, data), BitwiseCrc32c(data))
        << "len " << data.size();
  }
  const Bytes buf = RandomBytes(rng, 1100);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t n : {0, 1, 7, 8, 9, 31, 64, 1000}) {
      const ByteSpan span(buf.data() + align, n);
      EXPECT_EQ(RunKernel(kernel, span), BitwiseCrc32c(span))
          << "align " << align << " len " << n;
    }
  }
  for (int i = 0; i < 200; ++i) {
    const Bytes data = RandomBytes(rng, rng.NextBounded(2001));
    const ByteSpan all(data);
    const size_t a = rng.NextBounded(data.size() + 1);
    const size_t b = a + rng.NextBounded(data.size() - a + 1);
    uint32_t state = 0xffffffffu;
    state = kernel(state, all.subspan(0, a));
    state = kernel(state, all.subspan(a, b - a));
    state = kernel(state, all.subspan(b));
    EXPECT_EQ(~state, BitwiseCrc32c(data))
        << "len " << data.size() << " splits " << a << "," << b;
  }
}

TEST(Crc32cKernel, TableMatchesBitwiseReference) {
  ExpectKernelMatchesReference(&internal::Crc32cTable);
}

TEST(Crc32cKernel, HardwareMatchesBitwiseReference) {
  if (!internal::HasHardwareCrc32c()) {
    GTEST_SKIP() << "CPU has no SSE4.2 crc32 instruction";
  }
  ExpectKernelMatchesReference(&internal::Crc32cHardware);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, BoundedStaysInBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.NextBounded(17), 17u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkIsIndependent) {
  Rng a(11);
  Rng b = a.Fork();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(Rng, NormalMeanRoughlyCorrect) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.NextNormal(100.0, 10.0);
  EXPECT_NEAR(sum / 20000, 100.0, 1.0);
}

TEST(Zipf, UniformWhenThetaZero) {
  Rng rng(17);
  ZipfSampler z(100, 0.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) counts[z.Sample(rng)]++;
  for (int c : counts) EXPECT_GT(c, 500);
}

TEST(Zipf, SkewedWhenThetaHigh) {
  Rng rng(19);
  ZipfSampler z(10000, 0.99);
  int head = 0;
  for (int i = 0; i < 100000; ++i) {
    if (z.Sample(rng) < 100) ++head;
  }
  // With theta=0.99, the top 1% of keys should absorb a large share.
  EXPECT_GT(head, 40000);
}

TEST(Zipf, AlwaysInRange) {
  Rng rng(23);
  ZipfSampler z(50, 0.9);
  for (int i = 0; i < 50000; ++i) EXPECT_LT(z.Sample(rng), 50u);
}

TEST(Histogram, PercentilesOrdered) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 10000);
  int64_t p50 = h.Percentile(0.5);
  int64_t p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_NEAR(double(p50), 5000.0, 500.0);
  EXPECT_NEAR(double(p99), 9900.0, 600.0);
}

TEST(Histogram, MinMaxMean) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(1);
  for (int i = 0; i < 100; ++i) b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200);
  EXPECT_EQ(a.min(), 1);
  EXPECT_EQ(a.max(), 1000000);
}

TEST(Histogram, LargeValues) {
  Histogram h;
  h.Record(int64_t{1} << 40);
  EXPECT_GT(h.Percentile(0.5), int64_t{1} << 39);
}

TEST(Histogram, ResolvesTightLatencyDistributions) {
  // Regression for the fig07 percentile collapse: with 16 sub-buckets per
  // log2 range (~6.25% resolution), every sample of a realistic CPU-per-op
  // distribution clustered around ~11.5us landed in ONE bucket and
  // p50 == p90 == p99. 64 sub-buckets (~1.6%) must keep the tail separated.
  Histogram h;
  for (int i = 0; i < 9000; ++i) h.Record(11200 + (i % 400));   // body
  for (int i = 0; i < 800; ++i) h.Record(12400 + (i % 300));    // shoulder
  for (int i = 0; i < 200; ++i) h.Record(14000 + (i * 5) % 1000);  // tail
  const int64_t p50 = h.Percentile(0.5);
  const int64_t p90 = h.Percentile(0.9);
  const int64_t p99 = h.Percentile(0.99);
  EXPECT_LT(p50, p90);
  EXPECT_LT(p90, p99);
  // Bucket midpoints stay within ~2% of the true sample quantiles.
  EXPECT_NEAR(double(p50), 11400.0, 250.0);
  EXPECT_NEAR(double(p99), 14500.0, 350.0);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.99), 0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean(), 0.0);
}

}  // namespace
}  // namespace cm
