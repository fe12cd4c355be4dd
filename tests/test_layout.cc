#include <gtest/gtest.h>

#include "cliquemap/layout.h"

namespace cm::cliquemap {
namespace {

TEST(VersionNumber, TotalOrder) {
  VersionNumber a{100, 1, 1};
  VersionNumber b{100, 1, 2};
  VersionNumber c{100, 2, 1};
  VersionNumber d{101, 0, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);  // client id breaks TrueTime ties
  EXPECT_LT(c, d);  // TrueTime dominates
  EXPECT_TRUE(VersionNumber{}.is_zero());
  EXPECT_FALSE(a.is_zero());
}

TEST(IndexEntry, RoundTrip) {
  IndexEntry e;
  e.keyhash = Hash128{0x1122334455667788ull, 0x99aabbccddeeff00ull};
  e.version = VersionNumber{123456789, 42, 7};
  e.pointer = Pointer{3, 4096, 0xdeadbeef};
  std::byte buf[kIndexEntrySize];
  EncodeIndexEntry(MutableByteSpan(buf, sizeof(buf)), e);
  IndexEntry d = DecodeIndexEntry(ByteSpan(buf, sizeof(buf)));
  EXPECT_EQ(d, e);
}

TEST(IndexEntry, ZeroHashMeansEmpty) {
  std::byte buf[kIndexEntrySize] = {};
  EXPECT_TRUE(DecodeIndexEntry(ByteSpan(buf, sizeof(buf))).empty());
}

TEST(BucketHeader, RoundTripAndOverflowFlag) {
  std::byte buf[kBucketHeaderSize];
  EncodeBucketHeader(MutableByteSpan(buf, sizeof(buf)),
                     BucketHeader{777, true});
  BucketHeader h = DecodeBucketHeader(ByteSpan(buf, sizeof(buf)));
  EXPECT_EQ(h.config_id, 777u);
  EXPECT_TRUE(h.overflow);
  EncodeBucketHeader(MutableByteSpan(buf, sizeof(buf)),
                     BucketHeader{778, false});
  EXPECT_FALSE(DecodeBucketHeader(ByteSpan(buf, sizeof(buf))).overflow);
}

TEST(BucketLayout, SizeArithmetic) {
  EXPECT_EQ(BucketBytes(20), 16u + 20u * 48u);  // ~1KB buckets (paper)
}

TEST(DataEntry, RoundTripWithChecksum) {
  const std::string key = "the-key";
  const Bytes value = ToBytes("the-value-payload");
  const Hash128 hash = HashKey(key);
  const VersionNumber version{55, 6, 7};
  Bytes buf(DataEntryBytes(key.size(), value.size()));
  EncodeDataEntry(buf, key, value, hash, version);

  auto view = DecodeDataEntry(buf);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->key, key);
  EXPECT_EQ(ToString(view->value), "the-value-payload");
  EXPECT_EQ(view->keyhash, hash);
  EXPECT_EQ(view->version, version);
}

// Pins the wire bytes, CRC included, so neither a different polynomial nor
// a change in the range the CRC covers ([8, 40+key+value)) can pass. The
// covered range is 55 bytes: six whole words plus a 7-byte tail.
TEST(DataEntry, GoldenEncoding) {
  const std::string key = "golden-key";
  Bytes value;
  for (int i = 0; i < 13; ++i) value.push_back(std::byte(0xa0 + i));
  Bytes buf(DataEntryBytes(key.size(), value.size()));
  EncodeDataEntry(buf, key, value,
                  Hash128{0x0123456789abcdefull, 0xfedcba9876543210ull},
                  VersionNumber{0x0000018c2f3e4d5bull, 7, 42});
  const uint8_t kExpected[] = {
      0x0a, 0x00, 0x00, 0x00, 0x0d, 0x00, 0x00, 0x00,  // key_len, value_len
      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // keyhash.hi
      0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe,  // keyhash.lo
      0x5b, 0x4d, 0x3e, 0x2f, 0x8c, 0x01, 0x00, 0x00,  // version.tt_micros
      0x07, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00,  // client_id, seq
      0x67, 0x6f, 0x6c, 0x64, 0x65, 0x6e, 0x2d, 0x6b,  // "golden-k"
      0x65, 0x79,                                      // "ey"
      0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7,  // value
      0xa8, 0xa9, 0xaa, 0xab, 0xac,                    //
      0x4b, 0xb1, 0xc9, 0xfa,                          // crc32c 0xfac9b14b
  };
  ASSERT_EQ(buf.size(), sizeof(kExpected));
  for (size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(static_cast<uint8_t>(buf[i]), kExpected[i]) << "byte " << i;
  }
}

TEST(DataEntry, EmptyKeyAndValue) {
  Bytes buf(DataEntryBytes(0, 0));
  EncodeDataEntry(buf, "", {}, Hash128{1, 2}, VersionNumber{1, 1, 1});
  auto view = DecodeDataEntry(buf);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->key.empty());
  EXPECT_TRUE(view->value.empty());
}

TEST(DataEntry, TornValueFailsChecksum) {
  const std::string key = "k";
  const Bytes value = ToBytes("vvvvvvvvvvvvvvvv");
  Bytes buf(DataEntryBytes(key.size(), value.size()));
  EncodeDataEntry(buf, key, value, HashKey(key), VersionNumber{1, 1, 1});
  buf[kDataEntryHeaderSize + 3] ^= std::byte{0xff};  // tear a value byte
  auto view = DecodeDataEntry(buf);
  EXPECT_EQ(view.status().code(), StatusCode::kAborted);
}

TEST(DataEntry, TornVersionFailsChecksum) {
  Bytes buf(DataEntryBytes(1, 4));
  EncodeDataEntry(buf, "k", ToBytes("val!"), HashKey("k"),
                  VersionNumber{9, 9, 9});
  buf[24] ^= std::byte{0x01};  // flip a version bit
  EXPECT_EQ(DecodeDataEntry(buf).status().code(), StatusCode::kAborted);
}

TEST(DataEntry, TruncatedBufferAborts) {
  Bytes buf(DataEntryBytes(3, 10));
  EncodeDataEntry(buf, "abc", ToBytes("0123456789"), HashKey("abc"),
                  VersionNumber{1, 1, 1});
  ByteSpan truncated = ByteSpan(buf).first(buf.size() - 5);
  EXPECT_EQ(DecodeDataEntry(truncated).status().code(), StatusCode::kAborted);
}

TEST(DataEntry, GarbageLengthsAbortSafely) {
  Bytes buf(64, std::byte{0xff});  // klen/vlen decode as huge
  EXPECT_EQ(DecodeDataEntry(buf).status().code(), StatusCode::kAborted);
}

TEST(DataEntry, RewriteVersionKeepsChecksumValid) {
  const std::string key = "bump-me";
  const Bytes value = ToBytes("payload");
  Bytes buf(DataEntryBytes(key.size(), value.size()));
  EncodeDataEntry(buf, key, value, HashKey(key), VersionNumber{1, 1, 1});

  const VersionNumber fresh{999, 8, 3};
  ASSERT_TRUE(RewriteDataEntryVersion(buf, fresh).ok());
  auto view = DecodeDataEntry(buf);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->version, fresh);
  EXPECT_EQ(view->key, key);  // payload untouched
}

TEST(DataEntry, RewriteVersionOnTornEntryFails) {
  Bytes buf(DataEntryBytes(1, 4));
  EncodeDataEntry(buf, "k", ToBytes("val!"), HashKey("k"),
                  VersionNumber{1, 1, 1});
  buf[45] ^= std::byte{0x10};
  EXPECT_FALSE(RewriteDataEntryVersion(buf, VersionNumber{2, 2, 2}).ok());
}

TEST(Placement, ReplicasAreAdjacentModN) {
  // §5.1: copies on physical backends i, i+1, i+2 (all mod N).
  Hash128 h = HashKey("some-key");
  const uint32_t n = 10;
  uint32_t p = PrimaryShard(h, n);
  EXPECT_EQ(ReplicaShard(p, 0, n), p);
  EXPECT_EQ(ReplicaShard(p, 1, n), (p + 1) % n);
  EXPECT_EQ(ReplicaShard(p, 2, n), (p + 2) % n);
}

TEST(Placement, BucketIndexStableUnderSameSize) {
  Hash128 h = HashKey("bucket-key");
  EXPECT_EQ(BucketIndex(h, 64), BucketIndex(h, 64));
  // Different index sizes map differently (resize moves keys).
  bool any_diff = false;
  for (int i = 0; i < 32 && !any_diff; ++i) {
    Hash128 hh = HashKey("k" + std::to_string(i));
    any_diff = BucketIndex(hh, 64) != BucketIndex(hh, 128) % 64;
  }
  SUCCEED();
}

TEST(Modes, ReplicaAndQuorumCounts) {
  EXPECT_EQ(ReplicaCount(ReplicationMode::kR1), 1);
  EXPECT_EQ(ReplicaCount(ReplicationMode::kR2Immutable), 2);
  EXPECT_EQ(ReplicaCount(ReplicationMode::kR32), 3);
  EXPECT_EQ(QuorumSize(ReplicationMode::kR32), 2);
  EXPECT_EQ(QuorumSize(ReplicationMode::kR1), 1);
  EXPECT_EQ(QuorumSize(ReplicationMode::kR2Immutable), 1);
}

}  // namespace
}  // namespace cm::cliquemap
