// Protocol codec tests: packed record formats and the cell-view codec,
// including forward/backward-compat properties.
#include <gtest/gtest.h>

#include "cliquemap/config_service.h"
#include "cliquemap/proto.h"

namespace cm::cliquemap::proto {
namespace {

TEST(RepairRecords, RoundTrip) {
  Bytes blob;
  std::vector<RepairRecord> in;
  for (int i = 0; i < 10; ++i) {
    RepairRecord r;
    r.keyhash = HashKey("k" + std::to_string(i));
    r.version = VersionNumber{uint64_t(100 + i), uint32_t(i), uint32_t(i * 2)};
    r.erased = (i % 3) == 0;
    in.push_back(r);
    AppendRepairRecord(blob, r);
  }
  EXPECT_EQ(blob.size(), 10 * kRepairRecordBytes);
  auto out = ParseRepairRecords(blob);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ((*out)[i].keyhash, in[i].keyhash);
    EXPECT_EQ((*out)[i].version, in[i].version);
    EXPECT_EQ((*out)[i].erased, in[i].erased);
  }
}

// The record decoders are strict: a blob that is not an exact sequence of
// whole records is rejected, never decoded as a shortened list.

Bytes RepairBlob(int n) {
  Bytes blob;
  for (int i = 0; i < n; ++i) {
    AppendRepairRecord(blob, RepairRecord{HashKey("r" + std::to_string(i)),
                                          {uint64_t(i + 1), 1, 1}, false});
  }
  return blob;
}

TEST(RepairRecords, EmptyAndExactMultiplesParse) {
  for (int n : {0, 1, 2, 7}) {
    auto out = ParseRepairRecords(RepairBlob(n));
    ASSERT_TRUE(out.ok()) << n;
    EXPECT_EQ(out->size(), size_t(n));
  }
}

TEST(RepairRecords, RejectsTruncatedLastRecord) {
  const Bytes whole = RepairBlob(3);
  for (size_t cut = 1; cut < kRepairRecordBytes; ++cut) {
    Bytes blob(whole.begin(), whole.end() - ptrdiff_t(cut));
    EXPECT_FALSE(ParseRepairRecords(blob).ok()) << "cut " << cut;
  }
}

TEST(RepairRecords, RejectsTrailingBytes) {
  for (size_t extra = 1; extra <= 32; ++extra) {
    Bytes blob = RepairBlob(2);
    blob.resize(blob.size() + extra, std::byte{0xAB});
    EXPECT_FALSE(ParseRepairRecords(blob).ok()) << "extra " << extra;
  }
}

TEST(TouchRecords, RoundTrip) {
  Bytes blob;
  std::vector<Hash128> in;
  for (int i = 0; i < 64; ++i) {
    in.push_back(HashKey("t" + std::to_string(i)));
    AppendTouchRecord(blob, in.back());
  }
  auto out = ParseTouchRecords(blob);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) EXPECT_EQ((*out)[i], in[i]);
}

TEST(TouchRecords, EmptyParses) {
  auto out = ParseTouchRecords(ByteSpan());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(TouchRecords, RejectsPartialRecords) {
  Bytes whole;
  for (int i = 0; i < 3; ++i) AppendTouchRecord(whole, HashKey("t"));
  for (size_t cut = 1; cut < kTouchRecordBytes; ++cut) {
    Bytes blob(whole.begin(), whole.end() - ptrdiff_t(cut));
    EXPECT_FALSE(ParseTouchRecords(blob).ok()) << "cut " << cut;
  }
  // Trailing bytes: a whole multiple of the record size is more records,
  // anything else is a partial one.
  for (size_t extra = 1; extra <= 32; ++extra) {
    Bytes blob = whole;
    blob.resize(blob.size() + extra, std::byte{0xAB});
    auto out = ParseTouchRecords(blob);
    if (extra % kTouchRecordBytes == 0) {
      ASSERT_TRUE(out.ok()) << "extra " << extra;
      EXPECT_EQ(out->size(), 3 + extra / kTouchRecordBytes);
    } else {
      EXPECT_FALSE(out.ok()) << "extra " << extra;
    }
  }
}

TEST(BulkRecords, RoundTripMixed) {
  Bytes blob;
  AppendBulkRecord(blob, "live-key", AsByteSpan("payload"),
                   VersionNumber{5, 6, 7});
  AppendBulkRecord(blob, "erased-key", {}, VersionNumber{9, 9, 9}, true);
  AppendBulkRecord(blob, "", {}, VersionNumber{100, 0, 0}, true);  // summary
  auto out = ParseBulkRecords(blob);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[0].key, "live-key");
  EXPECT_EQ(ToString((*out)[0].value), "payload");
  EXPECT_FALSE((*out)[0].erased);
  EXPECT_TRUE((*out)[1].erased);
  EXPECT_TRUE((*out)[2].key.empty());
  EXPECT_EQ((*out)[2].version.tt_micros, 100u);
}

TEST(BulkRecords, EmptyAndHugeValues) {
  auto none = ParseBulkRecords(ByteSpan());
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  Bytes blob;
  Bytes big(100000, std::byte{0x77});
  AppendBulkRecord(blob, "big", big, VersionNumber{1, 1, 1});
  auto out = ParseBulkRecords(blob);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value.size(), big.size());
}

Bytes BulkBlob() {
  Bytes blob;
  AppendBulkRecord(blob, "first", AsByteSpan("one"), VersionNumber{1, 1, 1});
  AppendBulkRecord(blob, "second", AsByteSpan("two!"), VersionNumber{2, 2, 2});
  return blob;
}

TEST(BulkRecords, RejectsTruncatedLastRecord) {
  const Bytes whole = BulkBlob();
  const size_t last = 25 + 6 + 4;  // header + "second" + "two!"
  for (size_t cut = 1; cut < last; ++cut) {
    Bytes blob(whole.begin(), whole.end() - ptrdiff_t(cut));
    EXPECT_FALSE(ParseBulkRecords(blob).ok()) << "cut " << cut;
  }
}

TEST(BulkRecords, RejectsLengthsThatOverrunTheBlob) {
  // The second record's klen (offset 0 of its header), then its vlen
  // (offset 4), each claim one byte more than the blob holds.
  const size_t second = 25 + 5 + 3;
  for (size_t field : {size_t(0), size_t(4)}) {
    Bytes blob = BulkBlob();
    const uint32_t len = LoadU32(blob.data() + second + field);
    StoreU32(blob.data() + second + field, len + 1);
    EXPECT_FALSE(ParseBulkRecords(blob).ok()) << "field " << field;
    // A length near 2^32 must not wrap the bounds check.
    StoreU32(blob.data() + second + field, 0xFFFFFFFFu);
    EXPECT_FALSE(ParseBulkRecords(blob).ok()) << "field " << field;
  }
}

TEST(BulkRecords, RejectsTrailingBytes) {
  for (size_t extra = 1; extra <= 32; ++extra) {
    Bytes blob = BulkBlob();
    blob.resize(blob.size() + extra, std::byte{0xAB});
    EXPECT_FALSE(ParseBulkRecords(blob).ok()) << "extra " << extra;
  }
}

TEST(VersionCodec, PutGetRoundTrip) {
  rpc::WireWriter w;
  PutVersion(w, VersionNumber{0xDEADBEEF12345678ull, 42, 7});
  PutVersion(w, VersionNumber{1, 2, 3}, kTagExpectedTt);
  rpc::WireReader r(w.bytes());
  auto v = GetVersion(r);
  auto e = GetVersion(r, kTagExpectedTt);
  ASSERT_TRUE(v && e);
  EXPECT_EQ(v->tt_micros, 0xDEADBEEF12345678ull);
  EXPECT_EQ(e->seq, 3u);
}

TEST(VersionCodec, MissingFieldsAreNullopt) {
  rpc::WireWriter w;
  w.PutU64(kTagVersionTt, 1);  // client/seq absent
  rpc::WireReader r(w.bytes());
  EXPECT_FALSE(GetVersion(r).has_value());
}

TEST(CellViewCodec, RoundTrip) {
  CellView v;
  v.generation = 17;
  v.mode = ReplicationMode::kR32;
  v.shard_hosts = {5, 9, 13, 2};
  v.shard_config_ids = {1001, 2002, 3003, 4004};
  auto decoded = DecodeCellView(EncodeCellView(v));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->generation, 17u);
  EXPECT_EQ(decoded->mode, ReplicationMode::kR32);
  EXPECT_EQ(decoded->shard_hosts, v.shard_hosts);
  EXPECT_EQ(decoded->shard_config_ids, v.shard_config_ids);
}

TEST(CellViewCodec, ForwardCompatWithExtraFields) {
  // A future config service appends fields old clients don't know.
  CellView v;
  v.generation = 1;
  v.mode = ReplicationMode::kR1;
  v.shard_hosts = {3};
  v.shard_config_ids = {99};
  Bytes encoded = EncodeCellView(v);
  rpc::WireWriter extra;
  extra.PutString(500, "future shard attribute");
  Bytes combined = encoded;
  combined.insert(combined.end(), extra.bytes().begin(), extra.bytes().end());
  auto decoded = DecodeCellView(combined);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shard_hosts, v.shard_hosts);
}

TEST(CellViewCodec, TransitionRoundTripAndUnknownTagSkipping) {
  CellView v;
  v.generation = 9;
  v.mode = ReplicationMode::kR32;
  v.shard_hosts = {1, 2, 3, 4, 5};
  v.shard_config_ids = {11, 22, 33, 44, 55};
  v.transition = true;
  v.prev_mode = ReplicationMode::kR1;
  v.prev_shard_hosts = {1, 2, 3};
  v.prev_shard_config_ids = {11, 22, 33};

  Bytes encoded = EncodeCellView(v);
  // Future fields appended after the transition block must be skipped.
  rpc::WireWriter extra;
  extra.PutString(777, "future reshard attribute");
  encoded.insert(encoded.end(), extra.bytes().begin(), extra.bytes().end());

  auto decoded = DecodeCellView(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->generation, 9u);
  EXPECT_TRUE(decoded->transition);
  EXPECT_EQ(decoded->prev_mode, ReplicationMode::kR1);
  EXPECT_EQ(decoded->prev_shard_hosts, v.prev_shard_hosts);
  EXPECT_EQ(decoded->prev_shard_config_ids, v.prev_shard_config_ids);
  EXPECT_EQ(decoded->shard_hosts, v.shard_hosts);
}

TEST(CellViewCodec, TransitionPrevListMismatchRejected) {
  // Declares two previous shards but carries only one host/id pair.
  rpc::WireWriter w;
  w.PutU32(kTagGeneration, 3);
  w.PutU32(kTagMode, 0);
  w.PutU32(kTagNumShards, 1);
  w.PutU32(kTagShardHost, 7);
  w.PutU32(kTagShardConfigId, 9);
  w.PutU32(kTagTransition, 1);
  w.PutU32(kTagPrevMode, 0);
  w.PutU32(kTagPrevNumShards, 2);
  w.PutU32(kTagPrevShardHost, 3);
  w.PutU32(kTagPrevShardConfigId, 5);
  EXPECT_FALSE(DecodeCellView(w.bytes()).ok());
}

TEST(CellViewCodec, LegacyPayloadDecodesAsCommitted) {
  // A pre-elasticity encoder never wrote the transition tag; such payloads
  // must decode as a committed (non-transitioning) view.
  rpc::WireWriter w;
  w.PutU32(kTagGeneration, 4);
  w.PutU32(kTagMode, 1);
  w.PutU32(kTagNumShards, 1);
  w.PutU32(kTagShardHost, 6);
  w.PutU32(kTagShardConfigId, 60);
  auto decoded = DecodeCellView(w.bytes());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->transition);
  EXPECT_TRUE(decoded->prev_shard_hosts.empty());
  EXPECT_TRUE(decoded->prev_shard_config_ids.empty());
}

TEST(CellViewCodec, MalformedRejected) {
  EXPECT_FALSE(DecodeCellView(ToBytes("garbage")).ok());
  // Hand-build a view whose shard list is shorter than its declared count.
  rpc::WireWriter w;
  w.PutU32(kTagGeneration, 1);
  w.PutU32(kTagMode, 0);
  w.PutU32(kTagNumShards, 3);
  w.PutU32(kTagShardHost, 7);  // only one of three
  w.PutU32(kTagShardConfigId, 99);
  EXPECT_FALSE(DecodeCellView(w.bytes()).ok());
}

}  // namespace
}  // namespace cm::cliquemap::proto
