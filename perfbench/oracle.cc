#include "oracle.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

using cm::ByteSpan;
using cm::Bytes;
using cm::cliquemap::VersionNumber;

namespace {

constexpr uint32_t kMagic = 0x42504D43;  // "CMPB"

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t BodySeed(uint64_t key, uint64_t tag) {
  return key * 0xD6E8FEB86659FD93ull ^ (tag + 0x632BE59BD9B4E019ull);
}

// Writes the body of MakeValue(key, tag, ...) into out[0, n).
void FillBody(uint64_t key, uint64_t tag, std::byte* out, size_t n) {
  uint64_t state = BodySeed(key, tag);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) cm::StoreU64(out + i, SplitMix(state));
  if (i < n) {
    const uint64_t last = SplitMix(state);
    std::memcpy(out + i, &last, n - i);
  }
}

// True when in[0, n) equals the body of MakeValue(key, tag, ...).
bool BodyMatches(uint64_t key, uint64_t tag, const std::byte* in, size_t n) {
  uint64_t state = BodySeed(key, tag);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    if (cm::LoadU64(in + i) != SplitMix(state)) return false;
  }
  if (i < n) {
    const uint64_t last = SplitMix(state);
    return std::memcmp(in + i, &last, n - i) == 0;
  }
  return true;
}

}  // namespace

Bytes MakeValue(uint64_t key, uint64_t tag, uint32_t len) {
  len = std::max<uint32_t>(len, kValueHeaderBytes);
  Bytes v(len);
  cm::StoreU32(v.data(), kMagic);
  cm::StoreU32(v.data() + 4, len);
  cm::StoreU64(v.data() + 8, key);
  cm::StoreU64(v.data() + 16, tag);
  FillBody(key, tag, v.data() + kValueHeaderBytes, len - kValueHeaderBytes);
  return v;
}

Oracle::Oracle(int num_clients, uint64_t num_keys)
    : completed_(static_cast<size_t>(num_clients),
                 std::vector<VersionNumber>(num_keys)) {}

void Oracle::SetInvoked(uint64_t key, uint64_t tag, uint32_t len) {
  written_[TagKey{key, tag}] = std::max<uint32_t>(len, kValueHeaderBytes);
}

bool Oracle::ValueWasWritten(uint64_t key, ByteSpan value) const {
  if (value.size() < kValueHeaderBytes) return false;
  const std::byte* p = value.data();
  if (cm::LoadU32(p) != kMagic || cm::LoadU32(p + 4) != value.size() ||
      cm::LoadU64(p + 8) != key) {
    return false;
  }
  const uint64_t tag = cm::LoadU64(p + 16);
  auto it = written_.find(TagKey{key, tag});
  if (it == written_.end() || it->second != value.size()) return false;
  return BodyMatches(key, tag, p + kValueHeaderBytes,
                     value.size() - kValueHeaderBytes);
}

void Oracle::Violation(std::string what) {
  if (first_violation_.empty()) first_violation_ = std::move(what);
}

bool Oracle::CheckHit(int client, uint64_t key, const VersionNumber& floor,
                      ByteSpan value, const VersionNumber& version) {
  ++hits_checked_;
  bool ok = true;
  if (!ValueWasWritten(key, value)) {
    ++integrity_violations_;
    Violation("integrity: key " + std::to_string(key) + " returned " +
              std::to_string(value.size()) + " bytes no Set wrote");
    ok = false;
  }
  if (version < floor) {
    ++rollback_violations_;
    Violation("rollback: client " + std::to_string(client) + " key " +
              std::to_string(key) + " read " + version.ToString() +
              " after completing " + floor.ToString());
    ok = false;
  }
  VersionNumber& done = completed_[static_cast<size_t>(client)][key];
  done = std::max(done, version);
  return ok;
}

std::string OracleSelfTest() {
  const VersionNumber v1{100, 1, 1};
  const VersionNumber v2{200, 1, 2};
  const VersionNumber zero{};

  // Clean history: a correct hit must pass.
  {
    Oracle o(1, 4);
    o.SetInvoked(1, WriterTag(1, 1), 100);
    const Bytes good = MakeValue(1, WriterTag(1, 1), 100);
    if (!o.CheckHit(0, 1, o.Floor(0, 1), good, v1)) {
      return "a correct hit was flagged: " + o.first_violation();
    }
  }
  // A flipped byte anywhere in the body.
  {
    Oracle o(1, 4);
    o.SetInvoked(1, WriterTag(1, 1), 100);
    Bytes bad = MakeValue(1, WriterTag(1, 1), 100);
    bad[77] ^= std::byte{0x01};
    if (o.CheckHit(0, 1, o.Floor(0, 1), bad, v1) ||
        o.integrity_violations() != 1) {
      return "a flipped byte was not flagged";
    }
  }
  // Another key's value, itself well-formed and really written.
  {
    Oracle o(1, 4);
    o.SetInvoked(1, WriterTag(1, 1), 100);
    o.SetInvoked(2, WriterTag(1, 2), 100);
    const Bytes other = MakeValue(2, WriterTag(1, 2), 100);
    if (o.CheckHit(0, 1, o.Floor(0, 1), other, v1) ||
        o.integrity_violations() != 1) {
      return "another key's value was not flagged";
    }
  }
  // A value whose Set was never invoked.
  {
    Oracle o(1, 4);
    o.SetInvoked(1, WriterTag(1, 1), 100);
    const Bytes never = MakeValue(1, WriterTag(1, 9), 100);
    if (o.CheckHit(0, 1, o.Floor(0, 1), never, v1)) {
      return "a never-written value was not flagged";
    }
  }
  // Rolled-back version: v2 completed, then a later read returns v1.
  {
    Oracle o(1, 4);
    o.SetInvoked(1, WriterTag(1, 1), 100);
    const Bytes good = MakeValue(1, WriterTag(1, 1), 100);
    (void)o.CheckHit(0, 1, o.Floor(0, 1), good, v2);
    if (o.CheckHit(0, 1, o.Floor(0, 1), good, v1) ||
        o.rollback_violations() != 1) {
      return "a rolled-back version was not flagged";
    }
  }
  // Overlapping reads: both invoked before either completed; the later one
  // to complete carries the older version. Legal.
  {
    Oracle o(1, 4);
    o.SetInvoked(1, WriterTag(1, 1), 100);
    const Bytes good = MakeValue(1, WriterTag(1, 1), 100);
    const VersionNumber floor_a = o.Floor(0, 1);
    const VersionNumber floor_b = o.Floor(0, 1);
    const bool b_ok = o.CheckHit(0, 1, floor_b, good, v2);
    const bool a_ok = o.CheckHit(0, 1, floor_a, good, v1);
    if (!a_ok || !b_ok || floor_a != zero) {
      return "overlapping reads completing out of order were flagged: " +
             o.first_violation();
    }
  }
  return "";
}

}  // namespace perfbench
