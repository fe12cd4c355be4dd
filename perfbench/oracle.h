// Correctness oracle for the end-to-end benchmark.
//
// Every value the benchmark writes describes itself: a header naming the
// key index, the writer tag of the Set that produced it and its length,
// followed by a body derived from (key index, writer tag). A hit can
// therefore be checked byte for byte without the oracle storing values.
//
// Rules (a violation fails the run):
//  * Integrity: every hit byte-equals a value that some Set to *that* key
//    was invoked with. A Set is recorded when it is invoked, so a Set that
//    later failed or timed out counts as possibly applied.
//  * No rollback: for each (client, key), a read's version is >= the
//    highest version that client had completed reading before this read
//    was invoked. Reads that overlap may complete in any order.
//  * Misses are legal (eviction, associativity conflicts).
#ifndef CM_PERFBENCH_ORACLE_H_
#define CM_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cliquemap/types.h"
#include "common/bytes.h"

namespace perfbench {

// Value header: magic u32 | length u32 | key index u64 | writer tag u64.
inline constexpr size_t kValueHeaderBytes = 24;

// Writer tag of the `seq`-th Set issued by `writer` (0 = preload).
inline uint64_t WriterTag(uint32_t writer, uint32_t seq) {
  return (uint64_t{writer} << 32) | seq;
}

// The value a Set of `key` by writer `tag` stores; `len` is clamped up to
// the header size.
cm::Bytes MakeValue(uint64_t key, uint64_t tag, uint32_t len);

class Oracle {
 public:
  Oracle(int num_clients, uint64_t num_keys);

  // Records that a Set of `key` with MakeValue(key, tag, len) was invoked.
  void SetInvoked(uint64_t key, uint64_t tag, uint32_t len);

  // The rollback floor for a read of `key` by `client` invoked now.
  const cm::cliquemap::VersionNumber& Floor(int client, uint64_t key) const {
    return completed_[static_cast<size_t>(client)][key];
  }

  // Checks a hit of `key` by `client` whose read was invoked with `floor`.
  // Returns false (and counts the violation) if either rule is broken.
  bool CheckHit(int client, uint64_t key,
                const cm::cliquemap::VersionNumber& floor,
                cm::ByteSpan value,
                const cm::cliquemap::VersionNumber& version);

  int64_t integrity_violations() const { return integrity_violations_; }
  int64_t rollback_violations() const { return rollback_violations_; }
  int64_t hits_checked() const { return hits_checked_; }
  const std::string& first_violation() const { return first_violation_; }

 private:
  bool ValueWasWritten(uint64_t key, cm::ByteSpan value) const;
  void Violation(std::string what);

  struct TagKey {
    uint64_t key;
    uint64_t tag;
    friend bool operator==(const TagKey&, const TagKey&) = default;
  };
  struct TagKeyHash {
    size_t operator()(const TagKey& k) const noexcept {
      return static_cast<size_t>(k.key * 0x9E3779B97F4A7C15ull ^ k.tag);
    }
  };
  // (key, writer tag) -> value length, for every Set ever invoked.
  std::unordered_map<TagKey, uint32_t, TagKeyHash> written_;
  // Highest completed read version, per client, per key.
  std::vector<std::vector<cm::cliquemap::VersionNumber>> completed_;
  int64_t integrity_violations_ = 0;
  int64_t rollback_violations_ = 0;
  int64_t hits_checked_ = 0;
  std::string first_violation_;
};

// Feeds the oracle a flipped byte, another key's value and a rolled-back
// version (each must be flagged) and overlapping reads completing out of
// order (must pass). Returns an empty string on success, else what failed.
std::string OracleSelfTest();

}  // namespace perfbench

#endif  // CM_PERFBENCH_ORACLE_H_
