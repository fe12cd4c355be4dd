#include "common/hash.h"

#include <cstring>

namespace cm {
namespace {

// 64-bit avalanche finalizer (splitmix64 constants).
uint64_t Avalanche(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// One FNV-1a style step with a strong finisher per 8-byte block.
uint64_t Absorb(uint64_t h, uint64_t block) {
  return Avalanche(h ^ block) * kFnvPrime;
}

}  // namespace

Hash128 HashKey(std::string_view key) {
  // Two independently-seeded passes over the same blocks, run in one loop
  // so their dependency chains overlap.
  const uint64_t len_mix = key.size() * kFnvPrime;
  uint64_t hi = 0x243f6a8885a308d3ull ^ len_mix;
  uint64_t lo = 0x13198a2e03707344ull ^ len_mix;
  size_t i = 0;
  while (i + 8 <= key.size()) {
    uint64_t block;
    std::memcpy(&block, key.data() + i, 8);
    hi = Absorb(hi, block);
    lo = Absorb(lo, block);
    i += 8;
  }
  const size_t rem = key.size() - i;
  if (rem > 0) {
    uint64_t tail = 0;
    std::memcpy(&tail, key.data() + i, rem);
    tail ^= uint64_t{rem} << 56;
    hi = Absorb(hi, tail);
    lo = Absorb(lo, tail);
  }
  return Hash128{.hi = Avalanche(hi), .lo = Avalanche(lo)};
}

uint64_t Mix64(uint64_t x) { return Avalanche(x + 0x9e3779b97f4a7c15ull); }

}  // namespace cm
