#include "common/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace cm {
namespace {

constexpr uint32_t kCrc32cPoly = 0x82f63b78u;  // reflected Castagnoli

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kCrc32cPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = MakeTable();

bool DetectSse42() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

// Decided once at static init. Should a checksum run during another
// translation unit's static init before this one, the flag still reads
// false and the table path gives the same value.
const bool kUseHardware = DetectSse42();

}  // namespace

namespace internal {

uint32_t Crc32cTable(uint32_t state, ByteSpan data) {
  for (std::byte b : data) {
    state = (state >> 8) ^ kTable[(state ^ static_cast<uint8_t>(b)) & 0xffu];
  }
  return state;
}

bool HasHardwareCrc32c() { return kUseHardware; }

#if defined(__x86_64__)
// The `crc32` instruction implements the same reflected Castagnoli step as
// the table; a 64-bit operand consumes its bytes in little-endian (memory)
// order, so word-at-a-time and byte-at-a-time agree.
__attribute__((target("sse4.2")))
uint32_t Crc32cHardware(uint32_t state, ByteSpan data) {
  const std::byte* p = data.data();
  size_t n = data.size();
  uint64_t crc = state;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  state = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    state = _mm_crc32_u8(state, static_cast<uint8_t>(*p));
  }
  return state;
}
#else
// Never dispatched to off x86 (HasHardwareCrc32c() is false); defined so
// the internal interface links everywhere.
uint32_t Crc32cHardware(uint32_t state, ByteSpan data) {
  return Crc32cTable(state, data);
}
#endif

}  // namespace internal

Crc32c& Crc32c::Update(ByteSpan data) {
  state_ = kUseHardware ? internal::Crc32cHardware(state_, data)
                        : internal::Crc32cTable(state_, data);
  return *this;
}

Crc32c& Crc32c::UpdateU32(uint32_t v) {
  std::byte buf[4];
  StoreU32(buf, v);
  return Update(ByteSpan(buf, 4));
}

Crc32c& Crc32c::UpdateU64(uint64_t v) {
  std::byte buf[8];
  StoreU64(buf, v);
  return Update(ByteSpan(buf, 8));
}

uint32_t ComputeCrc32c(ByteSpan data) { return Crc32c().Update(data).value(); }

}  // namespace cm
