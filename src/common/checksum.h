// CRC32C checksums guarding each KV pair (paper §3, "Self-Validating
// Responses"): since RMAs are not atomic, every DataEntry carries a checksum
// over key, value, and metadata, verified end-to-end by clients. Validation
// failures are attributed to torn reads and retried.
#ifndef CM_COMMON_CHECKSUM_H_
#define CM_COMMON_CHECKSUM_H_

#include <cstdint>

#include "common/bytes.h"

namespace cm {

// Incremental CRC32C (Castagnoli) computation. Uses the x86 SSE4.2 `crc32`
// instruction when the CPU has it (checked once at start-up) and a bytewise
// table loop otherwise; both produce identical values.
class Crc32c {
 public:
  Crc32c() = default;

  Crc32c& Update(ByteSpan data);
  Crc32c& UpdateU32(uint32_t v);
  Crc32c& UpdateU64(uint64_t v);

  // Finalized CRC value.
  uint32_t value() const { return ~state_; }

 private:
  uint32_t state_ = 0xffffffffu;
};

uint32_t ComputeCrc32c(ByteSpan data);

namespace internal {

// The two kernels behind Crc32c::Update, exposed so tests can check each one
// whichever the CPU dispatches to. Both advance a raw (un-inverted) state.
uint32_t Crc32cTable(uint32_t state, ByteSpan data);

// True when Crc32cHardware may be called on this CPU.
bool HasHardwareCrc32c();

// Only callable when HasHardwareCrc32c().
uint32_t Crc32cHardware(uint32_t state, ByteSpan data);

}  // namespace internal
}  // namespace cm

#endif  // CM_COMMON_CHECKSUM_H_
