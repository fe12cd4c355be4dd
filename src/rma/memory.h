// RMA memory registration.
//
// Backends expose their index and data regions as registered memory windows
// that remote clients read with one-sided operations. Three properties from
// the paper are modeled faithfully:
//
//  * Registration is explicit and revocable. During index reshaping (§4.1)
//    the backend "revokes remote access to the original index"; in-flight
//    and subsequent RMA reads of a revoked window fail with
//    PERMISSION_DENIED and clients fall back to RPC to re-learn the layout.
//  * Windows may overlap: data-region growth registers "a second, larger,
//    overlapping RMA memory window" over the same pool, and clients
//    converge to the new window over time.
//  * The backing pool is virtually contiguous but only partially populated
//    (mmap(PROT_NONE) of the max range, populated on demand): windows are
//    views over a MemorySource whose storage may be chunked and may grow,
//    so simulated DRAM is only consumed for populated bytes.
//
// Reads copy the *live* backend bytes at delivery time, so a read racing a
// mutation observes genuinely torn state.
#ifndef CM_RMA_MEMORY_H_
#define CM_RMA_MEMORY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/status.h"

namespace cm::rma {

using RegionId = uint32_t;
constexpr RegionId kInvalidRegion = 0;

// Abstract byte-addressable backing store for registered windows. The
// source must outlive every live window registered over it.
class MemorySource {
 public:
  virtual ~MemorySource() = default;
  // Copies [offset, offset+length) into dst. The range is guaranteed
  // window-bounds-checked by the registry before this is called.
  virtual Status ReadAt(uint64_t offset, uint32_t length,
                        std::byte* dst) const = 0;
  virtual uint64_t size() const = 0;
};

// Trivial contiguous source over caller-owned bytes (tests, simple users).
class VectorSource final : public MemorySource {
 public:
  explicit VectorSource(std::vector<std::byte>* bytes) : bytes_(bytes) {}
  Status ReadAt(uint64_t offset, uint32_t length,
                std::byte* dst) const override {
    if (offset + length > bytes_->size()) {
      return InvalidArgumentError("read beyond source");
    }
    std::memcpy(dst, bytes_->data() + offset, length);
    return OkStatus();
  }
  uint64_t size() const override { return bytes_->size(); }

 private:
  std::vector<std::byte>* bytes_;
};

class MemoryRegistry {
 public:
  MemoryRegistry() = default;
  MemoryRegistry(const MemoryRegistry&) = delete;
  MemoryRegistry& operator=(const MemoryRegistry&) = delete;

  // Registers a window over [0, size) of `source` and returns its id.
  RegionId Register(const MemorySource* source, uint64_t size);

  // Revokes a window: subsequent resolves fail. Idempotent.
  void Revoke(RegionId id);

  // Re-admits a previously revoked window under its original id (lease
  // fencing: permission is dropped while the lease is lapsed and re-granted
  // on renewal, without invalidating pointers that embed the region id).
  // Idempotent; unknown ids are ignored.
  void Restore(RegionId id);

  bool IsLive(RegionId id) const;

  // Materializes the bytes a remote read of this window observes *now* into
  // a shareable slab-backed view: the one copy out of backend memory that
  // the rest of the delivery path (fabric hops, fault COW, client decode
  // slices) shares without copying. Counted in BufferStats::bytes_copied.
  // Fails with PERMISSION_DENIED for unknown/revoked windows and
  // INVALID_ARGUMENT for out-of-bounds.
  StatusOr<BufferView> ResolveView(RegionId id, uint64_t offset,
                                   uint32_t length) const;

  int64_t registrations() const { return registrations_; }

 private:
  struct Window {
    const MemorySource* source;
    uint64_t size;
    bool revoked;
  };

  RegionId next_id_ = 1;
  int64_t registrations_ = 0;
  std::unordered_map<RegionId, Window> windows_;
};

}  // namespace cm::rma

#endif  // CM_RMA_MEMORY_H_
