#include "rma/memory.h"

namespace cm::rma {

RegionId MemoryRegistry::Register(const MemorySource* source, uint64_t size) {
  RegionId id = next_id_++;
  windows_[id] = Window{source, size, false};
  ++registrations_;
  return id;
}

void MemoryRegistry::Revoke(RegionId id) {
  auto it = windows_.find(id);
  if (it != windows_.end()) it->second.revoked = true;
}

void MemoryRegistry::Restore(RegionId id) {
  auto it = windows_.find(id);
  if (it != windows_.end()) it->second.revoked = false;
}

bool MemoryRegistry::IsLive(RegionId id) const {
  auto it = windows_.find(id);
  return it != windows_.end() && !it->second.revoked;
}

StatusOr<BufferView> MemoryRegistry::ResolveView(RegionId id, uint64_t offset,
                                                 uint32_t length) const {
  auto it = windows_.find(id);
  if (it == windows_.end() || it->second.revoked) {
    return PermissionDeniedError("rma window revoked or unknown");
  }
  const Window& w = it->second;
  if (offset + length > w.size) {
    return InvalidArgumentError("rma read out of window bounds");
  }
  Buffer buf = Buffer::Allocate(length);
  Status s = w.source->ReadAt(offset, length, buf.data());
  if (!s.ok()) return s;
  BufferStats::NoteCopy(length);
  return std::move(buf).Share();
}

}  // namespace cm::rma
