#include "rpc/wire.h"

namespace cm::rpc {

namespace {
constexpr size_t kHeader = 3;  // u16 tag + u8 type
}

WireWriter& WireWriter::PutU32(uint16_t tag, uint32_t v) {
  size_t at = out_.size();
  out_.resize(at + kHeader + 4);
  StoreU16(out_.data() + at, tag);
  out_[at + 2] = static_cast<std::byte>(WireType::kU32);
  StoreU32(out_.data() + at + kHeader, v);
  return *this;
}

WireWriter& WireWriter::PutU64(uint16_t tag, uint64_t v) {
  size_t at = out_.size();
  out_.resize(at + kHeader + 8);
  StoreU16(out_.data() + at, tag);
  out_[at + 2] = static_cast<std::byte>(WireType::kU64);
  StoreU64(out_.data() + at + kHeader, v);
  return *this;
}

WireWriter& WireWriter::PutBytes(uint16_t tag, ByteSpan data) {
  size_t at = out_.size();
  out_.resize(at + kHeader + 4);
  StoreU16(out_.data() + at, tag);
  out_[at + 2] = static_cast<std::byte>(WireType::kBytes);
  StoreU32(out_.data() + at + kHeader, static_cast<uint32_t>(data.size()));
  out_.insert(out_.end(), data.begin(), data.end());
  return *this;
}

template <typename Visitor>
bool WireReader::Scan(Visitor&& visit) const {
  size_t pos = 0;
  while (pos + kHeader <= data_.size()) {
    uint16_t tag = LoadU16(data_.data() + pos);
    auto type = static_cast<WireType>(data_[pos + 2]);
    pos += kHeader;
    size_t len = 0;
    switch (type) {
      case WireType::kU32:
        len = 4;
        break;
      case WireType::kU64:
        len = 8;
        break;
      case WireType::kBytes: {
        if (pos + 4 > data_.size()) return false;
        len = 4 + LoadU32(data_.data() + pos);
        break;
      }
      default:
        return false;  // unknown wire *type* is unskippable -> invalid
    }
    if (pos + len > data_.size()) return false;
    if (visit(tag, type, ByteSpan(data_.data() + pos, len))) return true;
    pos += len;
  }
  return pos == data_.size();
}

std::optional<uint32_t> WireReader::GetU32(uint16_t tag) const {
  std::optional<uint32_t> out;
  Scan([&](uint16_t t, WireType ty, ByteSpan payload) {
    if (t == tag && ty == WireType::kU32) {
      out = LoadU32(payload.data());
      return true;
    }
    return false;
  });
  return out;
}

std::optional<uint64_t> WireReader::GetU64(uint16_t tag) const {
  std::optional<uint64_t> out;
  Scan([&](uint16_t t, WireType ty, ByteSpan payload) {
    if (t == tag && ty == WireType::kU64) {
      out = LoadU64(payload.data());
      return true;
    }
    return false;
  });
  return out;
}

std::optional<ByteSpan> WireReader::GetBytes(uint16_t tag) const {
  return GetBytesAt(tag, 0);
}

std::optional<ByteSpan> WireReader::GetBytesAt(uint16_t tag,
                                               size_t index) const {
  std::optional<ByteSpan> out;
  size_t seen = 0;
  Scan([&](uint16_t t, WireType ty, ByteSpan payload) {
    if (t == tag && ty == WireType::kBytes) {
      if (seen++ == index) {
        out = payload.subspan(4);
        return true;
      }
    }
    return false;
  });
  return out;
}

size_t WireReader::CountBytes(uint16_t tag) const {
  size_t n = 0;
  Scan([&](uint16_t t, WireType ty, ByteSpan) {
    if (t == tag && ty == WireType::kBytes) ++n;
    return false;
  });
  return n;
}

std::optional<std::string> WireReader::GetString(uint16_t tag) const {
  auto b = GetBytes(tag);
  if (!b) return std::nullopt;
  return ToString(*b);
}

bool WireReader::Valid() const {
  return Scan([](uint16_t, WireType, ByteSpan) { return false; });
}

}  // namespace cm::rpc
