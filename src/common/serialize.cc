#include "common/serialize.h"

#include <cstring>

namespace edgelet {

void Writer::PutVarintSlow(uint64_t v) {
  // LEB128 never exceeds 10 bytes for 64-bit input; stage on the stack and
  // append once.
  uint8_t tmp[10];
  size_t n = 0;
  while (v >= 0x80) {
    tmp[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  tmp[n++] = static_cast<uint8_t>(v);
  buf_.insert(buf_.end(), tmp, tmp + n);
}

void Writer::PutString(std::string_view s) {
  PutVarint(s.size());
  PutRaw(s.data(), s.size());
}

void Writer::PutBytes(const Bytes& b) {
  PutVarint(b.size());
  PutRaw(b.data(), b.size());
}

void Writer::PutRaw(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

Status Reader::Need(size_t n) {
  if (len_ - pos_ < n) {
    return Status::DataLoss("truncated message: need " + std::to_string(n) +
                            " bytes, have " + std::to_string(len_ - pos_));
  }
  return Status::OK();
}

Result<uint8_t> Reader::GetU8() {
  EDGELET_RETURN_NOT_OK(Need(1));
  return data_[pos_++];
}

Result<uint16_t> Reader::GetU16() {
  EDGELET_RETURN_NOT_OK(Need(2));
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> Reader::GetU32() {
  EDGELET_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> Reader::GetU64() {
  EDGELET_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int64_t> Reader::GetI64() {
  auto r = GetU64();
  if (!r.ok()) return r.status();
  return static_cast<int64_t>(*r);
}

Result<bool> Reader::GetBool() {
  auto r = GetU8();
  if (!r.ok()) return r.status();
  if (*r > 1) return Status::Corruption("bool byte out of range");
  return *r == 1;
}

Result<double> Reader::GetDouble() {
  auto r = GetU64();
  if (!r.ok()) return r.status();
  double d;
  uint64_t bits = *r;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<uint64_t> Reader::GetVarintSlow() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) return Status::Corruption("varint too long");
    EDGELET_RETURN_NOT_OK(Need(1));
    uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

Result<int64_t> Reader::GetVarintSigned() {
  auto r = GetVarint();
  if (!r.ok()) return r.status();
  uint64_t zz = *r;
  return static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
}

Result<uint64_t> Reader::GetCount(size_t min_element_bytes) {
  auto n = GetVarint();
  if (!n.ok()) return n.status();
  if (*n > remaining() / min_element_bytes) {
    return Status::Corruption("count " + std::to_string(*n) +
                              " exceeds the " + std::to_string(remaining()) +
                              " bytes left");
  }
  return *n;
}

Result<std::string> Reader::GetString() {
  auto s = GetStringView();
  if (!s.ok()) return s.status();
  return std::string(*s);
}

Result<std::string_view> Reader::GetStringView() {
  auto len = GetVarint();
  if (!len.ok()) return len.status();
  EDGELET_RETURN_NOT_OK(Need(*len));
  std::string_view s(reinterpret_cast<const char*>(data_ + pos_), *len);
  pos_ += *len;
  return s;
}

Result<Bytes> Reader::GetBytes() {
  auto len = GetVarint();
  if (!len.ok()) return len.status();
  EDGELET_RETURN_NOT_OK(Need(*len));
  Bytes b(data_ + pos_, data_ + pos_ + *len);
  pos_ += *len;
  return b;
}

}  // namespace edgelet
