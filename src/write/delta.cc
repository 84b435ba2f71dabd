#include "write/delta.h"

#include <cstring>

#include "bat/bat.h"
#include "bat/serialize.h"
#include "common/logging.h"

namespace dcy::write {

namespace {

constexpr uint32_t kMagic = 0xDC0DE17Au;
constexpr uint32_t kFormatVersion = 1;

// magic, format, fragment, reserved.
constexpr size_t kHeadBytes = 4 * sizeof(uint32_t);
constexpr size_t kCrcBytes = sizeof(uint32_t);

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

/// Bounds-checked little-endian reader; every failure is Corruption because
/// the caller already verified the frame CRC (a short or misshapen frame
/// that *passes* CRC can only come from a truncated-then-reframed buffer).
struct Reader {
  const char* p;
  size_t left;

  Result<uint32_t> U32() {
    if (left < 4) return Status::Corruption("delta frame truncated (u32)");
    uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    left -= 4;
    return v;
  }
  Result<uint64_t> U64() {
    if (left < 8) return Status::Corruption("delta frame truncated (u64)");
    uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    left -= 8;
    return v;
  }
  Result<std::shared_ptr<const std::vector<uint64_t>>> U64Vector() {
    DCY_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > left / 8) return Status::Corruption("delta frame truncated (id vector)");
    auto out = std::make_shared<std::vector<uint64_t>>(static_cast<size_t>(n));
    if (n > 0) std::memcpy(out->data(), p, static_cast<size_t>(n) * 8);
    p += n * 8;
    left -= static_cast<size_t>(n) * 8;
    return std::shared_ptr<const std::vector<uint64_t>>(std::move(out));
  }
};

bool StrictlyIncreasing(const std::vector<uint64_t>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[i - 1]) return false;
  }
  return true;
}

}  // namespace

uint64_t DeltaBat::ByteSize() const {
  return (inserts != nullptr ? inserts->ByteSize() : 0) +
         (insert_row_ids != nullptr ? insert_row_ids->size() * 8 : 0) +
         (deletes != nullptr ? deletes->size() * 8 : 0);
}

size_t EncodedDeltaSize(const DeltaBat& d) {
  const bat::BatPtr col = bat::Bat::MakeColumn(d.inserts);
  return kHeadBytes + sizeof(uint64_t) /*version*/ +
         sizeof(uint64_t) + d.deletes->size() * 8 + sizeof(uint64_t) +
         d.insert_row_ids->size() * 8 + sizeof(uint64_t) /*nested size*/ +
         bat::EncodedSize(*col) + kCrcBytes;
}

void SerializeDeltaInto(const DeltaBat& d, std::string* out) {
  DCY_CHECK(d.inserts != nullptr);
  DCY_CHECK(d.insert_row_ids != nullptr && d.deletes != nullptr);
  DCY_CHECK(d.insert_row_ids->size() == d.inserts->size());
  out->clear();
  out->reserve(EncodedDeltaSize(d));
  PutU32(out, kMagic);
  PutU32(out, kFormatVersion);
  PutU32(out, d.fragment);
  PutU32(out, 0);  // reserved
  PutU64(out, d.version);
  PutU64(out, d.deletes->size());
  for (uint64_t id : *d.deletes) PutU64(out, id);
  PutU64(out, d.insert_row_ids->size());
  for (uint64_t id : *d.insert_row_ids) PutU64(out, id);
  // The insert column rides as a nested BAT frame: it reuses the hardened
  // column codec (string heaps included) and its own CRC.
  const std::string nested = bat::Serialize(*bat::Bat::MakeColumn(d.inserts));
  PutU64(out, nested.size());
  out->append(nested);
  PutU32(out, bat::Crc32(out->data(), out->size()));
}

std::string SerializeDelta(const DeltaBat& d) {
  std::string out;
  SerializeDeltaInto(d, &out);
  return out;
}

Result<DeltaPtr> DeserializeDelta(std::string_view buffer) {
  if (buffer.size() < kHeadBytes + kCrcBytes) {
    return Status::Corruption("delta frame shorter than header");
  }
  if (!bat::FrameFooterMatches(buffer)) {
    return Status::Corruption("delta frame CRC mismatch");
  }
  Reader r{buffer.data(), buffer.size() - kCrcBytes};
  DCY_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kMagic) return Status::Corruption("delta frame bad magic");
  DCY_ASSIGN_OR_RETURN(uint32_t fmt, r.U32());
  if (fmt != kFormatVersion) {
    return Status::Corruption("delta frame unsupported format version");
  }
  auto d = std::make_shared<DeltaBat>();
  DCY_ASSIGN_OR_RETURN(uint32_t fragment, r.U32());
  d->fragment = fragment;
  DCY_ASSIGN_OR_RETURN(uint32_t reserved, r.U32());
  if (reserved != 0) return Status::Corruption("delta frame bad reserved word");
  DCY_ASSIGN_OR_RETURN(d->version, r.U64());
  DCY_ASSIGN_OR_RETURN(d->deletes, r.U64Vector());
  DCY_ASSIGN_OR_RETURN(d->insert_row_ids, r.U64Vector());
  DCY_ASSIGN_OR_RETURN(uint64_t nested_size, r.U64());
  if (nested_size != r.left) {
    return Status::Corruption("delta frame nested column size mismatch");
  }
  auto nested = bat::Deserialize(std::string_view(r.p, r.left));
  if (!nested.ok()) {
    // The nested codec already types its failures as Corruption; wrap any
    // other code so the contract holds frame-wide.
    if (nested.status().code() == StatusCode::kCorruption) return nested.status();
    return Status::Corruption("delta frame nested column: " +
                              nested.status().message());
  }
  d->inserts = nested.value()->tail();
  if (d->inserts->size() != d->insert_row_ids->size()) {
    return Status::Corruption("delta frame insert ids misaligned with column");
  }
  if (!StrictlyIncreasing(*d->deletes) || !StrictlyIncreasing(*d->insert_row_ids)) {
    return Status::Corruption("delta frame row ids not strictly increasing");
  }
  return DeltaPtr(std::move(d));
}

}  // namespace dcy::write
