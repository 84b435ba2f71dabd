#include "storage/spill_file.h"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "bat/serialize.h"

namespace dcy::storage {

namespace {

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

Status Corrupt(const std::string& what) {
  return Status::Corruption("spill file: " + what);
}

}  // namespace

std::string EncodeSpillFile(core::BatId id, const std::string& name, const bat::Bat& b) {
  const std::string payload = bat::Serialize(b);
  std::string out;
  out.reserve(kSpillHeaderBytes + name.size() + payload.size());
  PutU32(&out, kSpillMagic);
  PutU32(&out, kSpillVersion);
  PutU64(&out, id);
  PutU64(&out, payload.size());
  PutU32(&out, bat::FrameFooter(payload));
  PutU32(&out, static_cast<uint32_t>(name.size()));
  PutU32(&out, bat::Crc32(out.data(), out.size()) ^ bat::Crc32(name.data(), name.size()));
  out.append(name);
  out.append(payload);
  return out;
}

Result<bat::BatPtr> DecodeSpillFile(std::string_view image, SpillInfo* info) {
  if (image.size() < kSpillHeaderBytes) return Corrupt("truncated header");
  const char* p = image.data();
  if (GetU32(p) != kSpillMagic) return Corrupt("bad magic");
  if (GetU32(p + 4) != kSpillVersion) return Corrupt("unsupported version");
  const uint64_t bat_id = GetU64(p + 8);
  const uint64_t payload_bytes = GetU64(p + 16);
  const uint32_t payload_crc = GetU32(p + 24);
  const uint32_t name_len = GetU32(p + 28);
  const uint32_t meta_crc = GetU32(p + 32);
  if (kSpillHeaderBytes + static_cast<uint64_t>(name_len) > image.size()) {
    return Corrupt("name extends past the file");
  }
  const char* name_ptr = p + kSpillHeaderBytes;
  // The meta CRC covers every field above it plus the name bytes: a flip in
  // any length/id field is caught here, before those fields steer anything.
  if ((bat::Crc32(p, kSpillHeaderBytes - 4) ^ bat::Crc32(name_ptr, name_len)) !=
      meta_crc) {
    return Corrupt("header checksum mismatch");
  }
  if (kSpillHeaderBytes + static_cast<uint64_t>(name_len) + payload_bytes !=
      image.size()) {
    return Corrupt("length mismatch (truncated or trailing bytes)");
  }
  const char* payload = name_ptr + name_len;
  // payload_crc is the frame's own footer; Deserialize checks every byte
  // before it against the footer, so one pass covers the whole payload.
  if (bat::FrameFooter(std::string_view(payload, payload_bytes)) != payload_crc) {
    return Corrupt("payload checksum mismatch");
  }
  auto decoded = bat::Deserialize(std::string_view(payload, payload_bytes));
  if (!decoded.ok()) {
    // The serializer's own verification failed; surface it uniformly as
    // Corruption so callers have exactly one damaged-file code to handle.
    return Corrupt("payload decode failed: " + decoded.status().message());
  }
  if (info != nullptr) {
    info->id = static_cast<core::BatId>(bat_id);
    info->name.assign(name_ptr, name_len);
    info->payload_bytes = payload_bytes;
  }
  return decoded;
}

Status WriteSpillFile(const std::string& path, std::string_view image) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) return Status::IOError("cannot open " + tmp + " for writing");
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return Status::IOError("short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status::IOError("cannot rename " + tmp + " into place");
  }
  return Status::OK();
}

Result<bat::BatPtr> ReadSpillFile(const std::string& path, SpillInfo* info) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return Status::NotFound("no spill file at " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::string image(static_cast<size_t>(size), '\0');
  in.read(image.data(), size);
  if (!in.good()) return Corrupt("short read from " + path);
  return DecodeSpillFile(image, info);
}

std::string SpillFileName(core::BatId id) { return std::to_string(id) + ".frag"; }

}  // namespace dcy::storage
