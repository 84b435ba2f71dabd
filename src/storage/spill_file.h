// The on-disk image of one spilled fragment: a versioned, checksummed
// envelope around the existing BAT wire encoding (bat/serialize.h).
//
//   [0]  u32 magic          kSpillMagic
//   [4]  u32 version        kSpillVersion
//   [8]  u64 bat_id
//   [16] u64 payload_bytes  length of the serialized-BAT frame
//   [24] u32 payload_crc    the payload frame's CRC32C footer (bat::FrameFooter)
//   [28] u32 name_len
//   [32] u32 meta_crc       bat::Crc32 (CRC32C) over bytes [0,32) XOR over the name
//   [36] name bytes         qualified fragment name ("schema.table.column")
//   [..] payload            bat::Serialize frame (own magic/version/CRC)
//
// Every field that steers decoding is covered by a checksum. The payload is
// verified in one pass: its body against the serializer's footer, and the
// footer against payload_crc — any single byte
// flip, truncation, or trailing garbage decodes to Status::Corruption, so a
// torn or damaged spill file can never be served as data (the store re-homes
// the fragment from the ring instead). Writes go through a temp file plus
// rename, so a crash mid-write leaves either the old image or a garbage
// temp file, never a half-new file under the real name.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "bat/bat.h"
#include "common/status.h"
#include "core/types.h"

namespace dcy::storage {

constexpr uint32_t kSpillMagic = 0xDC5B111Fu;
constexpr uint32_t kSpillVersion = 2;
/// Fixed-size part of the envelope, before the name bytes.
constexpr size_t kSpillHeaderBytes = 36;

/// \brief Identity read back from a spill-file envelope.
struct SpillInfo {
  core::BatId id = core::kInvalidBat;
  std::string name;
  uint64_t payload_bytes = 0;
};

/// Encodes `b` into a complete spill-file image.
std::string EncodeSpillFile(core::BatId id, const std::string& name, const bat::Bat& b);

/// Decodes and fully verifies an image. Any damage — bad magic/version,
/// flipped header or name byte, wrong length, payload corruption — yields
/// Status::Corruption. `info` (optional) receives the envelope identity.
Result<bat::BatPtr> DecodeSpillFile(std::string_view image, SpillInfo* info);

/// Atomically replaces `path` with `image` (write temp + rename).
Status WriteSpillFile(const std::string& path, std::string_view image);

/// Reads and decodes `path`. NotFound when the file is absent; Corruption
/// for any damaged content.
Result<bat::BatPtr> ReadSpillFile(const std::string& path, SpillInfo* info);

/// Canonical file name of a fragment's spill image ("<id>.frag").
std::string SpillFileName(core::BatId id);

}  // namespace dcy::storage
