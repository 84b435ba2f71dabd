// Immutable delta BATs: the unit of update propagation on the ring.
//
// A writer never mutates a base fragment. Each commit produces one DeltaBat
// per affected fragment (column), keyed by the fragment id and a monotone
// commit version: an insert set (fresh column of appended values plus their
// stable row ids) and a delete set (stable row ids removed). Updates are
// modelled as delete + insert. Deltas circulate on the ring alongside their
// base fragments (paper's update-propagation sketch) and are folded into new
// base fragments by the background compactor (write/write_log.h).
//
// The wire frame is self-describing little-endian and ends with a CRC32C
// footer over every preceding byte, like bat/serialize.h (bat::FrameFooter
// reads it): any byte flip or truncation of an encoded delta decodes to a
// typed Status::Corruption, never to garbage.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bat/column.h"
#include "common/status.h"
#include "core/types.h"

namespace dcy::write {

/// \brief One fragment's share of one committed write. Immutable after
/// construction; the row-id vectors are shared across the sibling deltas of
/// the same commit (one per column of the table).
struct DeltaBat {
  core::BatId fragment = core::kInvalidBat;
  /// Monotone commit version assigned by the WriteLog. A reader at snapshot
  /// S applies exactly the deltas with version <= S.
  uint64_t version = 0;
  /// Appended values for this fragment's column; size 0 for delete-only
  /// commits. Never null.
  bat::ColumnPtr inserts;
  /// Stable row ids of the inserted rows, aligned with `inserts` and
  /// strictly increasing.
  std::shared_ptr<const std::vector<uint64_t>> insert_row_ids;
  /// Stable row ids deleted by this commit, strictly increasing.
  std::shared_ptr<const std::vector<uint64_t>> deletes;

  /// Payload bytes (drives the compaction thresholds and ring accounting).
  uint64_t ByteSize() const;
};

using DeltaPtr = std::shared_ptr<const DeltaBat>;

/// Exact encoded frame size of `d`.
size_t EncodedDeltaSize(const DeltaBat& d);

/// Encodes into `*out`, replacing its contents (sized exactly like
/// bat::SerializeInto so pooled frames pay no reallocation).
void SerializeDeltaInto(const DeltaBat& d, std::string* out);
std::string SerializeDelta(const DeltaBat& d);

/// Decodes; verifies magic, format version, the whole-frame CRC and every
/// structural invariant. Any mismatch is Status::Corruption.
Result<DeltaPtr> DeserializeDelta(std::string_view buffer);

}  // namespace dcy::write
