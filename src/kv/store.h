// Local per-replica value table (§4.1's "persistent storage space").
//
// Durability comes from the RS-Paxos write-ahead log, so the table itself is
// an in-memory structure ("writes to local storage do not have to flush to
// disks, because we already have a persistent write ahead log" §4.4).
// Leader rows hold the complete value; follower rows hold only that
// replica's coded share and are tagged incomplete (§4.4 Write). A row
// references the immutable buffer of the log entry it was applied from (the
// instance payload or this replica's share of it), so a value has one
// resident copy per replica however many holders it has. The one exception
// is a complete row of a batched instance: once the log drops the instance,
// KvServer moves the row to an exact-size copy of its slice, so one live key
// cannot pin the whole batch.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/bytes.h"

namespace rspaxos::kv {

class LocalStore {
 public:
  struct Record {
    SharedBytes data;        // complete: the instance payload; else this replica's share
    bool complete = false;   // §4.4: followers "tag this value as incomplete"
    uint64_t full_len = 0;   // total length of the instance payload
    uint64_t slot = 0;       // log slot of the last write (recovery read key)
    // The key's value inside the instance payload. For unbatched writes
    // this is [0, full_len); batched instances (Op::kBatch) pack several
    // values into one payload and each key records its slice.
    uint64_t slice_off = 0;
    uint64_t slice_len = 0;

    /// The key's value bytes (complete rows only).
    BytesView value() const { return BytesView(data.data() + slice_off, slice_len); }
  };

  /// Stores a complete value: bytes [slice_off, slice_off + slice_len) of the
  /// instance payload `payload` (leader path / post-recovery). The caller
  /// guarantees the slice lies inside the payload.
  void put_complete(const std::string& key, SharedBytes payload, uint64_t slot,
                    uint64_t slice_off, uint64_t slice_len);
  /// Stores a complete value that fills its whole buffer.
  void put_complete(const std::string& key, SharedBytes value, uint64_t slot);

  /// Stores this replica's share of the instance payload (follower path).
  /// slice_off/slice_len locate the key's value in the decoded payload; pass
  /// 0/payload_len for unbatched writes.
  void put_share(const std::string& key, SharedBytes share, uint64_t payload_len,
                 uint64_t slot, uint64_t slice_off, uint64_t slice_len);

  void erase(const std::string& key);

  const Record* find(const std::string& key) const;

  size_t size() const { return table_.size(); }
  /// Total bytes resident — the paper's storage-cost metric. A buffer that
  /// several rows reference (the keys of one batched instance) counts once.
  uint64_t resident_bytes() const { return resident_bytes_; }
  uint64_t incomplete_count() const { return incomplete_; }

  /// Iterates all records (used by view-change re-encode sweeps).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [k, r] : table_) fn(k, r);
  }

 private:
  /// Returns the row for `key`, releasing whatever it held before.
  Record& reset_row(const std::string& key);
  void hold(const SharedBytes& b);
  void release(const SharedBytes& b);

  std::map<std::string, Record> table_;
  std::unordered_map<const void*, uint32_t> buffer_rows_;  // buffer id -> rows holding it
  uint64_t resident_bytes_ = 0;
  uint64_t incomplete_ = 0;
};

}  // namespace rspaxos::kv
