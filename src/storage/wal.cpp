#include "storage/wal.h"

namespace rspaxos::storage {

Wal* MuxWal::group(uint32_t g) {
  if (g >= num_groups()) return nullptr;
  if (views_.size() < num_groups()) views_.resize(num_groups());
  if (!views_[g]) views_[g] = std::make_unique<GroupWalView>(this, g);
  return views_[g].get();
}

void MemWal::append(WalRecord record, DurableFn cb) {
  bytes_ += record.size();
  records_.push_back(std::move(record));
  if (cb) cb(Status::ok(), WalPos{0, first_seq_ + records_.size() - 1});
}

void MemWal::truncate_prefix(std::vector<Bytes> head, TruncateFn cb) {
  uint64_t reclaimed = 0;
  for (const WalRecord& r : records_) reclaimed += r.size();
  truncated_ += reclaimed;
  first_seq_ += records_.size();
  records_.assign(std::make_move_iterator(head.begin()), std::make_move_iterator(head.end()));
  bytes_ = 0;
  for (const WalRecord& r : records_) bytes_ += r.size();
  if (cb) cb(reclaimed);
}

void MemWal::replay(const ReplayFn& fn) {
  for (size_t i = 0; i < records_.size(); ++i) {
    fn(records_[i].flatten(), WalPos{0, first_seq_ + i});
  }
}

StatusOr<Bytes> MemWal::read(WalPos pos) const {
  if (!pos.valid() || pos.off < first_seq_ || pos.off - first_seq_ >= records_.size()) {
    return Status::not_found("wal position not live");
  }
  return records_[pos.off - first_seq_].flatten();
}

}  // namespace rspaxos::storage
