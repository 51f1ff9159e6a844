#include "kv/store.h"

namespace rspaxos::kv {

LocalStore::Record& LocalStore::reset_row(const std::string& key) {
  auto [it, inserted] = table_.try_emplace(key);
  Record& r = it->second;
  if (!inserted) {
    release(r.data);
    if (!r.complete) incomplete_--;
  }
  return r;
}

void LocalStore::hold(const SharedBytes& b) {
  if (b.id() != nullptr && buffer_rows_[b.id()]++ == 0) resident_bytes_ += b.size();
}

void LocalStore::release(const SharedBytes& b) {
  if (b.id() == nullptr) return;
  auto it = buffer_rows_.find(b.id());
  if (it == buffer_rows_.end() || --it->second > 0) return;
  resident_bytes_ -= b.size();
  buffer_rows_.erase(it);
}

void LocalStore::put_complete(const std::string& key, SharedBytes payload, uint64_t slot,
                              uint64_t slice_off, uint64_t slice_len) {
  Record& r = reset_row(key);
  r.full_len = payload.size();
  r.data = std::move(payload);
  r.complete = true;
  r.slot = slot;
  r.slice_off = slice_off;
  r.slice_len = slice_len;
  hold(r.data);
}

void LocalStore::put_complete(const std::string& key, SharedBytes value, uint64_t slot) {
  const uint64_t len = value.size();
  put_complete(key, std::move(value), slot, 0, len);
}

void LocalStore::put_share(const std::string& key, SharedBytes share, uint64_t payload_len,
                           uint64_t slot, uint64_t slice_off, uint64_t slice_len) {
  Record& r = reset_row(key);
  incomplete_++;
  r.data = std::move(share);
  r.complete = false;
  r.full_len = payload_len;
  r.slot = slot;
  r.slice_off = slice_off;
  r.slice_len = slice_len;
  hold(r.data);
}

void LocalStore::erase(const std::string& key) {
  auto it = table_.find(key);
  if (it == table_.end()) return;
  release(it->second.data);
  if (!it->second.complete) incomplete_--;
  table_.erase(it);
}

const LocalStore::Record* LocalStore::find(const std::string& key) const {
  auto it = table_.find(key);
  return it == table_.end() ? nullptr : &it->second;
}

}  // namespace rspaxos::kv
