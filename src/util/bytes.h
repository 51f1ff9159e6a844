// Basic byte-buffer aliases shared across the library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace rspaxos {

/// Owning byte buffer. All wire payloads and coded shares use this type.
using Bytes = std::vector<uint8_t>;

/// Non-owning read-only view over a byte buffer.
using BytesView = std::span<const uint8_t>;

/// Immutable, reference-counted byte buffer: the one resident copy of a
/// value that every holder shares (a replica's log entry, its payload cache
/// and the KV rows that store the value). Copies share the buffer, which is
/// freed when its last holder lets go; an empty value holds no allocation.
/// Converts implicitly from Bytes (adopting it) and to BytesView.
class SharedBytes {
 public:
  SharedBytes() = default;
  SharedBytes(Bytes b)  // NOLINT(google-explicit-constructor): adopts the vector
      : buf_(b.empty() ? nullptr : std::make_shared<const Bytes>(std::move(b))) {}

  const uint8_t* data() const { return buf_ ? buf_->data() : nullptr; }
  size_t size() const { return buf_ ? buf_->size() : 0; }
  bool empty() const { return size() == 0; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size(); }
  /// Drops this holder's reference.
  void clear() { buf_.reset(); }
  /// Identity of the shared allocation (null when empty): two holders with
  /// the same id keep one resident copy between them.
  const void* id() const { return buf_.get(); }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return std::ranges::equal(a, b);
  }

 private:
  std::shared_ptr<const Bytes> buf_;
};

/// Builds a Bytes buffer from a string literal / std::string (test helper).
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Renders a byte buffer as a std::string (test helper; assumes text data).
inline std::string to_string(BytesView b) {
  return std::string(b.begin(), b.end());
}

}  // namespace rspaxos
