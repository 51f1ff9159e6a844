// Systematic Reed-Solomon erasure code θ(m, n) — the paper's coding substrate
// (the authors used Zfec; we implement the same optimal-erasure-code
// semantics from scratch).
//
// A value of any length is split into m equal-sized original shares (zero
// padded) and k = n - m parity shares of the same size; ANY m of the n shares
// reconstruct the value. Shares are identified by index 0..n-1; indices < m
// are the systematic (original-data) shares.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ec/matrix.h"
#include "util/bytes.h"
#include "util/status.h"

namespace rspaxos::ec {

/// Immutable codec for one θ(m, n) configuration. Thread-safe after
/// construction; construction cost (matrix setup) is amortized via Cache.
class RsCode {
 public:
  /// Requires 1 <= m <= n <= 255.
  static StatusOr<RsCode> create(int m, int n);

  int m() const { return m_; }
  int n() const { return n_; }

  /// Share size for a value of `value_len` bytes: ceil(value_len / m).
  size_t share_size(size_t value_len) const {
    return (value_len + static_cast<size_t>(m_) - 1) / static_cast<size_t>(m_);
  }

  /// Encodes `value` into n shares (systematic: shares [0, m) are the padded
  /// splits of the value). Works for empty values (all shares empty).
  std::vector<Bytes> encode(BytesView value) const;

  /// Zero-copy encode: writes share i into dsts[i] for i in [0, n), each a
  /// caller-provided buffer of share_size(value.size()) writable bytes (the
  /// proposer points these straight into its outgoing wire frames). A null
  /// dsts[i] skips share i (the proposer's own share in full-copy mode,
  /// where that share is the value it already holds). Any
  /// alignment works; 32-byte-aligned buffers hit the fastest kernel path.
  /// Parity is produced by a cache-blocked matrix kernel that walks each
  /// data block once while hot and accumulates into every parity row.
  void encode_into(BytesView value, uint8_t* const* dsts) const;

  /// Encodes only the single share `index` (what a proposer needs when
  /// re-sending one follower's fragment during catch-up §4.5).
  Bytes encode_share(BytesView value, int index) const;

  /// Reconstructs the original value (of known length `value_len`) from any
  /// >= m shares, keyed by share index. Fails with kFailedPrecondition if
  /// fewer than m distinct valid indices are supplied, kInvalidArgument on
  /// inconsistent share sizes. Systematic shares among the inputs are copied
  /// straight through; the inversion + multiply-accumulate kernel only runs
  /// for the splits that are actually missing (and is skipped entirely when
  /// all m systematic shares are present).
  StatusOr<Bytes> decode(const std::map<int, Bytes>& shares, size_t value_len) const;

  /// The full n x m encoding matrix (row i generates share i). Exposed for
  /// tests and for the reconfiguration logic that reasons about share reuse.
  const Matrix& encoding_matrix() const { return encode_matrix_; }

 private:
  RsCode(int m, int n, Matrix enc) : m_(m), n_(n), encode_matrix_(std::move(enc)) {}

  /// Parity shares m..n-1 into dsts (null entries skipped) from the m
  /// systematic splits in srcs.
  void encode_parity_into(const uint8_t* const* srcs, uint8_t* const* dsts, size_t ss) const;

  int m_;
  int n_;
  Matrix encode_matrix_;  // n x m, top m rows are the identity
};

/// Process-wide cache of codecs keyed by (m, n); RS-Paxos groups fetch their
/// codec per value without paying matrix construction per request.
class RsCodeCache {
 public:
  static const RsCode& get(int m, int n);
};

}  // namespace rspaxos::ec
