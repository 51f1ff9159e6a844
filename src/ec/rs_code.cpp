#include "ec/rs_code.h"

#include <cassert>
#include <chrono>
#include <cstring>
#include <mutex>

#include "ec/gf256.h"
#include "obs/metrics.h"

namespace rspaxos::ec {
namespace {

/// Column-block width for the matrix kernels. Chosen so one block of every
/// share (n blocks, n <= 14 in practice) stays resident in L1/L2 while the
/// inner loops sweep the coefficient tile.
constexpr size_t kCodeBlock = 16 * 1024;

/// Codec cost metrics (the paper's CPU-cost dimension, §6.5). Label-less:
/// encode/decode cost is a property of the process, not of a node id.
struct EcMetrics {
  obs::Counter* encode_ops;
  obs::Counter* encode_bytes;
  obs::HistogramMetric* encode_us;
  obs::Gauge* encode_mbps;
  obs::Gauge* kernel_tier;
  obs::Counter* decode_ops;
  obs::Counter* decode_bytes;
  obs::HistogramMetric* decode_us;

  static EcMetrics& get() {
    static EcMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::global();
      auto* e = new EcMetrics();
      e->encode_ops = &reg.counter("rsp_ec_encode_total", "RS encode calls (full or one-share)");
      e->encode_bytes = &reg.counter("rsp_ec_encode_bytes", "Input bytes RS-encoded");
      e->encode_us = &reg.histogram("rsp_ec_encode_us", "RS encode latency");
      e->encode_mbps =
          &reg.gauge("rsp_ec_encode_mbps", "Most recent full-encode throughput (MB/s)");
      e->kernel_tier = &reg.gauge(
          "rsp_ec_kernel_tier", "Active GF(2^8) kernel tier (0=scalar,1=ssse3,2=avx2,3=neon)");
      e->decode_ops = &reg.counter("rsp_ec_decode_total", "RS decode calls");
      e->decode_bytes = &reg.counter("rsp_ec_decode_bytes", "Output bytes RS-decoded");
      e->decode_us = &reg.histogram("rsp_ec_decode_us", "RS decode latency");
      e->kernel_tier->set(static_cast<int64_t>(gf::active_tier()));
      return e;
    }();
    return *m;
  }
};

int64_t elapsed_us(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

StatusOr<RsCode> RsCode::create(int m, int n) {
  if (m < 1 || n < m || n > 255) {
    return Status::invalid("RsCode requires 1 <= m <= n <= 255");
  }
  // Build the systematic generator: take the n x m extended Vandermonde V,
  // and right-multiply by inv(top m x m block). The top block of the result
  // is the identity (systematic); any m rows remain invertible because they
  // are products of invertible Vandermonde sub-matrices.
  Matrix v = Matrix::vandermonde(static_cast<size_t>(n), static_cast<size_t>(m));
  std::vector<size_t> top(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) top[static_cast<size_t>(i)] = static_cast<size_t>(i);
  auto top_inv = v.select_rows(top).inverted();
  if (!top_inv.is_ok()) return top_inv.status();
  Matrix enc = v.times(top_inv.value());
  return RsCode(m, n, std::move(enc));
}

void RsCode::encode_parity_into(const uint8_t* const* srcs, uint8_t* const* dsts,
                                size_t ss) const {
  // Cache-blocked matrix kernel: for each column block, sweep every data
  // share once while it is hot and accumulate into all n-m parity rows
  // (row-major coefficient tile). The j == 0 pass initializes parity via
  // mul_region, so parity buffers never need a separate zeroing pass.
  for (size_t off = 0; off < ss; off += kCodeBlock) {
    const size_t len = std::min(kCodeBlock, ss - off);
    for (int j = 0; j < m_; ++j) {
      const uint8_t* src = srcs[j] + off;
      for (int i = m_; i < n_; ++i) {
        if (dsts[i] == nullptr) continue;
        const uint8_t c = encode_matrix_.at(static_cast<size_t>(i), static_cast<size_t>(j));
        if (j == 0) {
          gf::mul_region(dsts[i] + off, src, c, len);
        } else {
          gf::mul_add_region(dsts[i] + off, src, c, len);
        }
      }
    }
  }
}

void RsCode::encode_into(BytesView value, uint8_t* const* dsts) const {
  EcMetrics& em = EcMetrics::get();
  auto start = std::chrono::steady_clock::now();
  const size_t ss = share_size(value.size());
  if (ss > 0) {
    // Systematic shares: padded splits of the value. Parity reads each split
    // from its share buffer, or — for a skipped share — straight from the
    // value (padded into `pads` only when the split runs past its end).
    const uint8_t* const* srcs = dsts;
    std::vector<const uint8_t*> skipped;
    std::vector<Bytes> pads;
    for (int i = 0; i < m_; ++i) {
      uint8_t* d = dsts[i];
      const size_t off = static_cast<size_t>(i) * ss;
      const size_t len = off < value.size() ? std::min(ss, value.size() - off) : 0;
      if (d == nullptr) {
        if (skipped.empty()) skipped.assign(dsts, dsts + m_);
        if (len == ss) {
          skipped[static_cast<size_t>(i)] = value.data() + off;
        } else {
          Bytes& pad = pads.emplace_back(ss, 0);
          if (len > 0) std::memcpy(pad.data(), value.data() + off, len);
          skipped[static_cast<size_t>(i)] = pad.data();
        }
        srcs = skipped.data();
        continue;
      }
      if (len > 0) std::memcpy(d, value.data() + off, len);
      if (len < ss) std::memset(d + len, 0, ss - len);
    }
    encode_parity_into(srcs, dsts, ss);
  }
  em.encode_ops->inc();
  em.encode_bytes->inc(value.size());
  int64_t us = elapsed_us(start);
  em.encode_us->observe(us);
  // bytes per microsecond == MB/s; only meaningful when the clock moved.
  if (us > 0) em.encode_mbps->set(static_cast<int64_t>(value.size()) / us);
}

std::vector<Bytes> RsCode::encode(BytesView value) const {
  const size_t ss = share_size(value.size());
  std::vector<Bytes> shares(static_cast<size_t>(n_));
  std::vector<uint8_t*> dsts(static_cast<size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    shares[static_cast<size_t>(i)].resize(ss);
    dsts[static_cast<size_t>(i)] = shares[static_cast<size_t>(i)].data();
  }
  encode_into(value, dsts.data());
  return shares;
}

Bytes RsCode::encode_share(BytesView value, int index) const {
  assert(index >= 0 && index < n_);
  EcMetrics& em = EcMetrics::get();
  auto start = std::chrono::steady_clock::now();
  const size_t ss = share_size(value.size());
  Bytes out(ss, 0);
  auto data_slice = [&](int j) {
    // Padded j-th systematic split, materialized only if needed.
    Bytes s(ss, 0);
    size_t off = static_cast<size_t>(j) * ss;
    if (off < value.size()) {
      size_t len = std::min(ss, value.size() - off);
      std::memcpy(s.data(), value.data() + off, len);
    }
    return s;
  };
  if (index < m_) {
    out = data_slice(index);
  } else {
    const uint8_t* row = encode_matrix_.row(static_cast<size_t>(index));
    for (int j = 0; j < m_; ++j) {
      if (row[j] == 0) continue;
      Bytes dj = data_slice(j);
      gf::mul_add_region(out.data(), dj.data(), row[j], ss);
    }
  }
  em.encode_ops->inc();
  em.encode_bytes->inc(value.size());
  em.encode_us->observe(elapsed_us(start));
  return out;
}

StatusOr<Bytes> RsCode::decode(const std::map<int, Bytes>& shares, size_t value_len) const {
  EcMetrics& em = EcMetrics::get();
  auto start = std::chrono::steady_clock::now();
  const size_t ss = share_size(value_len);
  // Pick the first m usable shares. The map is index-ordered, so systematic
  // shares (cheaper: straight copies) are always preferred when present.
  std::vector<size_t> rows;
  std::vector<const Bytes*> inputs;
  for (const auto& [idx, data] : shares) {
    if (idx < 0 || idx >= n_) return Status::invalid("share index out of range");
    if (data.size() != ss) return Status::invalid("inconsistent share size");
    rows.push_back(static_cast<size_t>(idx));
    inputs.push_back(&data);
    if (rows.size() == static_cast<size_t>(m_)) break;
  }
  if (rows.size() < static_cast<size_t>(m_)) {
    return Status::failed_precondition("not enough shares to decode");
  }

  Bytes value(static_cast<size_t>(m_) * ss, 0);

  // Any systematic share among the inputs *is* its split of the value: the
  // corresponding row of the inverted decode matrix is necessarily the unit
  // vector selecting it (the selected matrix carries the identity row), so a
  // straight memcpy is byte-identical and skips the whole kernel pass.
  std::vector<size_t> input_of(static_cast<size_t>(m_), SIZE_MAX);
  for (size_t j = 0; j < rows.size(); ++j) {
    if (rows[j] < static_cast<size_t>(m_)) input_of[rows[j]] = j;
  }
  std::vector<int> missing;
  for (int out_row = 0; out_row < m_; ++out_row) {
    size_t j = input_of[static_cast<size_t>(out_row)];
    if (j != SIZE_MAX) {
      if (ss > 0) {
        std::memcpy(value.data() + static_cast<size_t>(out_row) * ss, inputs[j]->data(), ss);
      }
    } else {
      missing.push_back(out_row);
    }
  }
  if (!missing.empty()) {
    // Only the missing splits pay the inversion + multiply-accumulate, with
    // the same cache-blocked sweep as the encode kernel.
    auto dec = encode_matrix_.select_rows(rows).inverted();
    if (!dec.is_ok()) return dec.status();
    const Matrix& d = dec.value();
    for (size_t off = 0; off < ss; off += kCodeBlock) {
      const size_t len = std::min(kCodeBlock, ss - off);
      for (size_t j = 0; j < rows.size(); ++j) {
        const uint8_t* src = inputs[j]->data() + off;
        for (int out_row : missing) {
          uint8_t* dst = value.data() + static_cast<size_t>(out_row) * ss + off;
          const uint8_t c = d.at(static_cast<size_t>(out_row), j);
          if (j == 0) {
            gf::mul_region(dst, src, c, len);
          } else {
            gf::mul_add_region(dst, src, c, len);
          }
        }
      }
    }
  }

  value.resize(value_len);
  em.decode_ops->inc();
  em.decode_bytes->inc(value_len);
  em.decode_us->observe(elapsed_us(start));
  return value;
}

const RsCode& RsCodeCache::get(int m, int n) {
  static std::mutex mu;
  static std::map<std::pair<int, int>, RsCode>* cache = new std::map<std::pair<int, int>, RsCode>();
  std::lock_guard<std::mutex> lk(mu);
  auto key = std::make_pair(m, n);
  auto it = cache->find(key);
  if (it == cache->end()) {
    auto code = RsCode::create(m, n);
    assert(code.is_ok() && "RsCodeCache::get with invalid (m, n)");
    it = cache->emplace(key, std::move(code).value()).first;
  }
  return it->second;
}

}  // namespace rspaxos::ec
