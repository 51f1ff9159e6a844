#include "ec/policy.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <mutex>
#include <tuple>

#include "ec/gf256.h"

namespace rspaxos::ec {
namespace {

/// Column-block width for the accumulate kernels (same budget as RsCode:
/// one block of every live sub-share stays cache-resident per sweep).
constexpr size_t kCodeBlock = 16 * 1024;

/// Incremental row-echelon workspace over GF(2^8): add() keeps a row only if
/// it is linearly independent of the rows already kept. Rows are stored
/// reduced and pivot-normalized, so each add is one back-substitution sweep.
class Elim {
 public:
  explicit Elim(size_t cols) : cols_(cols) {}

  size_t rank() const { return rows_.size(); }

  /// Reduces `v` (length cols) against the kept rows. Returns true and keeps
  /// the reduced row iff it was independent.
  bool add(std::vector<uint8_t> v) {
    reduce(v.data());
    size_t p = 0;
    while (p < cols_ && v[p] == 0) ++p;
    if (p == cols_) return false;
    const uint8_t* scale = gf::mul_table_row(gf::inv(v[p]));
    for (size_t c = p; c < cols_; ++c) v[c] = scale[v[c]];
    pivots_.push_back(p);
    rows_.push_back(std::move(v));
    return true;
  }

  /// In-place reduction of an external row (length cols) against the kept
  /// rows; afterwards v is zero iff it was in their span.
  void reduce(uint8_t* v) const {
    for (size_t i = 0; i < rows_.size(); ++i) {
      const uint8_t f = v[pivots_[i]];
      if (f == 0) continue;
      const uint8_t* t = gf::mul_table_row(f);
      const uint8_t* r = rows_[i].data();
      for (size_t c = pivots_[i]; c < cols_; ++c) v[c] ^= t[r[c]];
    }
  }

 private:
  size_t cols_;
  std::vector<std::vector<uint8_t>> rows_;
  std::vector<size_t> pivots_;
};

/// Solves C * rows == targets for C (targets.rows x rows.rows): each target
/// row must be a linear combination of the fetched rows. Works for any row
/// count (the fetched set may be redundant or rectangular — this is the
/// repair-schedule solver, not a square inverse). Fails with
/// kFailedPrecondition if some target is outside the row span.
StatusOr<Matrix> solve_combination(const Matrix& rows, const Matrix& targets) {
  const size_t k = rows.rows();
  const size_t d = rows.cols();
  assert(targets.cols() == d);
  // Augmented echelon basis: each kept row is [span-part | combination-part],
  // where span-part == combination-part * original rows (invariant preserved
  // by elimination since the field has characteristic 2).
  Elim basis(d + k);
  for (size_t j = 0; j < k; ++j) {
    std::vector<uint8_t> aug(d + k, 0);
    std::memcpy(aug.data(), rows.row(j), d);
    aug[d + j] = 1;
    // Pivot landing in the combination tail means the span-part reduced to
    // zero: a redundant fetch. Drop it — no target needs it.
    std::vector<uint8_t> probe = aug;
    basis.reduce(probe.data());
    bool span_nonzero = false;
    for (size_t c = 0; c < d; ++c) {
      if (probe[c] != 0) { span_nonzero = true; break; }
    }
    if (span_nonzero) basis.add(std::move(aug));
  }
  Matrix c(targets.rows(), k);
  for (size_t t = 0; t < targets.rows(); ++t) {
    std::vector<uint8_t> aug(d + k, 0);
    std::memcpy(aug.data(), targets.row(t), d);
    basis.reduce(aug.data());
    for (size_t col = 0; col < d; ++col) {
      if (aug[col] != 0) {
        return Status::failed_precondition(
            "repair target not reconstructible from fetched shares");
      }
    }
    for (size_t j = 0; j < k; ++j) c.at(t, j) = aug[d + j];
  }
  return c;
}

/// True iff the sub-rows of the given (distinct) share indices span all of
/// GF(2^8)^D, i.e. the subset reconstructs every sub-stripe of the value.
bool subset_spans(const Matrix& gen, int s, const std::vector<int>& idxs) {
  const size_t d = gen.cols();
  Elim e(d);
  for (int idx : idxs) {
    for (int j = 0; j < s; ++j) {
      const uint8_t* r = gen.row(static_cast<size_t>(idx) * static_cast<size_t>(s) +
                                 static_cast<size_t>(j));
      e.add(std::vector<uint8_t>(r, r + d));
      if (e.rank() == d) return true;
    }
  }
  return e.rank() == d;
}

/// Index of the variable a unit generator row selects, or -1 if the row is
/// not a unit vector. Unit rows get memcpy fast paths in encode and decode.
int unit_var(const uint8_t* row, size_t d) {
  int u = -1;
  for (size_t c = 0; c < d; ++c) {
    if (row[c] == 0) continue;
    if (row[c] != 1 || u >= 0) return -1;
    u = static_cast<int>(c);
  }
  return u;
}

}  // namespace

int RepairPlan::sub_count() const {
  int c = 0;
  for (const ShareFetch& f : fetches) c += std::popcount(f.sub_mask);
  return c;
}

EcPolicy::EcPolicy(int x, int n, int s, int asd, Matrix gen)
    : x_(x), n_(n), s_(s), asd_(asd), gen_(std::move(gen)) {
  assert(gen_.rows() == static_cast<size_t>(n_) * static_cast<size_t>(s_));
  assert(gen_.cols() == static_cast<size_t>(x_) * static_cast<size_t>(s_));
}

EcPolicy::~EcPolicy() = default;

void EcPolicy::add_candidate_plans(int, const std::vector<int>&,
                                   std::vector<RepairPlan>*) const {}

std::vector<Bytes> EcPolicy::encode(BytesView value) const {
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

void EcPolicy::encode_into(BytesView value, uint8_t* const* dsts) const {
  const size_t sub = sub_size(value.size());
  if (sub == 0) return;
  const size_t d = gen_.cols();

  // Per-variable source regions: full sub-blocks point into the value, the
  // (single) partial tail block is padded into scratch, all-zero blocks stay
  // null and contribute nothing.
  Bytes tail;
  std::vector<const uint8_t*> src(d, nullptr);
  for (size_t v = 0; v < d; ++v) {
    const size_t off = v * sub;
    if (off >= value.size()) break;
    if (off + sub <= value.size()) {
      src[v] = value.data() + off;
    } else {
      tail.assign(sub, 0);
      std::memcpy(tail.data(), value.data() + off, value.size() - off);
      src[v] = tail.data();
    }
  }

  // Unit rows (all systematic sub-shares, plus any pure-copy parity rows)
  // are straight memcpys; the rest accumulate through the blocked kernel.
  struct ComputedRow {
    const uint8_t* coeffs;
    uint8_t* dst;
  };
  std::vector<ComputedRow> computed;
  for (int i = 0; i < n_; ++i) {
    if (dsts[i] == nullptr) continue;
    for (int j = 0; j < s_; ++j) {
      const uint8_t* row =
          gen_.row(static_cast<size_t>(i) * static_cast<size_t>(s_) + static_cast<size_t>(j));
      uint8_t* dst = dsts[i] + static_cast<size_t>(j) * sub;
      int u = unit_var(row, d);
      if (u >= 0) {
        if (src[static_cast<size_t>(u)] != nullptr) {
          std::memcpy(dst, src[static_cast<size_t>(u)], sub);
        } else {
          std::memset(dst, 0, sub);
        }
      } else {
        std::memset(dst, 0, sub);
        computed.push_back({row, dst});
      }
    }
  }
  for (size_t off = 0; off < sub; off += kCodeBlock) {
    const size_t len = std::min(kCodeBlock, sub - off);
    for (size_t v = 0; v < d; ++v) {
      if (src[v] == nullptr) continue;
      for (const ComputedRow& r : computed) {
        if (r.coeffs[v] != 0) gf::mul_add_region(r.dst + off, src[v] + off, r.coeffs[v], len);
      }
    }
  }
}

Bytes EcPolicy::encode_share(BytesView value, int index) const {
  assert(index >= 0 && index < n_);
  const size_t sub = sub_size(value.size());
  const size_t d = gen_.cols();
  Bytes out(static_cast<size_t>(s_) * sub, 0);
  if (sub == 0) return out;
  Bytes block;  // padded variable block, materialized per use
  auto var_block = [&](size_t v) -> const uint8_t* {
    const size_t off = v * sub;
    if (off >= value.size()) return nullptr;
    if (off + sub <= value.size()) return value.data() + off;
    block.assign(sub, 0);
    std::memcpy(block.data(), value.data() + off, value.size() - off);
    return block.data();
  };
  for (int j = 0; j < s_; ++j) {
    const uint8_t* row =
        gen_.row(static_cast<size_t>(index) * static_cast<size_t>(s_) + static_cast<size_t>(j));
    uint8_t* dst = out.data() + static_cast<size_t>(j) * sub;
    for (size_t v = 0; v < d; ++v) {
      if (row[v] == 0) continue;
      const uint8_t* s = var_block(v);
      if (s != nullptr) gf::mul_add_region(dst, s, row[v], sub);
    }
  }
  return out;
}

bool EcPolicy::decodable(const std::vector<int>& have) const {
  std::vector<int> idxs;
  idxs.reserve(have.size());
  for (int i : have) {
    if (i >= 0 && i < n_) idxs.push_back(i);
  }
  std::sort(idxs.begin(), idxs.end());
  idxs.erase(std::unique(idxs.begin(), idxs.end()), idxs.end());
  const size_t d = gen_.cols();
  if (idxs.size() * static_cast<size_t>(s_) < d) return false;
  if (static_cast<int>(idxs.size()) >= asd_) return true;
  return subset_spans(gen_, s_, idxs);
}

StatusOr<Bytes> EcPolicy::decode(const std::map<int, Bytes>& shares,
                                 size_t value_len) const {
  const size_t sub = sub_size(value_len);
  const size_t ss = share_size(value_len);
  const size_t d = gen_.cols();

  // Greedily collect D independent sub-rows, walking shares in index order so
  // systematic sub-shares (straight copies) win over parity whenever present.
  Elim basis(d);
  std::vector<size_t> rows;              // generator row ids of kept sub-rows
  std::vector<const uint8_t*> inputs;    // matching sub-share data
  for (const auto& [idx, data] : shares) {
    if (idx < 0 || idx >= n_) return Status::invalid("share index out of range");
    if (data.size() != ss) return Status::invalid("inconsistent share size");
    for (int j = 0; j < s_ && rows.size() < d; ++j) {
      const size_t rid =
          static_cast<size_t>(idx) * static_cast<size_t>(s_) + static_cast<size_t>(j);
      const uint8_t* r = gen_.row(rid);
      if (basis.add(std::vector<uint8_t>(r, r + d))) {
        rows.push_back(rid);
        inputs.push_back(data.data() + static_cast<size_t>(j) * sub);
      }
    }
    if (rows.size() == d) break;
  }
  if (rows.size() < d) {
    return Status::failed_precondition("share set not decodable for this code");
  }

  Bytes value(d * sub, 0);

  // Unit sub-rows are their variable verbatim (memcpy); only the remaining
  // variables pay the inversion + blocked multiply-accumulate.
  std::vector<bool> copied(d, false);
  for (size_t j = 0; j < rows.size(); ++j) {
    int u = unit_var(gen_.row(rows[j]), d);
    if (u >= 0 && !copied[static_cast<size_t>(u)]) {
      copied[static_cast<size_t>(u)] = true;
      if (sub > 0) std::memcpy(value.data() + static_cast<size_t>(u) * sub, inputs[j], sub);
    }
  }
  std::vector<size_t> missing;
  for (size_t v = 0; v < d; ++v) {
    if (!copied[v]) missing.push_back(v);
  }
  if (!missing.empty() && sub > 0) {
    Matrix sel(d, d);
    for (size_t j = 0; j < rows.size(); ++j) {
      std::memcpy(&sel.at(j, 0), gen_.row(rows[j]), d);
    }
    auto inv = sel.inverted();
    if (!inv.is_ok()) return inv.status();
    const Matrix& m = inv.value();
    for (size_t off = 0; off < sub; off += kCodeBlock) {
      const size_t len = std::min(kCodeBlock, sub - off);
      for (size_t j = 0; j < rows.size(); ++j) {
        const uint8_t* srcp = inputs[j] + off;
        for (size_t v : missing) {
          const uint8_t c = m.at(v, j);
          if (c != 0) gf::mul_add_region(value.data() + v * sub + off, srcp, c, len);
        }
      }
    }
  }

  value.resize(value_len);
  return value;
}

bool EcPolicy::rows_feasible(const RepairPlan& plan, Matrix* rows) const {
  const size_t d = gen_.cols();
  const int k = plan.sub_count();
  Matrix m(static_cast<size_t>(k), d);
  size_t r = 0;
  for (const ShareFetch& f : plan.fetches) {
    if (f.share_idx < 0 || f.share_idx >= n_) return false;
    if (f.sub_mask == 0 || f.sub_mask >= (1u << s_)) return false;
    for (int j = 0; j < s_; ++j) {
      if ((f.sub_mask & (1u << j)) == 0) continue;
      std::memcpy(&m.at(r, 0),
                  gen_.row(static_cast<size_t>(f.share_idx) * static_cast<size_t>(s_) +
                           static_cast<size_t>(j)),
                  d);
      ++r;
    }
  }
  Matrix targets;
  if (plan.target >= 0) {
    std::vector<size_t> trows(static_cast<size_t>(s_));
    for (int j = 0; j < s_; ++j) {
      trows[static_cast<size_t>(j)] =
          static_cast<size_t>(plan.target) * static_cast<size_t>(s_) + static_cast<size_t>(j);
    }
    targets = gen_.select_rows(trows);
  } else {
    targets = Matrix::identity(d);
  }
  if (!solve_combination(m, targets).is_ok()) return false;
  if (rows != nullptr) *rows = std::move(m);
  return true;
}

RepairPlan EcPolicy::plan_repair(int target, const std::vector<int>& live,
                                 const std::vector<double>& cost) const {
  assert(target == RepairPlan::kWholeValue || (target >= 0 && target < n_));
  std::vector<int> src;
  src.reserve(live.size());
  for (int i : live) {
    if (i >= 0 && i < n_ && i != target) src.push_back(i);
  }
  std::sort(src.begin(), src.end());
  src.erase(std::unique(src.begin(), src.end()), src.end());

  auto cost_of = [&](int i) {
    return static_cast<size_t>(i) < cost.size() ? cost[static_cast<size_t>(i)] : 1.0;
  };
  const uint32_t full = (1u << s_) - 1;

  std::vector<RepairPlan> cands;
  add_candidate_plans(target, src, &cands);

  // Generic fallback: grow a cheapest-first share set until it can rebuild
  // the target (for whole-value plans that means the set is decodable). This
  // is exactly "fetch any X" for MDS codes and a safety net for every
  // structure-aware candidate above.
  {
    std::vector<int> order = src;
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return cost_of(a) < cost_of(b); });
    RepairPlan greedy;
    greedy.target = target;
    for (int i : order) {
      greedy.fetches.push_back({i, full});
      if (rows_feasible(greedy, nullptr)) {
        cands.push_back(greedy);
        break;
      }
    }
  }

  RepairPlan best;
  best.target = target;
  double best_cost = 0;
  for (RepairPlan& p : cands) {
    if (p.fetches.empty() || p.target != target) continue;
    bool valid = true;
    double c = 0;
    for (const ShareFetch& f : p.fetches) {
      if (!std::binary_search(src.begin(), src.end(), f.share_idx) || f.sub_mask == 0 ||
          f.sub_mask > full) {
        valid = false;
        break;
      }
      c += static_cast<double>(std::popcount(f.sub_mask)) * cost_of(f.share_idx);
    }
    if (!valid || !rows_feasible(p, nullptr)) continue;
    if (best.fetches.empty() || c < best_cost ||
        (c == best_cost && p.sub_count() < best.sub_count())) {
      best = std::move(p);
      best_cost = c;
    }
  }
  return best;
}

StatusOr<Bytes> EcPolicy::run_repair(const RepairPlan& plan,
                                     const std::map<int, Bytes>& fetched,
                                     size_t value_len) const {
  if (!plan.feasible()) return Status::invalid("empty repair plan");
  if (plan.target != RepairPlan::kWholeValue && (plan.target < 0 || plan.target >= n_)) {
    return Status::invalid("repair target out of range");
  }
  const size_t sub = sub_size(value_len);
  const size_t d = gen_.cols();

  Matrix rows(static_cast<size_t>(plan.sub_count()), d);
  std::vector<const uint8_t*> inputs;
  inputs.reserve(rows.rows());
  size_t r = 0;
  for (const ShareFetch& f : plan.fetches) {
    if (f.share_idx < 0 || f.share_idx >= n_ || f.sub_mask == 0 ||
        f.sub_mask >= (1u << s_)) {
      return Status::invalid("malformed repair fetch");
    }
    auto it = fetched.find(f.share_idx);
    if (it == fetched.end()) return Status::invalid("repair fetch data missing");
    const size_t want = static_cast<size_t>(std::popcount(f.sub_mask)) * sub;
    if (it->second.size() != want) return Status::invalid("repair fetch size mismatch");
    size_t seg = 0;
    for (int j = 0; j < s_; ++j) {
      if ((f.sub_mask & (1u << j)) == 0) continue;
      std::memcpy(&rows.at(r, 0),
                  gen_.row(static_cast<size_t>(f.share_idx) * static_cast<size_t>(s_) +
                           static_cast<size_t>(j)),
                  d);
      inputs.push_back(it->second.data() + seg * sub);
      ++seg;
      ++r;
    }
  }

  Matrix targets;
  if (plan.target >= 0) {
    std::vector<size_t> trows(static_cast<size_t>(s_));
    for (int j = 0; j < s_; ++j) {
      trows[static_cast<size_t>(j)] =
          static_cast<size_t>(plan.target) * static_cast<size_t>(s_) + static_cast<size_t>(j);
    }
    targets = gen_.select_rows(trows);
  } else {
    targets = Matrix::identity(d);
  }
  auto comb = solve_combination(rows, targets);
  if (!comb.is_ok()) return comb.status();
  const Matrix& c = comb.value();

  Bytes out(targets.rows() * sub, 0);
  for (size_t off = 0; off < sub; off += kCodeBlock) {
    const size_t len = std::min(kCodeBlock, sub - off);
    for (size_t j = 0; j < rows.rows(); ++j) {
      const uint8_t* srcp = inputs[j] + off;
      for (size_t t = 0; t < targets.rows(); ++t) {
        const uint8_t k = c.at(t, j);
        if (k != 0) gf::mul_add_region(out.data() + t * sub + off, srcp, k, len);
      }
    }
  }
  if (plan.target == RepairPlan::kWholeValue) out.resize(value_len);
  return out;
}

int brute_force_any_subset_decodable(const Matrix& gen, int n, int s) {
  const size_t d = gen.cols();
  const int min_t =
      static_cast<int>((d + static_cast<size_t>(s) - 1) / static_cast<size_t>(s));
  for (int t = min_t; t <= n; ++t) {
    // Enumerate every t-subset of [0, n); the first size where all of them
    // span is the answer (supersets of spanning sets span, so this is the
    // minimum over a monotone property).
    std::vector<int> idxs(static_cast<size_t>(t));
    for (int i = 0; i < t; ++i) idxs[static_cast<size_t>(i)] = i;
    bool all_span = true;
    while (true) {
      if (!subset_spans(gen, s, idxs)) {
        all_span = false;
        break;
      }
      int i = t - 1;
      while (i >= 0 && idxs[static_cast<size_t>(i)] == n - t + i) --i;
      if (i < 0) break;
      ++idxs[static_cast<size_t>(i)];
      for (int j = i + 1; j < t; ++j) {
        idxs[static_cast<size_t>(j)] = idxs[static_cast<size_t>(j - 1)] + 1;
      }
    }
    if (all_span) return t;
  }
  return n;
}

StatusOr<std::unique_ptr<EcPolicy>> make_policy(CodeId code, int x, int n) {
  switch (code) {
    case CodeId::kRs: return make_rs_policy(x, n);
    case CodeId::kLrc: return make_lrc_policy(x, n);
    case CodeId::kHh: return make_hh_policy(x, n);
  }
  return Status::invalid("unknown erasure-code id");
}

const EcPolicy& PolicyCache::get(CodeId code, int x, int n) {
  auto p = get_checked(static_cast<uint8_t>(code), static_cast<uint64_t>(x),
                       static_cast<uint64_t>(n));
  assert(p.is_ok() && "PolicyCache::get with invalid (code, x, n)");
  return *p.value();
}

StatusOr<const EcPolicy*> PolicyCache::get_checked(uint8_t code, uint64_t x,
                                                   uint64_t n) {
  if (!code_id_valid(code)) return Status::invalid("unknown erasure-code id");
  if (x < 1 || n < x || n > 255) {
    return Status::invalid("erasure-code params require 1 <= x <= n <= 255");
  }
  // Entries are heap-allocated once and never evicted, so returned pointers
  // stay valid for the life of the process even as the map rehashes — the
  // same immortality contract RsCodeCache relies on. The mutex makes lookup
  // safe from concurrent reactor threads (a host with more than one reactor).
  static std::mutex mu;
  static auto* cache =
      new std::map<std::tuple<uint8_t, int, int>, std::unique_ptr<EcPolicy>>();
  std::lock_guard<std::mutex> lk(mu);
  auto key = std::make_tuple(code, static_cast<int>(x), static_cast<int>(n));
  auto it = cache->find(key);
  if (it == cache->end()) {
    auto made = make_policy(static_cast<CodeId>(code), static_cast<int>(x),
                            static_cast<int>(n));
    if (!made.is_ok()) return made.status();
    it = cache->emplace(key, std::move(made).value()).first;
  }
  return it->second.get();
}

}  // namespace rspaxos::ec
