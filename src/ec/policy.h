// Pluggable erasure-code policy layer (DESIGN.md §13).
//
// RS-Paxos originally hardwired one θ(X,N) Reed-Solomon code into every
// consensus, catch-up, and snapshot path. EcPolicy abstracts the code behind
// a linear-code interface rich enough for the repair optimizations that
// locality-aware codes enable:
//
//  - every policy is a systematic linear code over GF(2^8) described by a
//    generator matrix of (n*s) x (x*s), where s = sub_shares() is the number
//    of sub-stripes per share (1 for RS/LRC, 2 for Hitchhiker);
//  - decode() reconstructs the value from any *decodable* subset of shares
//    (for non-MDS codes like LRC, not every x-subset qualifies — callers must
//    ask decodable(), not count shares);
//  - plan_repair() returns the cheapest set of (share, sub-share-mask)
//    fetches that rebuilds a single lost share (or the whole value), given
//    which peers are live and an optional per-share relative cost;
//  - run_repair() executes such a plan on the fetched bytes.
//
// Policies are immutable and thread-safe after construction; fetch them
// through PolicyCache (entries are immortal, like RsCodeCache).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "ec/code_id.h"
#include "ec/matrix.h"
#include "util/bytes.h"
#include "util/status.h"

namespace rspaxos::ec {

/// One fetch in a repair plan: sub-shares `sub_mask` (bit j = sub-stripe j)
/// of the share held by `share_idx`. For s == 1 codes the mask is always 1.
struct ShareFetch {
  int share_idx = 0;
  uint32_t sub_mask = 0;

  bool operator==(const ShareFetch&) const = default;
};

/// A decode schedule produced by EcPolicy::plan_repair. Fetch order is the
/// order run_repair expects the fetched sub-shares concatenated in (mask
/// bits ascending within one fetch).
struct RepairPlan {
  /// Target value for "reconstruct the whole value" plans.
  static constexpr int kWholeValue = -1;

  int target = kWholeValue;        // share index to rebuild, or kWholeValue
  std::vector<ShareFetch> fetches; // empty => no feasible plan

  bool feasible() const { return !fetches.empty(); }

  /// Total number of sub-shares fetched (network cost in units of sub_size).
  int sub_count() const;
};

/// A linear erasure-code policy. The base class implements the full
/// generator-matrix machinery (encode, rank-based decode with a systematic
/// fast path, repair planning and execution); concrete policies supply the
/// matrix geometry and optionally override the byte paths with tuned kernels
/// (RsPolicy delegates to the SIMD-blocked RsCode).
class EcPolicy {
 public:
  virtual ~EcPolicy();

  EcPolicy(const EcPolicy&) = delete;
  EcPolicy& operator=(const EcPolicy&) = delete;

  virtual CodeId id() const = 0;

  int x() const { return x_; }
  int n() const { return n_; }
  /// Sub-stripes per share (1 for rs/lrc, 2 for hh).
  int sub_shares() const { return s_; }

  /// Bytes of one sub-share for a value of `value_len` bytes.
  size_t sub_size(size_t value_len) const {
    size_t d = static_cast<size_t>(x_) * static_cast<size_t>(s_);
    return (value_len + d - 1) / d;
  }
  /// Bytes of one share: s * sub_size. For s == 1 this matches
  /// RsCode::share_size exactly (wire compatibility for rs).
  size_t share_size(size_t value_len) const {
    return static_cast<size_t>(s_) * sub_size(value_len);
  }
  /// Network bytes a plan fetches for a value of `value_len` bytes.
  size_t plan_bytes(const RepairPlan& plan, size_t value_len) const {
    return static_cast<size_t>(plan.sub_count()) * sub_size(value_len);
  }

  /// Smallest t such that EVERY t-subset of shares is decodable. Equals x
  /// for MDS codes (rs, hh); larger for lrc. Quorum sizing must use this,
  /// not x, for non-MDS codes.
  int any_subset_decodable() const { return asd_; }

  /// Encodes `value` into n shares of share_size(value.size()) bytes each.
  virtual std::vector<Bytes> encode(BytesView value) const;

  /// Zero-copy encode into caller-provided buffers dsts[0..n), each
  /// share_size(value.size()) writable bytes. A null dsts[i] skips share i.
  virtual void encode_into(BytesView value, uint8_t* const* dsts) const;

  /// Encodes only share `index`.
  virtual Bytes encode_share(BytesView value, int index) const;

  /// True iff the given distinct share indices can reconstruct the value.
  bool decodable(const std::vector<int>& have) const;

  /// Reconstructs the value from a decodable set of full shares. Fails with
  /// kFailedPrecondition if the set is not decodable, kInvalidArgument on
  /// malformed share sizes/indices. Systematic sub-shares among the inputs
  /// are copied straight through; the solve kernel only runs for missing
  /// sub-stripes.
  virtual StatusOr<Bytes> decode(const std::map<int, Bytes>& shares,
                                 size_t value_len) const;

  /// Cheapest feasible plan rebuilding `target` (a share index, or
  /// RepairPlan::kWholeValue) from the `live` share indices (target itself is
  /// ignored if present). `cost[i]` is the relative per-byte cost of fetching
  /// from the holder of share i (empty = uniform). Returns an infeasible
  /// (empty-fetches) plan if `live` cannot rebuild the target.
  RepairPlan plan_repair(int target, const std::vector<int>& live,
                         const std::vector<double>& cost = {}) const;

  /// Executes a plan: `fetched[i]` holds the sub-shares of share i named by
  /// the plan's mask, concatenated in mask-bit order. Returns the rebuilt
  /// share (plan.target >= 0) or the whole value truncated to `value_len`.
  StatusOr<Bytes> run_repair(const RepairPlan& plan,
                             const std::map<int, Bytes>& fetched,
                             size_t value_len) const;

  /// The (n*s) x (x*s) generator matrix (rows i*s..i*s+s-1 generate share i).
  const Matrix& generator() const { return gen_; }

 protected:
  EcPolicy(int x, int n, int s, int asd, Matrix gen);

  /// Policy-specific candidate plans for plan_repair (e.g. LRC's local-group
  /// read, Hitchhiker's piggyback schedule). Candidates may be infeasible or
  /// reference dead shares; the base validates and prices each one against
  /// the generic cheapest-decodable-subset fallback.
  virtual void add_candidate_plans(int target, const std::vector<int>& live,
                                   std::vector<RepairPlan>* out) const;

 private:
  bool rows_feasible(const RepairPlan& plan, Matrix* rows) const;

  int x_;
  int n_;
  int s_;
  int asd_;
  Matrix gen_;
};

/// Smallest t such that every t-subset of the n shares has full-rank
/// sub-rows in `gen` (exhaustive; callers cap n at ~16). Exposed so tests
/// can cross-check the value each policy reports.
int brute_force_any_subset_decodable(const Matrix& gen, int n, int s);

/// θ(x, n) Reed-Solomon wrapped as a policy (byte-identical to the pre-policy
/// wire format; SIMD kernels via RsCode). Requires 1 <= x <= n <= 255.
StatusOr<std::unique_ptr<EcPolicy>> make_rs_policy(int x, int n);

/// Azure-style Locally Repairable Code: data split into local groups each
/// protected by an XOR parity, plus global RS parities. Single-share repair
/// reads only the local group. NOT MDS. Requires n - x >= 2 and n <= 16.
StatusOr<std::unique_ptr<EcPolicy>> make_lrc_policy(int x, int n);

/// Hitchhiker-style XOR piggyback over RS: two sub-stripes per share; parity
/// b-halves carry XORs of data a-sub-shares, roughly halving the bytes read
/// to repair a systematic share. MDS. Requires n - x >= 2 and n <= 16.
StatusOr<std::unique_ptr<EcPolicy>> make_hh_policy(int x, int n);

StatusOr<std::unique_ptr<EcPolicy>> make_policy(CodeId code, int x, int n);

/// Process-wide policy cache keyed by (code, x, n). Thread-safe: get() may
/// be called concurrently from the reactor threads of a multi-reactor host;
/// entries are immortal so returned references never dangle.
class PolicyCache {
 public:
  /// Trusted-parameter lookup (asserts on invalid geometry) — for callers
  /// holding an already-validated GroupConfig.
  static const EcPolicy& get(CodeId code, int x, int n);

  /// Wire-parameter lookup: validates code/x/n ranges (including the
  /// u64 -> int narrowing from varint decode) and returns a Status instead
  /// of asserting, so corrupt share records are rejected not crashed on.
  static StatusOr<const EcPolicy*> get_checked(uint8_t code, uint64_t x,
                                               uint64_t n);
};

}  // namespace rspaxos::ec
