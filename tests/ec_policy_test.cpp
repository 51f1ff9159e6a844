// Property tests for the pluggable erasure-code policy layer: every policy's
// decode is exercised over ALL subsets of shares (decodable() must predict
// exactly which ones reconstruct, and reconstruction must be byte-identical
// to the original value), every single-share failure is repaired via
// plan_repair/run_repair against the encode_share ground truth, and the
// locality codes must beat the RS "fetch any X" byte count. The whole binary
// is re-run with RSPAXOS_FORCE_SCALAR_GF=1 (ec_policy_test_scalar) so the
// scalar reference kernels stay byte-identical to the SIMD tiers.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "ec/code_id.h"
#include "ec/policy.h"
#include "ec/rs_code.h"
#include "util/rng.h"

namespace rspaxos {
namespace {

using ec::CodeId;
using ec::EcPolicy;
using ec::PolicyCache;
using ec::RepairPlan;

struct Geometry {
  CodeId code;
  int x;
  int n;
};

// Small n keeps the 2^n all-subsets sweep cheap; the set covers MDS (rs, hh)
// and non-MDS (lrc) plus geometries where the locality shortcuts kick in.
const Geometry kGeometries[] = {
    {CodeId::kRs, 2, 4},  {CodeId::kRs, 3, 5},   {CodeId::kRs, 4, 10},
    {CodeId::kLrc, 4, 8}, {CodeId::kLrc, 4, 10}, {CodeId::kLrc, 6, 12},
    {CodeId::kHh, 3, 5},  {CodeId::kHh, 4, 6},   {CodeId::kHh, 4, 10},
};

Bytes random_value(Rng* rng, size_t len) {
  Bytes v(len);
  for (auto& b : v) b = static_cast<uint8_t>(rng->next_below(256));
  return v;
}

// Slices the sub-shares a plan's masks name out of the full shares — the
// same bytes a peer would put on the wire answering a sub-masked fetch.
std::map<int, Bytes> fetch_for_plan(const EcPolicy& p, const RepairPlan& plan,
                                    const std::vector<Bytes>& shares, size_t value_len) {
  const size_t sub = p.sub_size(value_len);
  std::map<int, Bytes> out;
  for (const auto& f : plan.fetches) {
    Bytes b;
    const Bytes& share = shares[static_cast<size_t>(f.share_idx)];
    for (int j = 0; j < p.sub_shares(); ++j) {
      if ((f.sub_mask & (1u << j)) == 0) continue;
      b.insert(b.end(), share.begin() + static_cast<long>(static_cast<size_t>(j) * sub),
               share.begin() + static_cast<long>(static_cast<size_t>(j + 1) * sub));
    }
    out[f.share_idx] = std::move(b);
  }
  return out;
}

TEST(EcPolicy, AllSubsetsDecodeIffDecodable) {
  Rng rng(71);
  for (const Geometry& g : kGeometries) {
    const EcPolicy& p = PolicyCache::get(g.code, g.x, g.n);
    ASSERT_EQ(p.x(), g.x);
    ASSERT_EQ(p.n(), g.n);
    // Odd length so the tail sub-block is partial (padding paths covered).
    const Bytes value = random_value(&rng, 1021);
    const std::vector<Bytes> shares = p.encode(value);
    for (uint32_t mask = 0; mask < (1u << g.n); ++mask) {
      std::vector<int> have;
      std::map<int, Bytes> input;
      for (int i = 0; i < g.n; ++i) {
        if (mask & (1u << i)) {
          have.push_back(i);
          input[i] = shares[static_cast<size_t>(i)];
        }
      }
      const bool expect = p.decodable(have);
      auto dec = p.decode(input, value.size());
      ASSERT_EQ(dec.is_ok(), expect)
          << ec::to_string(g.code) << "(" << g.x << "," << g.n << ") mask=" << mask;
      if (expect) {
        ASSERT_EQ(dec.value(), value)
            << ec::to_string(g.code) << "(" << g.x << "," << g.n << ") mask=" << mask;
      }
    }
  }
}

TEST(EcPolicy, AnySubsetDecodableMatchesBruteForceAndMdsClaims) {
  for (const Geometry& g : kGeometries) {
    const EcPolicy& p = PolicyCache::get(g.code, g.x, g.n);
    EXPECT_EQ(p.any_subset_decodable(),
              ec::brute_force_any_subset_decodable(p.generator(), p.n(), p.sub_shares()))
        << ec::to_string(g.code) << "(" << g.x << "," << g.n << ")";
    if (g.code == CodeId::kRs || g.code == CodeId::kHh) {
      // Both are MDS: any x shares must decode.
      EXPECT_EQ(p.any_subset_decodable(), g.x);
    } else {
      // LRC trades MDS-ness for locality.
      EXPECT_GT(p.any_subset_decodable(), g.x);
    }
  }
}

TEST(EcPolicy, EncodeVariantsAgree) {
  Rng rng(72);
  for (const Geometry& g : kGeometries) {
    const EcPolicy& p = PolicyCache::get(g.code, g.x, g.n);
    for (size_t len : {size_t{0}, size_t{1}, size_t{257}, size_t{40000}}) {
      const Bytes value = random_value(&rng, len);
      const std::vector<Bytes> shares = p.encode(value);
      ASSERT_EQ(shares.size(), static_cast<size_t>(g.n));
      const size_t ss = p.share_size(len);
      std::vector<Bytes> into(static_cast<size_t>(g.n), Bytes(ss, 0xAA));
      std::vector<uint8_t*> dsts;
      for (auto& b : into) dsts.push_back(b.data());
      p.encode_into(value, dsts.data());
      for (int i = 0; i < g.n; ++i) {
        ASSERT_EQ(shares[static_cast<size_t>(i)].size(), ss);
        EXPECT_EQ(into[static_cast<size_t>(i)], shares[static_cast<size_t>(i)]) << "i=" << i;
        EXPECT_EQ(p.encode_share(value, i), shares[static_cast<size_t>(i)]) << "i=" << i;
      }
    }
  }
}

TEST(EcPolicy, EncodeIntoSkipsNullDestinations) {
  // A null dsts[i] skips share i; every other share must still come out
  // byte-identical — including parity built from a skipped systematic split
  // (the proposer skips its own share in full-copy mode, x == 1 under rs).
  Rng rng(74);
  std::vector<Geometry> geoms(std::begin(kGeometries), std::end(kGeometries));
  geoms.push_back({CodeId::kRs, 1, 3});
  for (const Geometry& g : geoms) {
    const EcPolicy& p = PolicyCache::get(g.code, g.x, g.n);
    for (size_t len : {size_t{1}, size_t{257}, size_t{40000}}) {
      const Bytes value = random_value(&rng, len);
      const std::vector<Bytes> shares = p.encode(value);
      const size_t ss = p.share_size(len);
      for (int skip = 0; skip < g.n; ++skip) {
        std::vector<Bytes> into(static_cast<size_t>(g.n), Bytes(ss, 0xAA));
        std::vector<uint8_t*> dsts;
        for (auto& b : into) dsts.push_back(b.data());
        dsts[static_cast<size_t>(skip)] = nullptr;
        p.encode_into(value, dsts.data());
        for (int i = 0; i < g.n; ++i) {
          const Bytes& want = i == skip ? Bytes(ss, 0xAA) : shares[static_cast<size_t>(i)];
          EXPECT_EQ(into[static_cast<size_t>(i)], want)
              << ec::to_string(g.code) << " x=" << g.x << " n=" << g.n << " len=" << len
              << " skip=" << skip << " i=" << i;
        }
      }
    }
  }
}

TEST(EcPolicy, RsPolicyByteIdenticalToRsCode) {
  Rng rng(73);
  for (auto [x, n] : {std::pair{2, 4}, std::pair{3, 5}, std::pair{4, 10}}) {
    const EcPolicy& p = PolicyCache::get(CodeId::kRs, x, n);
    const ec::RsCode& rs = ec::RsCodeCache::get(x, n);
    const Bytes value = random_value(&rng, 3333);
    EXPECT_EQ(p.share_size(value.size()), rs.share_size(value.size()));
    EXPECT_EQ(p.encode(value), rs.encode(value));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(p.encode_share(value, i), rs.encode_share(value, i));
    }
  }
}

TEST(EcPolicy, RepairsEverySingleFailure) {
  Rng rng(74);
  for (const Geometry& g : kGeometries) {
    const EcPolicy& p = PolicyCache::get(g.code, g.x, g.n);
    const Bytes value = random_value(&rng, 8191);
    const std::vector<Bytes> shares = p.encode(value);
    std::vector<int> all(static_cast<size_t>(g.n));
    for (int i = 0; i < g.n; ++i) all[static_cast<size_t>(i)] = i;
    for (int target = 0; target < g.n; ++target) {
      std::vector<int> live;
      for (int i = 0; i < g.n; ++i) {
        if (i != target) live.push_back(i);
      }
      RepairPlan plan = p.plan_repair(target, live);
      ASSERT_TRUE(plan.feasible())
          << ec::to_string(g.code) << "(" << g.x << "," << g.n << ") target=" << target;
      // Never worse than the MDS fallback of fetching x full shares.
      EXPECT_LE(plan.sub_count(), g.x * p.sub_shares());
      auto rebuilt =
          p.run_repair(plan, fetch_for_plan(p, plan, shares, value.size()), value.size());
      ASSERT_TRUE(rebuilt.is_ok()) << rebuilt.status().to_string();
      EXPECT_EQ(rebuilt.value(), shares[static_cast<size_t>(target)])
          << ec::to_string(g.code) << " target=" << target;
    }
  }
}

TEST(EcPolicy, LocalityCodesBeatRsOnSystematicRepair) {
  // The acceptance bar for this subsystem: on a single systematic failure,
  // LRC reads only its local group and Hitchhiker reads ~half the stripe,
  // both strictly fewer bytes than RS's x full shares at the same geometry.
  const size_t value_len = 65536;
  for (CodeId code : {CodeId::kLrc, CodeId::kHh}) {
    const EcPolicy& p = PolicyCache::get(code, 4, 10);
    const EcPolicy& rs = PolicyCache::get(CodeId::kRs, 4, 10);
    std::vector<int> live;
    for (int i = 1; i < 10; ++i) live.push_back(i);
    RepairPlan plan = p.plan_repair(0, live);
    RepairPlan rs_plan = rs.plan_repair(0, live);
    ASSERT_TRUE(plan.feasible());
    ASSERT_TRUE(rs_plan.feasible());
    EXPECT_LT(p.plan_bytes(plan, value_len), rs.plan_bytes(rs_plan, value_len))
        << ec::to_string(code);
  }
  // The specific shapes: LRC(4,10) groups 2 data shares per local parity;
  // HH(4,10) fetches x+1 half-shares.
  EXPECT_EQ(PolicyCache::get(CodeId::kLrc, 4, 10).plan_repair(0, {1, 2, 3, 4, 5, 6, 7, 8, 9})
                .sub_count(),
            2);
  EXPECT_EQ(PolicyCache::get(CodeId::kHh, 4, 10).plan_repair(0, {1, 2, 3, 4, 5, 6, 7, 8, 9})
                .sub_count(),
            5);
}

TEST(EcPolicy, PlanRespectsPeerCosts) {
  const EcPolicy& p = PolicyCache::get(CodeId::kRs, 3, 6);
  std::vector<int> live = {0, 1, 2, 3, 4, 5};
  // Share 1's holder is across a WAN link; everyone else is cheap.
  std::vector<double> cost = {1.0, 100.0, 1.0, 1.0, 1.0, 1.0};
  RepairPlan plan = p.plan_repair(RepairPlan::kWholeValue, live, cost);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(plan.fetches.size(), 3u);
  for (const auto& f : plan.fetches) EXPECT_NE(f.share_idx, 1);

  // With uniform costs the plan must prefer systematic shares (straight
  // copies on decode) — the map-ordered greedy guarantees it.
  RepairPlan uniform = p.plan_repair(RepairPlan::kWholeValue, live);
  ASSERT_TRUE(uniform.feasible());
  for (const auto& f : uniform.fetches) EXPECT_LT(f.share_idx, 3);
}

TEST(EcPolicy, RepairWithDeadLocalGroupFallsBack) {
  // Kill a whole LRC local group except the target: the local plan is
  // infeasible, the policy must still repair via globals.
  Rng rng(75);
  const EcPolicy& p = PolicyCache::get(CodeId::kLrc, 4, 10);
  const Bytes value = random_value(&rng, 2000);
  const std::vector<Bytes> shares = p.encode(value);
  RepairPlan local = p.plan_repair(0, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  // Drop share 0's group partners (its partner data share and local parity).
  std::vector<int> live;
  for (const auto& f : local.fetches) live.push_back(f.share_idx);
  std::vector<int> degraded;
  for (int i = 1; i < 10; ++i) {
    if (std::find(live.begin(), live.end(), i) == live.end()) degraded.push_back(i);
  }
  RepairPlan plan = p.plan_repair(0, degraded);
  ASSERT_TRUE(plan.feasible());
  EXPECT_GT(plan.sub_count(), local.sub_count());
  auto rebuilt = p.run_repair(plan, fetch_for_plan(p, plan, shares, value.size()), value.size());
  ASSERT_TRUE(rebuilt.is_ok()) << rebuilt.status().to_string();
  EXPECT_EQ(rebuilt.value(), shares[0]);
}

TEST(EcPolicy, WholeValueRepairMatchesDecode) {
  Rng rng(76);
  for (const Geometry& g : kGeometries) {
    const EcPolicy& p = PolicyCache::get(g.code, g.x, g.n);
    const Bytes value = random_value(&rng, 12345);
    const std::vector<Bytes> shares = p.encode(value);
    std::vector<int> all;
    for (int i = 0; i < g.n; ++i) all.push_back(i);
    RepairPlan plan = p.plan_repair(RepairPlan::kWholeValue, all);
    ASSERT_TRUE(plan.feasible());
    auto got = p.run_repair(plan, fetch_for_plan(p, plan, shares, value.size()), value.size());
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), value) << ec::to_string(g.code);
  }
}

TEST(EcPolicy, GetCheckedRejectsCorruptWireParams) {
  // Wire-derived (code, x, n) triples go through get_checked, which must
  // return a Status — never assert, never narrow u64 -> int silently.
  EXPECT_FALSE(PolicyCache::get_checked(3, 2, 4).is_ok());     // unknown code id
  EXPECT_FALSE(PolicyCache::get_checked(0, 0, 4).is_ok());     // x < 1
  EXPECT_FALSE(PolicyCache::get_checked(0, 5, 4).is_ok());     // x > n
  EXPECT_FALSE(PolicyCache::get_checked(0, 2, 300).is_ok());   // n > 255
  EXPECT_FALSE(PolicyCache::get_checked(0, (1ull << 40) + 2, (1ull << 40) + 4).is_ok());
  EXPECT_FALSE(PolicyCache::get_checked(1, 4, 5).is_ok());     // lrc needs n-x >= 2
  EXPECT_FALSE(PolicyCache::get_checked(2, 14, 15).is_ok());   // hh needs n-x >= 2
  EXPECT_FALSE(PolicyCache::get_checked(1, 10, 32).is_ok());   // lrc caps n at 16
  auto ok = PolicyCache::get_checked(1, 4, 10);
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value()->id(), CodeId::kLrc);
  // rs accepts the full 1 <= x <= n <= 255 range get() always allowed.
  EXPECT_TRUE(PolicyCache::get_checked(0, 200, 255).is_ok());
}

TEST(EcPolicy, CodeIdRoundTrip) {
  for (CodeId c : {CodeId::kRs, CodeId::kLrc, CodeId::kHh}) {
    auto parsed = ec::parse_code_id(ec::to_string(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, c);
  }
  EXPECT_FALSE(ec::parse_code_id("xor").has_value());
}

// The loop threads of the servers one process hosts (a TcpCluster) hit
// RsCodeCache::get / PolicyCache::get concurrently while encoding and
// decoding. Run under TSan via the tsan preset.
TEST(EcPolicy, CachesAreThreadSafe) {
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const Geometry& g = kGeometries[rng.next_below(std::size(kGeometries))];
        const EcPolicy& p = PolicyCache::get(g.code, g.x, g.n);
        const ec::RsCode& rs = ec::RsCodeCache::get(g.x, g.n);
        Bytes value = random_value(&rng, 64 + rng.next_below(256));
        auto shares = p.encode(value);
        std::map<int, Bytes> input;
        for (int s = 0; s < g.n && static_cast<int>(input.size()) < p.any_subset_decodable();
             ++s) {
          input[s] = shares[static_cast<size_t>(s)];
        }
        auto dec = p.decode(input, value.size());
        ASSERT_TRUE(dec.is_ok());
        ASSERT_EQ(dec.value(), value);
        ASSERT_EQ(rs.share_size(value.size()), (value.size() + static_cast<size_t>(g.x) - 1) /
                                                   static_cast<size_t>(g.x));
      }
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace rspaxos
