// b-masking sizing and voting (Malkhi-Reiter-Wool generalization of
// Corollary 5.3): property grids for the closed-form failure bound,
// bit-exact b = 0 reduction to the plain ε-intersection formulas,
// Monte-Carlo validation of the bound at the derived sizes, unit
// properties of the value-voting rule, and one voting lookup end to end.
#include "core/biquorum.h"
#include "core/theory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/location_service.h"
#include "membership/oracle_membership.h"
#include "stat_test_util.h"
#include "util/rng.h"

namespace pqs::core {
namespace {

// ---------- Closed-form bound: property grids ----------

TEST(MaskingBound, IncreasesWithFaultBudget) {
    // More tolerated traitors => weaker guarantee at fixed sizes.
    const std::size_t n = 500, qa = 60, ql = 60;
    double prev = masking_failure_bound(qa, ql, n, 0);
    EXPECT_EQ(prev, nonintersection_upper_bound(qa, ql, n));
    for (std::size_t b = 1; b <= 8; ++b) {
        const double cur = masking_failure_bound(qa, ql, n, b);
        EXPECT_GE(cur, prev) << "b=" << b;
        if (cur < 1.0) {  // strict until the bound saturates at 1
            EXPECT_GT(cur, prev) << "b=" << b;
        }
        EXPECT_LE(cur, 1.0) << "b=" << b;
        prev = cur;
    }
}

TEST(MaskingBound, DecreasesWithQuorumSizes) {
    const std::size_t n = 500, b = 3;
    for (std::size_t qa = 40; qa <= 120; qa += 10) {
        EXPECT_LE(masking_failure_bound(qa + 10, 60, n, b),
                  masking_failure_bound(qa, 60, n, b))
            << "qa=" << qa;
        EXPECT_LE(masking_failure_bound(60, qa + 10, n, b),
                  masking_failure_bound(60, qa, n, b))
            << "ql=" << qa;
    }
}

TEST(MaskingBound, IncreasesWithNetworkSize) {
    // Same sizes spread over more nodes intersect less.
    const std::size_t qa = 60, ql = 60, b = 3;
    double prev = masking_failure_bound(qa, ql, 300, b);
    for (std::size_t n = 400; n <= 1200; n += 100) {
        const double cur = masking_failure_bound(qa, ql, n, b);
        EXPECT_GE(cur, prev) << "n=" << n;
        prev = cur;
    }
}

TEST(MaskingBound, VacuousWhenMeanBelowBudget) {
    // μ = (qa-b)·ql/n <= b puts the Chernoff tail out of range: the bound
    // must clamp to 1, never report false confidence.
    EXPECT_EQ(masking_failure_bound(5, 4, 1000, 4), 1.0);   // μ = 0.004
    EXPECT_EQ(masking_failure_bound(4, 100, 1000, 4), 1.0); // qa == b
}

// ---------- Exact b = 0 reduction ----------

TEST(MaskingReduction, MuMinIsLogInvEpsAtZero) {
    for (const double eps : {0.3, 0.1, 0.01, 1e-4}) {
        EXPECT_NEAR(masking_mu_min(eps, 0), std::log(1.0 / eps), 1e-9)
            << "eps=" << eps;
    }
}

TEST(MaskingReduction, SizingDelegatesAtZero) {
    // The b = 0 sizing paths delegate to the legacy functions, so the
    // reduction is bit-exact across a (n, eps) grid — any drift here
    // would silently resize every non-Byzantine deployment.
    for (const std::size_t n : {50u, 100u, 400u, 1000u, 10000u}) {
        for (const double eps : {0.3, 0.1, 0.01}) {
            EXPECT_EQ(masking_symmetric_quorum_size(n, eps, 0),
                      symmetric_quorum_size(n, eps))
                << "n=" << n << " eps=" << eps;
            const std::size_t qa = symmetric_quorum_size(n, eps) + 5;
            EXPECT_EQ(masking_lookup_size_for(qa, n, eps, 0),
                      lookup_size_for(qa, n, eps))
                << "n=" << n << " eps=" << eps;
        }
    }
}

TEST(MaskingSizing, DerivedSizesMeetEpsilon) {
    for (const std::size_t n : {100u, 400u, 2000u}) {
        for (const std::size_t b : {1u, 2u, 4u, 8u}) {
            const double eps = 0.1;
            const std::size_t q = masking_symmetric_quorum_size(n, eps, b);
            EXPECT_GT(q, b);
            EXPECT_LE(masking_failure_bound(q, q, n, b), eps)
                << "n=" << n << " b=" << b;
            // One less on either side must break the product bound the
            // size was derived from (minimality).
            EXPECT_LT((q - 1 - b) * (q - 1),
                      static_cast<double>(n) * masking_mu_min(eps, b))
                << "n=" << n << " b=" << b;
            // Asymmetric: a larger advertise side buys a smaller lookup.
            const std::size_t ql = masking_lookup_size_for(q + 10, n, eps, b);
            EXPECT_LE(ql, q);
            EXPECT_LE(masking_failure_bound(q + 10, ql, n, b), eps)
                << "n=" << n << " b=" << b;
        }
    }
}

TEST(MaskingSizing, MonotoneInBudgetAndEpsilon) {
    const std::size_t n = 1000;
    for (const double eps : {0.2, 0.1, 0.01}) {
        std::size_t prev = masking_symmetric_quorum_size(n, eps, 0);
        for (const std::size_t b : {1u, 2u, 4u, 8u, 16u}) {
            const std::size_t q = masking_symmetric_quorum_size(n, eps, b);
            EXPECT_GE(q, prev) << "eps=" << eps << " b=" << b;
            prev = q;
        }
    }
    // Tighter eps never shrinks the quorum.
    for (const std::size_t b : {0u, 2u, 8u}) {
        EXPECT_GE(masking_symmetric_quorum_size(n, 0.01, b),
                  masking_symmetric_quorum_size(n, 0.1, b))
            << "b=" << b;
    }
}

// ---------- Monte-Carlo: measured failure rate obeys the bound ----------

// Worst-case adversary placement from the bound's derivation: all b
// faulty nodes sit inside the advertise quorum. A lookup fails to mask
// when its overlap with the honest part of Qa is <= b.
std::size_t mc_masking_failures(std::size_t n, std::size_t q, std::size_t b,
                                std::size_t trials, util::Rng& rng) {
    std::size_t failures = 0;
    std::vector<unsigned char> flags(n);  // 0 out, 1 honest Qa, 2 faulty
    for (std::size_t t = 0; t < trials; ++t) {
        std::fill(flags.begin(), flags.end(), 0);
        std::size_t placed = 0;
        for (const std::size_t idx : rng.sample_without_replacement(n, q)) {
            flags[idx] = placed++ < b ? 2 : 1;
        }
        std::size_t honest_overlap = 0;
        for (const std::size_t idx : rng.sample_without_replacement(n, q)) {
            honest_overlap += flags[idx] == 1 ? 1 : 0;
        }
        failures += honest_overlap <= b ? 1 : 0;
    }
    return failures;
}

TEST(MaskingMonteCarlo, MeasuredFailureWithinBound) {
    // Fixed seeds keep this deterministic; expect_rate_le turns the
    // closed-form bound into a binomial-tail acceptance region, so a
    // failure means the sizing or the bound regressed, not bad luck.
    const std::size_t n = 400;
    const double eps = 0.1;
    const std::size_t trials = 20000;
    for (const std::size_t b : {0u, 1u, 2u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "b=" << b);
        const std::size_t q = masking_symmetric_quorum_size(n, eps, b);
        const double bound = masking_failure_bound(q, q, n, b);
        ASSERT_LE(bound, eps);
        util::Rng rng(0x5eedULL * (b + 1));
        const std::size_t failures = mc_masking_failures(n, q, b, trials, rng);
        test::expect_rate_le(failures, trials, bound);
    }
}

TEST(MaskingMonteCarlo, UndersizedQuorumActuallyFails) {
    // Differential sanity: strip the masking margin back to the plain
    // b = 0 size and the measured failure rate at b = 4 must blow past
    // eps — proving the Monte-Carlo harness can detect failures and the
    // enlarged sizes are doing real work.
    const std::size_t n = 400;
    const double eps = 0.1;
    const std::size_t b = 4;
    const std::size_t q_plain = symmetric_quorum_size(n, eps);
    const std::size_t trials = 20000;
    util::Rng rng(0xfadedULL);
    const std::size_t failures =
        mc_masking_failures(n, q_plain, b, trials, rng);
    test::expect_rate_ge(failures, trials, 2.0 * eps);
}

// ---------- Value voting ----------

TEST(VoteValues, WinnerNeedsStrictMajorityOverBudget) {
    const std::vector<Value> replies = {5, 5, 5, 9};
    const VoteOutcome ok = vote_values(replies, 2);
    EXPECT_TRUE(ok.conclusive);  // 3 > 2
    EXPECT_EQ(ok.winner, 5u);
    EXPECT_EQ(ok.winner_votes, 3u);
    EXPECT_EQ(ok.outvoted, 1u);
    EXPECT_EQ(ok.distinct, 2u);
    EXPECT_FALSE(vote_values(replies, 3).conclusive);  // 3 !> 3
}

TEST(VoteValues, TieBreaksTowardSmallerValue) {
    const VoteOutcome out = vote_values({9, 5, 9, 5}, 1);
    EXPECT_TRUE(out.conclusive);  // 2 > 1
    EXPECT_EQ(out.winner, 5u);
    EXPECT_EQ(out.winner_votes, 2u);
    EXPECT_FALSE(vote_values({9, 5, 9, 5}, 2).conclusive);
}

TEST(VoteValues, OrderIndependent) {
    std::vector<Value> replies = {7, 3, 3, 7, 1, 3};
    std::sort(replies.begin(), replies.end());
    const VoteOutcome ref = vote_values(replies, 1);
    std::size_t checked = 0;
    do {
        const VoteOutcome out = vote_values(replies, 1);
        EXPECT_EQ(out.conclusive, ref.conclusive);
        EXPECT_EQ(out.winner, ref.winner);
        EXPECT_EQ(out.winner_votes, ref.winner_votes);
        EXPECT_EQ(out.outvoted, ref.outvoted);
        EXPECT_EQ(out.distinct, ref.distinct);
        ++checked;
    } while (std::next_permutation(replies.begin(), replies.end()));
    EXPECT_GT(checked, 1u);
}

TEST(VoteValues, EmptyIsInconclusive) {
    const VoteOutcome out = vote_values({}, 0);
    EXPECT_FALSE(out.conclusive);
    EXPECT_EQ(out.winner_votes, 0u);
    EXPECT_EQ(out.distinct, 0u);
}

// ---------- Spec resolution under a masking budget ----------

TEST(MaskingSpec, ResolveUsesMaskingSizesAndForcesCollection) {
    BiquorumSpec spec;
    spec.eps = 0.1;
    spec.byzantine_b = 2;
    spec.advertise.kind = StrategyKind::kRandom;
    spec.lookup.kind = StrategyKind::kRandom;
    spec.resolve_sizes(400);
    EXPECT_EQ(spec.advertise.quorum_size,
              masking_symmetric_quorum_size(400, 0.1, 2));
    EXPECT_EQ(spec.lookup.quorum_size, spec.advertise.quorum_size);
    // Voting needs every reply of the attempt, not just the first hit.
    EXPECT_TRUE(spec.lookup.collect_all_replies);
}

TEST(MaskingSpec, AsymmetricResolutionFromAdvertise) {
    BiquorumSpec spec;
    spec.eps = 0.1;
    spec.byzantine_b = 2;
    spec.advertise.quorum_size = 80;
    spec.resolve_sizes(400);
    EXPECT_EQ(spec.lookup.quorum_size,
              masking_lookup_size_for(80, 400, 0.1, 2));
}

TEST(MaskingSpec, ZeroBudgetMatchesLegacyResolution) {
    BiquorumSpec masked, plain;
    masked.eps = plain.eps = 0.1;
    masked.byzantine_b = 0;
    masked.resolve_sizes(800);
    plain.resolve_sizes(800);
    EXPECT_EQ(masked.advertise.quorum_size, plain.advertise.quorum_size);
    EXPECT_EQ(masked.lookup.quorum_size, plain.lookup.quorum_size);
    EXPECT_FALSE(masked.lookup.collect_all_replies);
}

// ---------- A voting lookup end to end ----------

// A b > 0 lookup collects every member's answer, one that lacks the key
// with a miss. With no member withholding its answer, it ends at the last
// one, with no reply-grace expiry, and returns the voted value. Half the
// network holds the key and the lookup asks every node, so the vote is
// decided by the stores, not by the draw of the quorums.
TEST(MaskingLookup, EndsAtItsLastAnswerWithTheVotedValue) {
    constexpr std::size_t kN = 40;
    net::WorldParams wp;
    wp.n = kN;
    wp.seed = 5;
    wp.oracle_neighbors = true;
    net::World world(wp);
    membership::OracleMembership membership(
        world, membership::OracleMembershipParams{kN});
    BiquorumSpec spec;
    spec.byzantine_b = 2;
    spec.advertise.kind = StrategyKind::kRandom;
    spec.lookup.kind = StrategyKind::kRandom;
    spec.advertise.quorum_size = kN;
    spec.lookup.quorum_size = kN;
    LocationService service(world, spec, &membership);
    world.start();
    for (util::NodeId id = 0; id < kN; id += 2) {
        service.store(id).store_owner(42, 4242);
    }

    AccessResult look;
    bool done = false;
    service.lookup(3, 42, [&](const AccessResult& r) {
        look = r;
        done = true;
    });
    const sim::Time deadline = world.simulator().now() + 60 * sim::kSecond;
    while (!done && world.simulator().now() < deadline &&
           world.simulator().step()) {
    }
    ASSERT_TRUE(done);
    ASSERT_TRUE(look.ok);
    EXPECT_EQ(look.value, 4242u);
    EXPECT_EQ(look.winner_votes, kN / 2);
    EXPECT_EQ(look.attempts, 1);
    EXPECT_LT(look.latency, sim::kSecond);
    EXPECT_EQ(world.kernel_stats().reply_grace_expiries, 0u);
}

}  // namespace
}  // namespace pqs::core
