// Adversary-schedule fuzzing: full scenarios with Byzantine reply
// tampering, mixed behaviors, and churn, across several seeds. The
// assertions are liveness/sanity envelopes (rates in range, accounting
// consistent, bit-identical reruns); the real bite is running this under
// the ASan+UBSan+PQS_DCHECKS build of scripts/check.sh step 5, where any
// leaked event, stale OpTable handle, or tampered-reply lifetime bug
// trips instead of silently corrupting metrics.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <cmath>

#include "scenario_test_util.h"

namespace pqs::core {
namespace {

using sim::ByzantineBehavior;

ScenarioParams fuzz_params(std::uint64_t seed) {
    ScenarioParams p;
    p.world.n = 60;
    p.world.seed = seed;
    p.world.oracle_neighbors = true;
    p.spec.eps = 0.1;
    p.spec.advertise.kind = StrategyKind::kRandom;
    p.spec.lookup.kind = StrategyKind::kRandom;
    p.spec.byzantine_b = 2;
    p.byzantine.b = 2;
    p.byzantine.mix = {ByzantineBehavior::kLieFabricate,
                       ByzantineBehavior::kDropReply,
                       ByzantineBehavior::kLieStale,
                       ByzantineBehavior::kReplay};
    // One budget slot reserved for a churn-recruited joiner.
    p.byzantine.recruit_joiners = 1;
    // Masking quorums outgrow the default 2*sqrt(n) membership view; a
    // capped view would silently shrink every quorum below the masking
    // size (see DESIGN.md §12).
    p.membership_view = p.world.n;
    p.advertise_count = 15;
    p.lookup_count = 30;
    p.lookup_nodes = 8;
    p.warmup = 10 * sim::kSecond;
    p.op_spacing = 100 * sim::kMillisecond;
    p.op_max_attempts = 2;
    // Step churn between the phases: failures plus joins, so the held-back
    // adversary slot actually gets recruited from a late joiner.
    p.fail_fraction = 0.15;
    p.join_fraction = 0.10;
    return p;
}

void expect_rates_sane(const ScenarioResult& r) {
    for (const ScenarioMetric& m : scenario_metrics()) {
        EXPECT_TRUE(std::isfinite(m.get(r))) << m.name;
    }
    EXPECT_GE(r.hit_ratio, 0.0);
    EXPECT_LE(r.hit_ratio, 1.0);
    EXPECT_GE(r.inconclusive_rate, 0.0);
    EXPECT_LE(r.inconclusive_rate, 1.0);
    EXPECT_GE(r.timeout_rate, 0.0);
    EXPECT_LE(r.timeout_rate, 1.0);
    EXPECT_GE(r.load.mrw_load, 0.0);
    EXPECT_LE(r.load.mrw_load, 1.0);
    EXPECT_TRUE(r.aborted == 0.0 || r.aborted == 1.0);
}

TEST(ByzantineFuzz, MixedBehaviorsUnderChurnStaySane) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        const ScenarioResult r = run_scenario(fuzz_params(seed));
        expect_rates_sane(r);
        ASSERT_EQ(r.aborted, 0.0);
        // The static part of the budget is always marked; the held-back
        // joiner slot fills iff churn produced a joiner.
        EXPECT_GE(r.byzantine_marked, 1.0);
        EXPECT_LE(r.byzantine_marked, 2.0);
        // Voting + retries keep the service useful despite the adversary.
        EXPECT_GT(r.hit_ratio, 0.5);
    }
}

TEST(ByzantineFuzz, RerunIsBitIdentical) {
    // The adversary draws from its own forked RNG stream, so a repeat run
    // of the same seed must reproduce every metric exactly — this is what
    // makes the fuzz seeds above regression tests rather than noise.
    const ScenarioResult a = run_scenario(fuzz_params(3));
    const ScenarioResult b = run_scenario(fuzz_params(3));
    expect_bit_identical(a, b);
}

TEST(ByzantineFuzz, TotalCorruptionDegradesConclusively) {
    // Adversary far beyond the provisioned budget: 55 of 60 nodes drop
    // every reply they owe (the 5 honest survivors can rarely muster the
    // > b concurring replies a vote needs). The run must stay crash-free
    // and report the damage as misses/timeouts/inconclusives — not fake
    // hits.
    ScenarioParams p = fuzz_params(7);
    p.byzantine.b = 55;
    p.byzantine.mix = {ByzantineBehavior::kDropReply};
    p.byzantine.recruit_joiners = 0;
    p.fail_fraction = 0.0;
    p.join_fraction = 0.0;
    p.lookup_count = 20;
    const ScenarioResult r = run_scenario(p);
    expect_rates_sane(r);
    EXPECT_EQ(r.byzantine_marked, 55.0);
    EXPECT_GT(r.byzantine_tampered, 0.0);
    EXPECT_LT(r.hit_ratio, 0.5);
}

TEST(ByzantineFuzz, FabricationBeyondBudgetNeverFakesConclusiveHits) {
    // All-fabricate adversary at twice the defended budget: forged values
    // collude per key, so the danger is a wrong-but-conclusive vote. The
    // honest quorum intersection still outnumbers 4 liars at these sizes
    // often enough that the service keeps working; what it must never do
    // is crash or report rates out of range.
    ScenarioParams p = fuzz_params(11);
    p.byzantine.b = 4;  // spec.byzantine_b stays 2
    p.byzantine.mix = {ByzantineBehavior::kLieFabricate};
    p.byzantine.recruit_joiners = 0;
    const ScenarioResult r = run_scenario(p);
    expect_rates_sane(r);
    ASSERT_EQ(r.aborted, 0.0);
    EXPECT_EQ(r.byzantine_marked, 4.0);
    EXPECT_GT(r.byzantine_tampered, 0.0);
}

}  // namespace
}  // namespace pqs::core
