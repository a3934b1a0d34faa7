// Per-strategy behaviour tests: each access strategy advertises and looks
// up on a real (abstract-fidelity) network and must deliver the paper's
// basic guarantees — hits on published keys, definite misses on unknown
// keys, early halting, cross-layer behaviours.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/location_service.h"
#include "membership/oracle_membership.h"

namespace pqs::core {
namespace {

struct Services {
    std::unique_ptr<net::World> world;
    std::unique_ptr<membership::OracleMembership> membership;
    std::unique_ptr<LocationService> service;
};

Services build(StrategyKind advertise, StrategyKind lookup, std::size_t n,
               std::uint64_t seed = 1,
               std::function<void(BiquorumSpec&)> tweak = {},
               bool with_membership = true) {
    Services s;
    net::WorldParams wp;
    wp.n = n;
    wp.seed = seed;
    wp.oracle_neighbors = true;
    s.world = std::make_unique<net::World>(wp);
    if (with_membership) {
        s.membership =
            std::make_unique<membership::OracleMembership>(*s.world);
    }
    BiquorumSpec spec;
    spec.advertise.kind = advertise;
    spec.lookup.kind = lookup;
    spec.eps = 0.05;
    if (tweak) {
        tweak(spec);
    }
    s.service = std::make_unique<LocationService>(*s.world, spec,
                                                  s.membership.get());
    s.world->start();
    return s;
}

AccessResult run_advertise(Services& s, util::NodeId origin, util::Key key,
                           Value value) {
    AccessResult out;
    bool done = false;
    s.service->advertise(origin, key, value, [&](const AccessResult& r) {
        out = r;
        done = true;
    });
    const sim::Time deadline = s.world->simulator().now() + 60 * sim::kSecond;
    while (!done && s.world->simulator().now() < deadline &&
           s.world->simulator().step()) {
    }
    EXPECT_TRUE(done) << "advertise did not resolve";
    return out;
}

AccessResult run_lookup(Services& s, util::NodeId origin, util::Key key) {
    AccessResult out;
    bool done = false;
    s.service->lookup(origin, key, [&](const AccessResult& r) {
        out = r;
        done = true;
    });
    const sim::Time deadline = s.world->simulator().now() + 90 * sim::kSecond;
    while (!done && s.world->simulator().now() < deadline &&
           s.world->simulator().step()) {
    }
    EXPECT_TRUE(done) << "lookup did not resolve";
    return out;
}

// ---- RANDOM x RANDOM (the Malkhi et al. baseline, §5.1) ----

TEST(RandomRandom, AdvertiseThenHit) {
    Services s = build(StrategyKind::kRandom, StrategyKind::kRandom, 60);
    const AccessResult adv = run_advertise(s, 3, 42, 4242);
    EXPECT_TRUE(adv.ok);
    EXPECT_GT(adv.nodes_contacted, 0u);
    const AccessResult look = run_lookup(s, 17, 42);
    EXPECT_TRUE(look.ok);
    EXPECT_EQ(look.value, 4242u);
}

TEST(RandomRandom, MissOnUnknownKey) {
    Services s = build(StrategyKind::kRandom, StrategyKind::kRandom, 60);
    const AccessResult look = run_lookup(s, 17, 999);
    EXPECT_FALSE(look.ok);
    EXPECT_FALSE(look.intersected);
}

TEST(RandomRandom, AdvertiseStoresAtQuorumNodes) {
    Services s = build(StrategyKind::kRandom, StrategyKind::kRandom, 60);
    run_advertise(s, 3, 42, 4242);
    std::size_t holders = 0;
    for (util::NodeId id = 0; id < 60; ++id) {
        holders += s.service->store(id).is_owner(42) ? 1 : 0;
    }
    const std::size_t q = s.service->biquorum().spec().advertise.quorum_size;
    EXPECT_GE(holders, q - 2);  // origin loopback may overlap targets
    EXPECT_LE(holders, q + 1);
}

TEST(RandomSerial, EarlyHaltsOnFirstHit) {
    Services s = build(StrategyKind::kRandom, StrategyKind::kRandom, 60, 2,
                       [](BiquorumSpec& spec) { spec.lookup.serial = true; });
    run_advertise(s, 3, 7, 70);
    const AccessResult look = run_lookup(s, 20, 7);
    EXPECT_TRUE(look.ok);
    // Serial access stops early: fewer targets contacted than the quorum.
    EXPECT_LT(look.nodes_contacted,
              s.service->biquorum().spec().lookup.quorum_size);
}

// ---- RANDOM-OPT (§4.5) ----

TEST(RandomOpt, FewTargetsStillHit) {
    Services s = build(StrategyKind::kRandom, StrategyKind::kRandomOpt, 80, 4,
                       [](BiquorumSpec& spec) {
                           // ln(80) ~ 4.4 routed targets (§8.2).
                           spec.lookup.quorum_size = 5;
                       });
    run_advertise(s, 3, 11, 110);
    const AccessResult look = run_lookup(s, 40, 11);
    EXPECT_TRUE(look.ok);
    EXPECT_EQ(look.value, 110u);
}

TEST(RandomOpt, AdvertiseStoresEnRoute) {
    Services s = build(StrategyKind::kRandomOpt, StrategyKind::kRandom, 80, 5,
                       [](BiquorumSpec& spec) {
                           spec.advertise.quorum_size = 4;
                       });
    run_advertise(s, 0, 13, 130);
    std::size_t holders = 0;
    for (util::NodeId id = 0; id < 80; ++id) {
        holders += s.service->store(id).is_owner(13) ? 1 : 0;
    }
    // En-route storage: more holders than explicit targets.
    EXPECT_GT(holders, 4u);
}

// ---- PATH and UNIQUE-PATH (§4.2, §4.3) ----

TEST(UniquePath, AdvertiseCoversExactTarget) {
    Services s = build(StrategyKind::kUniquePath, StrategyKind::kUniquePath,
                       60, 6);
    const AccessResult adv = run_advertise(s, 3, 21, 210);
    EXPECT_TRUE(adv.ok);
    EXPECT_EQ(adv.nodes_contacted,
              s.service->biquorum().spec().advertise.quorum_size);
    std::size_t holders = 0;
    for (util::NodeId id = 0; id < 60; ++id) {
        holders += s.service->store(id).is_owner(21) ? 1 : 0;
    }
    EXPECT_EQ(holders, adv.nodes_contacted);
}

TEST(UniquePath, LookupHitsAndRepliesOverReversePath) {
    Services s = build(StrategyKind::kRandom, StrategyKind::kUniquePath, 60,
                       7);
    run_advertise(s, 3, 33, 330);
    const std::uint64_t routing_before = s.world->kernel_stats().routing_tx;
    const AccessResult look = run_lookup(s, 25, 33);
    EXPECT_TRUE(look.ok);
    EXPECT_EQ(look.value, 330u);
    // Walk + reverse-path reply: no routing at all (§8.3).
    EXPECT_EQ(s.world->kernel_stats().routing_tx, routing_before);
}

TEST(UniquePath, EarlyHaltingShortensWalk) {
    Services s = build(StrategyKind::kRandom, StrategyKind::kUniquePath, 60,
                       8);
    run_advertise(s, 3, 44, 440);
    const AccessResult look = run_lookup(s, 25, 44);
    ASSERT_TRUE(look.ok);
    // Early halt: strictly fewer nodes than the full target quorum
    // (the advertise quorum covers ~1/3 of this small network, so the
    // first hit comes early).
    EXPECT_LT(look.nodes_contacted,
              s.service->biquorum().spec().lookup.quorum_size);
}

TEST(UniquePath, NoEarlyHaltWalksFullQuorumAnyway) {
    // Without early halting the walk keeps going after the first hit (the
    // reply races home earlier, so we check the *message* cost, not the
    // resolution-time counter).
    Services s = build(StrategyKind::kRandom, StrategyKind::kUniquePath, 60,
                       8, [](BiquorumSpec& spec) {
                           spec.lookup.early_halt = false;
                       });
    run_advertise(s, 3, 44, 440);
    const std::uint64_t before = s.world->kernel_stats().data_tx;
    const AccessResult look = run_lookup(s, 25, 44);
    ASSERT_TRUE(look.ok);
    // Let the walk finish even though the op already resolved.
    s.world->simulator().run_until(s.world->simulator().now() +
                                   5 * sim::kSecond);
    const std::uint64_t walk_msgs = s.world->kernel_stats().data_tx - before;
    // The walk alone needs >= quorum_size - 1 transmissions.
    EXPECT_GE(walk_msgs,
              s.service->biquorum().spec().lookup.quorum_size - 1);
}

TEST(UniquePath, MissResolvesWithoutTimeout) {
    Services s = build(StrategyKind::kRandom, StrategyKind::kUniquePath, 60,
                       9);
    const AccessResult look = run_lookup(s, 25, 888);
    EXPECT_FALSE(look.ok);
    EXPECT_FALSE(look.timed_out);
    EXPECT_EQ(look.nodes_contacted,
              s.service->biquorum().spec().lookup.quorum_size);
}

TEST(Path, SimpleWalkAlsoWorks) {
    Services s = build(StrategyKind::kPath, StrategyKind::kPath, 50, 10,
                       [](BiquorumSpec& spec) {
                           // PATH x PATH needs large quorums (§5.3);
                           // make them half the network each.
                           spec.advertise.quorum_size = 25;
                           spec.lookup.quorum_size = 25;
                       });
    const AccessResult adv = run_advertise(s, 0, 55, 550);
    EXPECT_TRUE(adv.ok);
    const AccessResult look = run_lookup(s, 30, 55);
    EXPECT_TRUE(look.ok);
}

// ---- FLOODING (§4.4) ----

TEST(Flooding, LookupWithinTtlHits) {
    Services s = build(StrategyKind::kRandom, StrategyKind::kFlooding, 60, 11,
                       [](BiquorumSpec& spec) { spec.lookup.flood_ttl = 4; });
    run_advertise(s, 3, 66, 660);
    const AccessResult look = run_lookup(s, 25, 66);
    EXPECT_TRUE(look.ok);
    EXPECT_EQ(look.value, 660u);
    EXPECT_GT(look.nodes_contacted, 1u);
}

TEST(Flooding, CoverageGrowsWithTtl) {
    std::size_t covered1 = 0;
    std::size_t covered3 = 0;
    for (const int ttl : {1, 3}) {
        Services s = build(StrategyKind::kRandom, StrategyKind::kFlooding,
                           100, 12, [ttl](BiquorumSpec& spec) {
                               spec.lookup.flood_ttl = ttl;
                           });
        const AccessResult look = run_lookup(s, 25, 77);  // miss: full flood
        (ttl == 1 ? covered1 : covered3) = look.nodes_contacted;
    }
    EXPECT_GT(covered3, covered1 * 2);
}

TEST(Flooding, AdvertiseJoinProbability) {
    Services s = build(StrategyKind::kFlooding, StrategyKind::kRandom, 100,
                       13, [](BiquorumSpec& spec) {
                           spec.advertise.flood_ttl = 30;  // whole network
                           spec.advertise.quorum_size = 20;
                       });
    const AccessResult adv = run_advertise(s, 0, 88, 880);
    EXPECT_TRUE(adv.ok);
    // ~quorum_size of the ~100 covered nodes join.
    EXPECT_GT(adv.nodes_contacted, 5u);
    EXPECT_LT(adv.nodes_contacted, 45u);
}

TEST(Flooding, ExpandingRingStopsEarlyOnHit) {
    // Advertise everywhere so TTL-1 floods already hit: the expanding ring
    // must stop at TTL 1 and cover only the neighborhood.
    Services s = build(StrategyKind::kFlooding, StrategyKind::kFlooding, 80,
                       14, [](BiquorumSpec& spec) {
                           spec.advertise.flood_ttl = 30;
                           spec.advertise.quorum_size = 80;  // all join
                           spec.lookup.expanding_ring = true;
                           spec.lookup.flood_ttl = 5;
                       });
    run_advertise(s, 0, 99, 990);
    const AccessResult look = run_lookup(s, 40, 99);
    ASSERT_TRUE(look.ok);
    EXPECT_LE(look.nodes_contacted,
              s.world->physical_neighbors(40).size() + 1);
}

// ---- Asymmetric mixes (the paper's headline configurations) ----

struct MixCase {
    StrategyKind advertise;
    StrategyKind lookup;
};

class MixAndMatch : public ::testing::TestWithParam<MixCase> {};

TEST_P(MixAndMatch, AdvertiseLookupRoundTrip) {
    const auto [adv_kind, lkp_kind] = GetParam();
    Services s = build(adv_kind, lkp_kind, 60, 20,
                       [&](BiquorumSpec& spec) {
                           if (spec.lookup.kind == StrategyKind::kFlooding) {
                               spec.lookup.flood_ttl = 4;
                           }
                           if (spec.advertise.kind ==
                               StrategyKind::kFlooding) {
                               spec.advertise.flood_ttl = 30;
                               spec.advertise.quorum_size = 25;
                           }
                       });
    run_advertise(s, 1, 123, 1230);
    const AccessResult look = run_lookup(s, 35, 123);
    EXPECT_TRUE(look.ok) << "mix advertise="
                         << strategy_name(adv_kind)
                         << " lookup=" << strategy_name(lkp_kind);
    EXPECT_EQ(look.value, 1230u);
}

INSTANTIATE_TEST_SUITE_P(
    Combinations, MixAndMatch,
    ::testing::Values(MixCase{StrategyKind::kRandom, StrategyKind::kRandom},
                      MixCase{StrategyKind::kRandom,
                              StrategyKind::kUniquePath},
                      MixCase{StrategyKind::kRandom, StrategyKind::kPath},
                      MixCase{StrategyKind::kRandom, StrategyKind::kFlooding},
                      MixCase{StrategyKind::kRandom,
                              StrategyKind::kRandomOpt},
                      MixCase{StrategyKind::kUniquePath,
                              StrategyKind::kRandom},
                      MixCase{StrategyKind::kFlooding,
                              StrategyKind::kRandom}));

// ---- Configurations the strategies refuse ----

TEST(MakeStrategy, RandomSamplingHasOnlyAClosedForm) {
    for (const MixCase mix :
         {MixCase{StrategyKind::kRandomSampling, StrategyKind::kRandom},
          MixCase{StrategyKind::kRandom, StrategyKind::kRandomSampling}}) {
        EXPECT_THROW(build(mix.advertise, mix.lookup, 30),
                     std::invalid_argument);
    }
}

// RANDOM and RANDOM-OPT draw their targets from a membership view.
class NullMembership : public ::testing::TestWithParam<MixCase> {};

TEST_P(NullMembership, RandomSideRefuses) {
    const auto [adv_kind, lkp_kind] = GetParam();
    EXPECT_THROW(build(adv_kind, lkp_kind, 30, 1, {},
                       /*with_membership=*/false),
                 std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    RandomSides, NullMembership,
    ::testing::Values(MixCase{StrategyKind::kRandom,
                              StrategyKind::kUniquePath},
                      MixCase{StrategyKind::kUniquePath,
                              StrategyKind::kRandom},
                      MixCase{StrategyKind::kRandomOpt,
                              StrategyKind::kFlooding},
                      MixCase{StrategyKind::kFlooding,
                              StrategyKind::kRandomOpt}));

// Walks and floods never read the view, so they run without one.
TEST(NullMembershipWalks, UniquePathFloodingRoundTrip) {
    Services s = build(StrategyKind::kUniquePath, StrategyKind::kFlooding,
                       60, 20,
                       [](BiquorumSpec& spec) { spec.lookup.flood_ttl = 4; },
                       /*with_membership=*/false);
    const AccessResult adv = run_advertise(s, 1, 123, 1230);
    EXPECT_TRUE(adv.ok);
    const AccessResult look = run_lookup(s, 35, 123);
    EXPECT_TRUE(look.ok);
    EXPECT_EQ(look.value, 1230u);
}

}  // namespace
}  // namespace pqs::core
