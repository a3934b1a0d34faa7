// Per-strategy behaviour tests: each access strategy advertises and looks
// up on a real (abstract-fidelity) network and must deliver the paper's
// basic guarantees — hits on published keys, definite misses on unknown
// keys, early halting, cross-layer behaviours, when a collect-all lookup
// or a version query ends, and a faulty member's forged answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "core/location_service.h"
#include "membership/oracle_membership.h"
#include "net/tamper.h"
#include "obs/trace.h"

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

// A node for which `forges` holds answers every lookup for a key it lacks
// with kLie, as a faulty member does under the masking threat model. Every
// lookup reply node `muted` sends is lost, as a Byzantine drop (or a lost
// packet) would lose it.
struct LookupTamper final : net::ReplyTamper {
    static constexpr Value kLie = 666;
    std::function<bool(util::NodeId)> forges = [](util::NodeId) {
        return false;
    };
    util::NodeId muted = util::kInvalidNode;

    net::TamperVerdict on_send(util::NodeId at, const net::AppMsgPtr& msg,
                               net::AppMsgPtr&) override {
        const bool reply =
            dynamic_cast<const QuorumReplyMsg*>(msg.get()) != nullptr;
        return at == muted && reply ? net::TamperVerdict::kDrop
                                    : net::TamperVerdict::kPass;
    }
    bool on_reply_value(util::NodeId, std::uint64_t, std::uint64_t&,
                        std::uint64_t) override {
        return true;
    }
    bool on_lookup_miss(util::NodeId at, std::uint64_t,
                        std::uint64_t& forged_value) override {
        forged_value = kLie;
        return forges(at);
    }
};

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
    // No member answers, so the reply grace ends the lookup.
    EXPECT_EQ(s.world->kernel_stats().reply_grace_expiries, 1u);
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

// A serial lookup asks for miss replies, yet a faulty member still forges
// on a miss: its tamper goes before the honest miss.
TEST(RandomSerial, FaultyMemberForgesOnAMiss) {
    LookupTamper tamper;
    tamper.forges = [](util::NodeId) { return true; };
    Services s = build(StrategyKind::kRandom, StrategyKind::kRandom, 60, 2,
                       [](BiquorumSpec& spec) { spec.lookup.serial = true; });
    s.world->set_tamper(&tamper);
    const AccessResult look = run_lookup(s, 20, 7);  // never advertised
    EXPECT_TRUE(look.ok);
    EXPECT_EQ(look.value, LookupTamper::kLie);
    EXPECT_EQ(look.nodes_contacted, 1u);
}

// A serial lookup stops asking at its first hit, so it can never collect
// every member's value: RANDOM refuses serial with collect_all_replies,
// also when b-masking forces collection.
TEST(RandomSerial, CollectingAllRepliesIsRefused) {
    const auto refused = [](std::function<void(BiquorumSpec&)> tweak) {
        try {
            build(StrategyKind::kRandom, StrategyKind::kRandom, 60, 2,
                  std::move(tweak));
        } catch (const std::invalid_argument& e) {
            return std::string(e.what()).find("serial") != std::string::npos;
        }
        return false;
    };
    EXPECT_TRUE(refused([](BiquorumSpec& spec) {
        spec.lookup.serial = true;
        spec.lookup.collect_all_replies = true;
    }));
    EXPECT_TRUE(refused([](BiquorumSpec& spec) {
        spec.lookup.serial = true;
        spec.byzantine_b = 1;
    }));
    EXPECT_FALSE(
        refused([](BiquorumSpec& spec) { spec.lookup.serial = true; }));
}

// ---- Collect-all lookups and version queries on a line ----

// A line 0 - 1 - ... - 7, 150 m apart with a 200 m range: node i is i hops
// from node 0, the origin of every lookup here. Lookups collect every
// reply, so every member answers, one that lacks the key with a miss.
// Directed ones ask the targets the test picks; undirected ones ask every
// node, since each membership view holds all eight.
struct DirectedLine : ::testing::Test {
    static constexpr std::size_t kN = 8;
    static constexpr util::Key kKey = 5;
    static constexpr Value kValue = 50;
    LookupTamper tamper;  // installed by the tests that need it
    std::unique_ptr<net::World> world;
    std::unique_ptr<membership::OracleMembership> membership;
    std::unique_ptr<LocationService> service;

    void SetUp() override {
        net::WorldParams wp;
        wp.n = kN;
        wp.seed = 3;
        wp.ensure_connected = false;
        wp.oracle_neighbors = true;
        world = std::make_unique<net::World>(wp);
        for (util::NodeId id = 0; id < kN; ++id) {
            world->set_position(id, {150.0 * id, 0.0});
        }
        membership = std::make_unique<membership::OracleMembership>(
            *world, membership::OracleMembershipParams{kN});
        BiquorumSpec spec;
        spec.advertise.kind = StrategyKind::kRandom;
        spec.lookup.kind = StrategyKind::kRandom;
        spec.lookup.collect_all_replies = true;
        spec.lookup.quorum_size = kN;
        service = std::make_unique<LocationService>(*world, spec,
                                                    membership.get());
        world->start();
    }

    void hold(std::initializer_list<util::NodeId> holders) {
        for (const util::NodeId id : holders) {
            service->store(id).store_owner(kKey, kValue);
        }
    }

    AccessResult await(const std::function<void(AccessCallback)>& issue) {
        AccessResult out;
        bool done = false;
        issue([&](const AccessResult& r) {
            out = r;
            done = true;
        });
        const sim::Time deadline =
            world->simulator().now() + 60 * sim::kSecond;
        while (!done && world->simulator().now() < deadline &&
               world->simulator().step()) {
        }
        EXPECT_TRUE(done) << "lookup did not resolve";
        return out;
    }

    AccessResult lookup(const std::vector<util::NodeId>& targets) {
        return await([&](AccessCallback done) {
            service->biquorum().lookup(0, kKey, std::move(done), targets);
        });
    }

    // An undirected lookup, which asks every node, as a version query does.
    AccessResult ask_all() {
        return await([&](AccessCallback done) {
            service->biquorum().lookup(0, kKey, std::move(done));
        });
    }

    // The nodes whose stores hold the key, in id order.
    std::vector<util::NodeId> holders() {
        std::vector<util::NodeId> ids;
        for (util::NodeId id = 0; id < kN; ++id) {
            if (service->store(id).find(kKey)) {
                ids.push_back(id);
            }
        }
        return ids;
    }

    static std::vector<util::NodeId> sorted(std::vector<util::NodeId> ids) {
        std::sort(ids.begin(), ids.end());
        return ids;
    }

    std::uint64_t grace_expiries() const {
        return world->kernel_stats().reply_grace_expiries;
    }

    // When the origin recorded a `kind` event of `trace` (0 if never).
    static sim::Time origin_event_time(const obs::TraceSink& sink,
                                       obs::TraceId trace,
                                       obs::EventKind kind) {
        for (std::size_t i = 0; i < sink.size(); ++i) {
            const obs::TraceEvent& e = sink.event(i);
            if (e.trace == trace && e.node == 0 && e.kind == kind) {
                return e.t;
            }
        }
        return 0;
    }
};

// With every link delivery arriving twice, a member hears each request
// 2^hops times and answers every copy. The lookup still holds one value
// per responder: a repeated reply adds no value, vote or responder.
TEST_F(DirectedLine, DuplicatedDeliveriesCountEachResponderOnce) {
    hold({1, 2, 3});
    world->link().set_fault_injection(net::LinkFaults{0.0, 1.0});
    obs::TraceSink sink(world->simulator(), 1 << 14);
    obs::ScopedTraceSink scope(&sink);
    const AccessResult look = lookup({1, 2, 3});
    ASSERT_TRUE(look.ok);
    EXPECT_EQ(sorted(look.responders), (std::vector<util::NodeId>{1, 2, 3}));
    EXPECT_EQ(look.values, (std::vector<Value>(3, kValue)));
    // Replies did arrive more than once each.
    std::size_t replies_delivered = 0;
    for (std::size_t i = 0; i < sink.size(); ++i) {
        const obs::TraceEvent& e = sink.event(i);
        replies_delivered += e.trace == look.trace && e.node == 0 &&
                             e.kind == obs::EventKind::kPacketDeliver;
    }
    EXPECT_GT(replies_delivered, 3u);
    EXPECT_EQ(sink.dropped(), 0u);
}

// Every target holds the key: the lookup ends at the last holder's reply,
// not kReplyGrace after it, with what waiting would have collected. The
// far holder's request needs a second discovery ring, so the near reply
// arrives while that request is still outstanding.
TEST_F(DirectedLine, EndsAtTheLastHoldersReply) {
    hold({1, 4});
    obs::TraceSink sink(world->simulator(), 1 << 14);
    obs::ScopedTraceSink scope(&sink);
    const std::uint64_t graces = grace_expiries();
    const AccessResult look = lookup({4, 1});
    const sim::Time end = world->simulator().now();
    ASSERT_TRUE(look.ok);
    EXPECT_LT(look.latency, sim::kSecond);
    EXPECT_EQ(grace_expiries(), graces);
    EXPECT_EQ(sorted(look.responders), (std::vector<util::NodeId>{1, 4}));
    EXPECT_EQ(look.values, (std::vector<Value>(2, kValue)));
    EXPECT_EQ(look.nodes_contacted, 2u);
    // Nothing of this lookup reaches the origin after it ended.
    world->simulator().run_until(end + 10 * sim::kSecond);
    for (std::size_t i = 0; i < sink.size(); ++i) {
        const obs::TraceEvent& e = sink.event(i);
        if (e.trace == look.trace && e.node == 0 &&
            e.kind == obs::EventKind::kPacketDeliver) {
            EXPECT_LE(e.t, end);
        }
    }
    EXPECT_EQ(sink.dropped(), 0u);

    // A target that lacks the key (node 2) answers with a miss, so the
    // lookup still ends at its last answer, with the same replies.
    const AccessResult with_miss = lookup({4, 2, 1});
    ASSERT_TRUE(with_miss.ok);
    EXPECT_LT(with_miss.latency, sim::kSecond);
    EXPECT_EQ(grace_expiries(), graces);
    EXPECT_EQ(sorted(with_miss.responders), sorted(look.responders));
    EXPECT_EQ(with_miss.values, look.values);
    EXPECT_EQ(with_miss.nodes_contacted, 3u);
}

// A delivered target whose answer is withheld (each reply of node 2 is
// dropped, as a Byzantine drop would drop it) cannot be told from a slow
// one, so the lookup ends at the grace.
TEST_F(DirectedLine, SilentDeliveredTargetHoldsTheLookupToTheGrace) {
    hold({1});
    tamper.muted = 2;
    world->set_tamper(&tamper);
    const std::uint64_t graces = grace_expiries();
    const AccessResult look = lookup({1, 2});
    ASSERT_TRUE(look.ok);
    EXPECT_GE(look.latency, 3 * sim::kSecond);
    EXPECT_EQ(grace_expiries(), graces + 1);
    EXPECT_EQ(look.responders, (std::vector<util::NodeId>{1}));
    EXPECT_EQ(look.nodes_contacted, 2u);
}

// A target whose send fails (a dead node: discovery gives up after its
// last ring) is not waited for once the origin learns of the failure.
TEST_F(DirectedLine, FailedTargetIsNotWaitedFor) {
    hold({1});
    world->fail_node(6);
    obs::TraceSink sink(world->simulator(), 1 << 14);
    obs::ScopedTraceSink scope(&sink);
    const std::uint64_t graces = grace_expiries();
    const AccessResult look = lookup({6, 1});
    const sim::Time end = world->simulator().now();
    ASSERT_TRUE(look.ok);
    EXPECT_EQ(look.responders, (std::vector<util::NodeId>{1}));
    EXPECT_EQ(look.nodes_contacted, 1u);
    EXPECT_EQ(grace_expiries(), graces);
    const sim::Time failed =
        origin_event_time(sink, look.trace, obs::EventKind::kPacketDrop);
    ASSERT_GT(failed, 0);
    EXPECT_EQ(end, failed);
}

// No request delivered, so no reply: the lookup resolves at the grace, as
// first-hit lookups always have.
TEST_F(DirectedLine, LookupWithNothingDeliveredEndsAtTheGrace) {
    world->fail_node(6);
    obs::TraceSink sink(world->simulator(), 1 << 14);
    obs::ScopedTraceSink scope(&sink);
    const std::uint64_t graces = grace_expiries();
    const AccessResult look = lookup({6});
    const sim::Time end = world->simulator().now();
    EXPECT_FALSE(look.ok);
    EXPECT_EQ(look.nodes_contacted, 0u);
    EXPECT_EQ(grace_expiries(), graces + 1);
    const sim::Time failed =
        origin_event_time(sink, look.trace, obs::EventKind::kPacketDrop);
    ASSERT_GT(failed, 0);
    EXPECT_EQ(end, failed + 3 * sim::kSecond);
}

// With every delivery duplicated, the near holder's repeated replies
// arrive before the far holder's first one. They count once, so the
// lookup still waits for the far holder, then ends without the grace.
TEST_F(DirectedLine, RepeatedRepliesDoNotEndTheLookupEarly) {
    hold({1, 4});
    world->link().set_fault_injection(net::LinkFaults{0.0, 1.0});
    const std::uint64_t graces = grace_expiries();
    const AccessResult look = lookup({1, 4});
    ASSERT_TRUE(look.ok);
    EXPECT_EQ(sorted(look.responders), (std::vector<util::NodeId>{1, 4}));
    EXPECT_EQ(look.values, (std::vector<Value>(2, kValue)));
    EXPECT_LT(look.latency, sim::kSecond);
    EXPECT_EQ(grace_expiries(), graces);
}

// A version query: every member answers, one that lacks the key with a
// miss, so the query ends at the last answer, with a value and a
// responder for each member that holds the key and none for the others.
TEST_F(DirectedLine, VersionQueryEndsAtTheLastMembersAnswer) {
    hold({1, 4});
    const std::uint64_t graces = grace_expiries();
    const AccessResult query = ask_all();
    ASSERT_TRUE(query.ok);
    EXPECT_LT(query.latency, sim::kSecond);
    EXPECT_EQ(grace_expiries(), graces);
    EXPECT_EQ(sorted(query.responders), holders());
    ASSERT_EQ(query.values.size(), query.responders.size());
    for (std::size_t i = 0; i < query.values.size(); ++i) {
        const std::optional<Value> stored =
            service->store(query.responders[i]).find(kKey);
        ASSERT_TRUE(stored);
        EXPECT_EQ(query.values[i], *stored);
    }
    EXPECT_EQ(query.nodes_contacted, kN);
}

// No member holds the key: the version query ends at the last miss, as a
// miss, and nothing of it reaches the origin afterwards.
TEST_F(DirectedLine, VersionQueryWithoutHoldersEndsAtTheLastMiss) {
    obs::TraceSink sink(world->simulator(), 1 << 14);
    obs::ScopedTraceSink scope(&sink);
    const std::uint64_t graces = grace_expiries();
    const AccessResult query = ask_all();
    const sim::Time end = world->simulator().now();
    EXPECT_FALSE(query.ok);
    EXPECT_TRUE(query.values.empty());
    EXPECT_TRUE(query.responders.empty());
    EXPECT_EQ(query.nodes_contacted, kN);
    EXPECT_LT(query.latency, sim::kSecond);
    EXPECT_EQ(grace_expiries(), graces);
    world->simulator().run_until(end + 10 * sim::kSecond);
    sim::Time last = 0;
    for (std::size_t i = 0; i < sink.size(); ++i) {
        const obs::TraceEvent& e = sink.event(i);
        if (e.trace == query.trace && e.node == 0 &&
            e.kind == obs::EventKind::kPacketDeliver) {
            last = std::max(last, e.t);
        }
    }
    EXPECT_EQ(last, end);
    EXPECT_EQ(sink.dropped(), 0u);
}

// A member whose answer is lost (here each reply of node 7, as a
// Byzantine drop would lose it) cannot be told from a slow one: the
// version query waits out the grace, then ends with the answers in hand.
TEST_F(DirectedLine, VersionQueryWithASilentMemberEndsAtTheGrace) {
    hold({1});
    tamper.muted = 7;
    world->set_tamper(&tamper);
    const std::uint64_t graces = grace_expiries();
    const AccessResult query = ask_all();
    ASSERT_TRUE(query.ok);
    EXPECT_GE(query.latency, 3 * sim::kSecond);
    EXPECT_EQ(grace_expiries(), graces + 1);
    EXPECT_EQ(query.responders, (std::vector<util::NodeId>{1}));
    EXPECT_EQ(query.nodes_contacted, kN);
}

// With every delivery duplicated, the near members' repeated misses
// arrive long before the far holder's answer. Each member counts once, so
// the version query still waits for the far holder, then ends without the
// grace.
TEST_F(DirectedLine, RepeatedMissRepliesCountOnce) {
    hold({7});
    world->link().set_fault_injection(net::LinkFaults{0.0, 1.0});
    const std::uint64_t graces = grace_expiries();
    const AccessResult query = ask_all();
    ASSERT_TRUE(query.ok);
    EXPECT_EQ(query.responders, (std::vector<util::NodeId>{7}));
    EXPECT_EQ(query.values, (std::vector<Value>{kValue}));
    EXPECT_LT(query.latency, sim::kSecond);
    EXPECT_EQ(grace_expiries(), graces);
}

// A retried version query is a version query too: one that ends as a
// miss is asked again after the 500 ms backoff, and each attempt ends at
// its last answer, not at the grace.
TEST_F(DirectedLine, RetriedVersionQueryStillEndsAtItsLastAnswer) {
    service->biquorum().context().retry.max_attempts = 2;
    const std::uint64_t graces = grace_expiries();
    const AccessResult query = ask_all();
    EXPECT_FALSE(query.ok);
    EXPECT_EQ(query.attempts, 2);
    EXPECT_LT(query.latency, 2 * sim::kSecond);
    EXPECT_EQ(grace_expiries(), graces);
}

// A faulty member answers a version query with a forged value, not with
// the honest miss the query asked for.
TEST_F(DirectedLine, VersionQueryCollectsAFaultyMembersForgedValue) {
    tamper.forges = [](util::NodeId id) { return id == 3; };
    world->set_tamper(&tamper);
    const AccessResult query = ask_all();
    ASSERT_TRUE(query.ok);
    EXPECT_EQ(query.responders, (std::vector<util::NodeId>{3}));
    EXPECT_EQ(query.values, (std::vector<Value>{LookupTamper::kLie}));
    EXPECT_LT(query.latency, sim::kSecond);
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

TEST(RandomOpt, RelayHoldingKeyAnswersAndHaltsRequest) {
    // A line 0 - 1 - ... - 7, 150 m apart with a 200 m range: each node
    // hears only its two neighbours, so every route runs along the line.
    constexpr std::size_t n = 8;
    net::WorldParams wp;
    wp.n = n;
    wp.seed = 3;
    wp.ensure_connected = false;
    wp.oracle_neighbors = true;
    net::World world(wp);
    for (util::NodeId id = 0; id < n; ++id) {
        world.set_position(id, {150.0 * id, 0.0});
    }
    // One-node views that never refresh: a lookup's lone target is the
    // origin's view.
    membership::OracleMembershipParams mp;
    mp.view_size = 1;
    mp.refresh_period = 3600 * sim::kSecond;
    membership::OracleMembership membership(world, mp);
    BiquorumSpec spec;
    spec.advertise.kind = StrategyKind::kRandom;
    spec.lookup.kind = StrategyKind::kRandomOpt;
    spec.lookup.quorum_size = 1;
    LocationService service(world, spec, &membership);
    world.start();

    // An origin whose target is at least two hops away, and the first
    // relay on the way there.
    util::NodeId origin = util::kInvalidNode;
    util::NodeId target = util::kInvalidNode;
    for (util::NodeId id = 0; id < n && origin == util::kInvalidNode; ++id) {
        const util::NodeId t = membership.view(id).front();
        if ((t > id ? t - id : id - t) >= 2) {
            origin = id;
            target = t;
        }
    }
    ASSERT_NE(origin, util::kInvalidNode);
    const util::NodeId relay = target > origin ? origin + 1 : origin - 1;
    service.store(relay).store_owner(5, 50);
    const LoadAccountant& load = service.biquorum().context().load;
    const std::uint64_t target_load = load.touches(target);

    obs::TraceSink sink(world.simulator(), 1 << 12);
    obs::ScopedTraceSink scope(&sink);
    AccessResult result;
    bool done = false;
    service.lookup(origin, 5, [&](const AccessResult& r) {
        result = r;
        done = true;
    });
    // Run past the callback: a request that went on would land later.
    world.simulator().run_until(world.simulator().now() + 10 * sim::kSecond);
    ASSERT_TRUE(done);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.value, 50u);
    // The halted request counts as delivered.
    EXPECT_EQ(result.nodes_contacted, 1u);
    // It never reached its target.
    EXPECT_EQ(load.touches(target), target_load);

    bool halted_at_relay = false;
    bool relay_replied = false;
    for (std::size_t i = 0; i < sink.size(); ++i) {
        const obs::TraceEvent& e = sink.event(i);
        if (e.trace != result.trace) {
            continue;
        }
        EXPECT_NE(e.node, target) << obs::event_kind_name(e.kind);
        if (e.kind == obs::EventKind::kEarlyHalt) {
            EXPECT_EQ(e.node, relay);
            halted_at_relay = true;
        }
        if (e.kind == obs::EventKind::kPacketSend && e.node == relay) {
            EXPECT_EQ(e.a, origin);
            relay_replied = true;
        }
    }
    EXPECT_TRUE(halted_at_relay);
    EXPECT_TRUE(relay_replied);
    EXPECT_EQ(sink.dropped(), 0u);
}

TEST(RandomOpt, NoRequestsAfterLookupResolves) {
    // Every view holds every node, and each lookup targets the whole
    // view, so the origin is one of its own targets. Only the origin holds
    // the key: its loopback reply resolves the lookup inside the send
    // loop, and the targets after it must not be asked.
    constexpr std::size_t n = 6;
    net::WorldParams wp;
    wp.n = n;
    wp.seed = 7;
    wp.oracle_neighbors = true;
    net::World world(wp);
    membership::OracleMembershipParams mp;
    mp.view_size = n;
    membership::OracleMembership membership(world, mp);
    BiquorumSpec spec;
    spec.advertise.kind = StrategyKind::kRandom;
    spec.lookup.kind = StrategyKind::kRandomOpt;
    spec.lookup.quorum_size = n;
    LocationService service(world, spec, &membership);
    world.start();

    obs::TraceSink sink(world.simulator(), 1 << 14);
    obs::ScopedTraceSink scope(&sink);
    const auto sends = [&](obs::TraceId trace) {
        std::size_t count = 0;
        for (std::size_t i = 0; i < sink.size(); ++i) {
            const obs::TraceEvent& e = sink.event(i);
            count += e.trace == trace &&
                     e.kind == obs::EventKind::kPacketSend;
        }
        return count;
    };
    // The origin's place among the targets is random; over n origins it
    // is not always last.
    for (util::NodeId origin = 0; origin < n; ++origin) {
        const util::Key key = 100 + origin;
        service.store(origin).store_owner(key, 7);
        AccessResult result;
        std::size_t sends_at_callback = 0;
        bool done = false;
        service.lookup(origin, key, [&](const AccessResult& r) {
            result = r;
            sends_at_callback = sends(r.trace);
            done = true;
        });
        world.simulator().run_until(world.simulator().now() +
                                    10 * sim::kSecond);
        ASSERT_TRUE(done);
        EXPECT_TRUE(result.ok);
        EXPECT_EQ(sends(result.trace), sends_at_callback)
            << "origin " << origin;
    }
    EXPECT_EQ(sink.dropped(), 0u);
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
