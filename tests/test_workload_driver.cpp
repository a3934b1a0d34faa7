// Service-layer tests: the read/write register protocol (§2.5 strict
// semantics, §10) and its write refusals, exact Zipf sampling, open-loop
// determinism (single- and multi-threaded fan-out), the per-key
// quorum-cache staleness regression, cached reads that end at their
// holders' replies, writes and uncached reads that end at their last
// member's answer, a two-minute open-loop run that loses no reply to a
// routing loop, and the workload driver's timeout and in-flight censoring
// accounting.
#include "svc/workload_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/maintenance.h"
#include "exp/experiment_runner.h"
#include "membership/oracle_membership.h"
#include "stat_test_util.h"

namespace pqs::svc {
namespace {

TEST(Versioned, PackUnpackRoundTrip) {
    using core::Versioned;
    for (const Versioned v : {Versioned{0, 0}, Versioned{1, 42},
                              Versioned{0xffffffff, 0xffffffff},
                              Versioned{7, 0}}) {
        EXPECT_EQ(core::unpack(core::pack(v)), v);
    }
}

TEST(Versioned, PackOrdersByVersionFirst) {
    using core::Versioned;
    EXPECT_GT(core::pack(Versioned{2, 0}),
              core::pack(Versioned{1, 0xffffffff}));
    EXPECT_GT(core::pack(Versioned{1, 5}), core::pack(Versioned{1, 4}));
}

TEST(ZipfSampler, PmfIsExactAndNormalized) {
    const ZipfSampler zipf(100, 0.99);
    double total = 0.0;
    for (std::size_t i = 0; i < zipf.keys(); ++i) {
        total += zipf.pmf(i);
        if (i > 0) {
            EXPECT_LT(zipf.pmf(i), zipf.pmf(i - 1)) << "i=" << i;
        }
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    // theta = 0 degenerates to uniform.
    const ZipfSampler flat(64, 0.0);
    for (std::size_t i = 0; i < flat.keys(); ++i) {
        EXPECT_NEAR(flat.pmf(i), 1.0 / 64.0, 1e-12);
    }
}

// Observed key frequencies must match the sampler's own pmf to exact
// binomial tails — this is what "exact inverse-CDF" buys over the YCSB
// rejection approximation.
TEST(ZipfSampler, SampledFrequenciesMatchBinomialTails) {
    const ZipfSampler zipf(50, 0.99);
    util::Rng rng(7);
    constexpr std::size_t kDraws = 20000;
    std::vector<std::size_t> counts(zipf.keys(), 0);
    for (std::size_t i = 0; i < kDraws; ++i) {
        ++counts[zipf.sample(rng)];
    }
    for (const std::size_t key : {std::size_t{0}, std::size_t{1},
                                  std::size_t{10}, std::size_t{49}}) {
        test::expect_rate_near(counts[key], kDraws, zipf.pmf(key));
    }
}

struct WorkloadFixture : ::testing::Test {
    std::unique_ptr<net::World> world;
    std::unique_ptr<membership::OracleMembership> membership;
    std::unique_ptr<core::LocationService> location;
    std::unique_ptr<KvService> kv;

    void build(std::size_t n, std::uint64_t seed = 1, double eps = 0.05,
               KvParams params = {}, std::size_t byzantine_b = 0) {
        // Rebuilding: tear down in reverse dependency order first, or the
        // old service destructors touch a freed world.
        kv.reset();
        location.reset();
        membership.reset();
        world.reset();
        net::WorldParams p;
        p.n = n;
        p.seed = seed;
        p.oracle_neighbors = true;
        world = std::make_unique<net::World>(p);
        membership = std::make_unique<membership::OracleMembership>(*world);
        core::BiquorumSpec spec;
        spec.eps = eps;
        spec.byzantine_b = byzantine_b;
        spec.advertise.kind = core::StrategyKind::kRandom;
        spec.advertise.monotonic_store = true;
        spec.lookup.kind = core::StrategyKind::kRandom;
        spec.lookup.collect_all_replies = true;
        location = std::make_unique<core::LocationService>(*world, spec,
                                                           membership.get());
        kv = std::make_unique<KvService>(*location, params);
        world->start();
    }

    void drive(bool& done, sim::Time budget = 120 * sim::kSecond) {
        const sim::Time deadline = world->simulator().now() + budget;
        while (!done && world->simulator().now() < deadline &&
               world->simulator().step()) {
        }
        ASSERT_TRUE(done);
    }

    KvWriteResult write(util::NodeId origin, util::Key key,
                        std::uint32_t data) {
        bool done = false;
        KvWriteResult out;
        kv->write(origin, key, data, [&](const KvWriteResult& r) {
            out = r;
            done = true;
        });
        drive(done);
        return out;
    }

    // Seed every workload key once so Zipfian reads have data to find.
    void prepopulate(const KvWorkloadParams& wp) {
        for (util::Key key = 1; key <= wp.key_count; ++key) {
            ASSERT_TRUE(write(0, key, 1).ok);
        }
    }

    KvReadResult read(util::NodeId origin, util::Key key,
                      bool write_back = false) {
        bool done = false;
        KvReadResult out;
        kv->read(
            origin, key,
            [&](const KvReadResult& r) {
                out = r;
                done = true;
            },
            write_back);
        drive(done);
        return out;
    }
};

// The register tests keep their own suite name; each key of the KV
// service is one register.
using RegisterFixture = WorkloadFixture;

TEST_F(RegisterFixture, RequiresProperSpec) {
    net::WorldParams p;
    p.n = 30;
    p.oracle_neighbors = true;
    net::World w(p);
    membership::OracleMembership m(w);
    core::BiquorumSpec bad;
    bad.advertise.kind = core::StrategyKind::kRandom;
    bad.lookup.kind = core::StrategyKind::kRandom;
    core::LocationService loc(w, bad, &m);
    EXPECT_THROW(KvService{loc}, std::invalid_argument);
    // Collecting every reply is not enough without monotonic stores.
    bad.lookup.collect_all_replies = true;
    core::LocationService no_monotonic(w, bad, &m);
    EXPECT_THROW(KvService{no_monotonic}, std::invalid_argument);
}

TEST_F(RegisterFixture, ReadOfUnwrittenRegisterMisses) {
    build(50, 1, 0.02);
    const KvReadResult r = read(5, 100);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.value.version, 0u);
}

TEST_F(RegisterFixture, ReadYourWrite) {
    build(60, 2, 0.02);
    const KvWriteResult w = write(3, 100, 777);
    EXPECT_TRUE(w.ok);
    EXPECT_EQ(w.version, 1u);
    const KvReadResult r = read(40, 100);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value.data, 777u);
    EXPECT_EQ(r.value.version, 1u);
}

TEST_F(RegisterFixture, VersionsGrowMonotonically) {
    build(60, 3, 0.02);
    std::uint32_t prev = 0;
    for (std::uint32_t i = 1; i <= 8; ++i) {
        const KvWriteResult w = write(i % 10, 100, 1000 + i);
        EXPECT_TRUE(w.ok);
        EXPECT_GT(w.version, prev);
        prev = w.version;
    }
    const KvReadResult r = read(25, 100);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value.version, prev);
    EXPECT_EQ(r.value.data, 1008u);
}

TEST_F(RegisterFixture, StaleWriterCannotClobberNewerValue) {
    build(60, 4, 0.02);
    EXPECT_TRUE(write(1, 100, 10).ok);  // version 1
    EXPECT_TRUE(write(2, 100, 20).ok);  // version 2
    // Manually inject an "old" write at every node (a delayed message from
    // a partitioned writer): the monotonic store must reject it.
    for (const util::NodeId id : world->alive_nodes()) {
        core::apply_advertise(location->store(id), 100,
                              core::pack(core::Versioned{1, 99}),
                              /*monotonic=*/true);
    }
    const KvReadResult r = read(30, 100);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value.version, 2u);
    EXPECT_EQ(r.value.data, 20u);
}

TEST_F(RegisterFixture, WriteBackPropagates) {
    build(60, 5, 0.02);
    EXPECT_TRUE(write(1, 100, 55).ok);
    const auto holders = [&] {
        std::size_t count = 0;
        for (const util::NodeId id : world->alive_nodes()) {
            count += location->store(id).has(100) ? 1 : 0;
        }
        return count;
    };
    const std::size_t holders_before = holders();
    read(44, 100, /*write_back=*/true);
    EXPECT_GT(holders(), holders_before);
}

TEST_F(RegisterFixture, TwoRegistersIndependent) {
    build(60, 6, 0.02);
    EXPECT_TRUE(write(1, 100, 11).ok);
    EXPECT_TRUE(write(2, 200, 22).ok);
    EXPECT_EQ(read(30, 100).value.data, 11u);
    EXPECT_EQ(read(31, 200).value.data, 22u);
}

// Regression (version exhaustion): a write against a register whose
// version counter is saturated must surface overflow instead of wrapping
// to version 0. Pre-fix, write() computed kMaxVersion + 1 == 0 and
// reported ok — the write packed below every stored value, so readers
// silently never saw it (and nodes outside the saturated quorum stored a
// version-0 value that a later refresh could spread).
TEST_F(RegisterFixture, WriteAtVersionSaturationReportsOverflow) {
    build(60, 8, 0.02);
    // Drive the register to the last representable version by direct
    // injection (2^32 sequential quorum writes are not simulable).
    for (const util::NodeId id : world->alive_nodes()) {
        core::apply_advertise(location->store(id), 100,
                              core::pack(core::Versioned{core::kMaxVersion, 7}),
                              /*monotonic=*/true);
    }
    const KvWriteResult out = write(3, 100, 555);
    EXPECT_FALSE(out.ok);
    EXPECT_TRUE(out.overflow);
    EXPECT_EQ(out.version, core::kMaxVersion);
    // The saturated value survives untouched...
    const KvReadResult r = read(30, 100);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value.version, core::kMaxVersion);
    EXPECT_EQ(r.value.data, 7u);
    // ...and no node regressed to a wrapped version-0 value.
    for (const util::NodeId id : world->alive_nodes()) {
        if (const auto stored = location->store(id).find(100)) {
            EXPECT_EQ(core::unpack(*stored).version, core::kMaxVersion);
        }
    }
}

// Under b-masking a write's version base must come from a value with
// more than b concurring replies. When every node holds a different
// value, no value can win the vote: phase 1 is inconclusive, so the
// write must be refused before phase 2 rather than stored at base + 1.
TEST_F(RegisterFixture, WriteWithoutTrustworthyBaseReportsInconclusive) {
    build(60, 9, 0.05, {}, /*byzantine_b=*/1);
    const auto stored_at = [](util::NodeId id) {
        return core::pack(core::Versioned{id + 1, 1000 + id});
    };
    for (const util::NodeId id : world->alive_nodes()) {
        core::apply_advertise(location->store(id), 100, stored_at(id),
                              /*monotonic=*/true);
    }
    const KvWriteResult out = write(3, 100, 555);
    EXPECT_FALSE(out.ok);
    EXPECT_TRUE(out.inconclusive);
    EXPECT_FALSE(out.overflow);
    for (const util::NodeId id : world->alive_nodes()) {
        EXPECT_EQ(location->store(id).find(100), stored_at(id)) << id;
    }
}

TEST_F(RegisterFixture, SurvivesModerateChurn) {
    build(80, 7, 0.02);
    EXPECT_TRUE(write(1, 100, 123).ok);
    // Fail a quarter of the network.
    util::Rng rng(9);
    auto alive = world->alive_nodes();
    rng.shuffle(alive);
    for (std::size_t i = 0; i < alive.size() / 4; ++i) {
        world->fail_node(alive[i]);
    }
    world->simulator().run_until(world->simulator().now() +
                                 11 * sim::kSecond);
    // Any live reader.
    const util::NodeId reader = world->alive_nodes().front();
    const KvReadResult r = read(reader, 100);
    EXPECT_TRUE(r.ok);  // fault tolerance of probabilistic quorums (§3)
    EXPECT_EQ(r.value.data, 123u);
}

std::vector<std::uint64_t> fingerprint(const KvWorkloadReport& r) {
    auto hist = [](const obs::LatencyHistogram& h) {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < obs::LatencyHistogram::kBucketCount;
             ++i) {
            sum += (i + 1) * h.bucket_count(i);
        }
        return sum;
    };
    return {r.issued,       r.completed,    r.reads,
            r.writes,       r.read_ok,      r.write_ok,
            r.timeouts,     r.inconclusive, r.censored,
            r.cache_hits,   r.cache_misses, r.cache_invalidations,
            hist(r.read_latency), hist(r.write_latency)};
}

KvWorkloadParams small_workload() {
    KvWorkloadParams wp;
    wp.key_count = 40;
    wp.zipf_theta = 0.99;
    wp.read_fraction = 0.8;
    wp.arrival_rate = 10.0;
    wp.horizon = 8 * sim::kSecond;
    wp.drain = 40 * sim::kSecond;
    wp.seed = 42;
    return wp;
}

// Same seed, same world => bit-identical report, including tails. Also
// pins the open loop itself: the arrival count tracks rate × horizon.
TEST_F(WorkloadFixture, OpenLoopRunIsSeedDeterministic) {
    const KvWorkloadParams wp = small_workload();
    build(80, 3);
    prepopulate(wp);
    KvWorkloadDriver first(*kv, wp);
    const KvWorkloadReport a = first.run();

    build(80, 3);
    prepopulate(wp);
    KvWorkloadDriver second(*kv, wp);
    const KvWorkloadReport b = second.run();

    EXPECT_EQ(fingerprint(a), fingerprint(b));
    // Poisson(rate × horizon = 80) arrivals: a 5-sigma band is [35, 125].
    EXPECT_GE(a.issued, 35u);
    EXPECT_LE(a.issued, 125u);
    EXPECT_GT(a.completed, 0u);
    EXPECT_GT(a.read_ok + a.write_ok, a.issued / 2);
}

// The ExperimentRunner fan-out must produce the same per-trial reports on
// one worker and on four (PQS_THREADS bit-identity, satellite 4).
TEST(WorkloadThreads, FanOutIsBitIdenticalAcrossThreadCounts) {
    const auto trial = [](std::size_t index,
                          util::Rng& rng) -> std::vector<std::uint64_t> {
        net::WorldParams p;
        p.n = 60;
        p.seed = rng();  // deterministic per trial via trial_seed
        p.oracle_neighbors = true;
        net::World world(p);
        membership::OracleMembership membership(world);
        core::BiquorumSpec spec;
        spec.eps = 0.05;
        spec.advertise.kind = core::StrategyKind::kRandom;
        spec.advertise.monotonic_store = true;
        spec.lookup.kind = core::StrategyKind::kRandom;
        spec.lookup.collect_all_replies = true;
        core::LocationService location(world, spec, &membership);
        KvService kv(location);
        world.start();
        KvWorkloadParams wp = small_workload();
        wp.horizon = 4 * sim::kSecond;
        wp.seed = 1000 + index;
        KvWorkloadDriver driver(kv, wp);
        return fingerprint(driver.run());
    };

    exp::RunnerOptions one;
    one.threads = 1;
    exp::RunnerOptions four;
    four.threads = 4;
    const auto a =
        exp::ExperimentRunner(one).map<std::vector<std::uint64_t>>(9, 4,
                                                                   trial);
    const auto b =
        exp::ExperimentRunner(four).map<std::vector<std::uint64_t>>(9, 4,
                                                                    trial);
    EXPECT_EQ(a, b);
}

// Regression (stale quorum cache): after a churn burst, a never-
// invalidated per-key quorum cache kept directing reads at dead members,
// and the hit rate (and read success rate) never recovered. With
// invalidation wired to the QuorumRefresher the cache empties on the
// next refresh and recovers.
TEST_F(WorkloadFixture, CacheRecoversFromChurnOnlyWithInvalidation) {
    build(150, 11, 0.05);
    core::QuorumRefresher::Params rp;
    rp.explicit_interval = 5 * sim::kSecond;
    core::QuorumRefresher refresher(*location, rp);
    refresher.set_on_refresh(
        [&](util::NodeId node) { kv->on_node_refreshed(node); });

    const util::NodeId writer = 0;
    const util::NodeId reader = 1;
    for (util::Key key = 1; key <= 10; ++key) {
        EXPECT_TRUE(
            write(writer, key, static_cast<std::uint32_t>(500 + key)).ok);
    }
    // Warm the cache: cold read fills it, second read must hit.
    for (util::Key key = 1; key <= 10; ++key) {
        EXPECT_TRUE(read(reader, key).ok);
    }
    for (util::Key key = 1; key <= 10; ++key) {
        const KvReadResult r = read(reader, key);
        EXPECT_TRUE(r.ok);
        EXPECT_TRUE(r.from_cache);
    }

    // Churn burst aimed at the cache: kill every cached quorum member
    // (sparing writer/reader). A random 50% kill is too kind — the
    // alive half of a cached quorum still answers and the ε guarantee
    // papers over the rest, which is exactly why this staleness went
    // unnoticed. Then let one refresh interval elapse.
    refresher.start_node(writer);
    std::set<util::NodeId> victims;
    for (util::Key key = 1; key <= 10; ++key) {
        for (const util::NodeId id : kv->cached_quorum(key)) {
            if (id > reader) {
                victims.insert(id);
            }
        }
    }
    for (const util::NodeId id : victims) {
        world->fail_node(id);
    }
    EXPECT_GT(world->alive_count(),
              kv->biquorum().lookup_strategy().config().quorum_size);
    bool settled = false;
    world->simulator().schedule_in(6 * sim::kSecond,
                                   [&] { settled = true; });
    drive(settled);
    // Freeze the refresher for the measurement: its job (signalling
    // the churn) is done, and further ticks would keep emptying the
    // cache we are trying to watch refill.
    refresher.stop();

    std::uint64_t post_ok = 0;
    std::uint64_t post_hits = 0;
    for (int round = 0; round < 2; ++round) {
        for (util::Key key = 1; key <= 10; ++key) {
            const KvReadResult r = read(reader, key);
            if (r.ok) ++post_ok;
            if (r.from_cache) ++post_hits;
        }
    }
    // The refresh emptied the cache, post-churn reads resolve against
    // live quorums, and by the second pass the refilled cache is hitting
    // again — the hit rate recovers.
    EXPECT_GT(kv->cache_invalidations(), 0u);
    test::expect_rate_ge(post_ok, 20, 0.85);
    test::expect_rate_ge(post_hits, 20, 0.4);
}

// A cold read whose every contacted member holds the key is not cached: a
// directed read of them would ask as many nodes as a fresh lookup and get
// as many replies. A cold read that some member answered with a miss is.
TEST_F(WorkloadFixture, ColdReadIsCachedOnlyWhenSomeMemberLackedTheKey) {
    build(40, 31, 0.05);
    const core::Value packed = core::pack(core::Versioned{1, 9});
    for (const util::NodeId id : world->alive_nodes()) {
        location->store(id).store_owner(3, packed);
    }
    EXPECT_TRUE(read(5, 3).ok);
    EXPECT_TRUE(kv->cached_quorum(3).empty());
    const KvReadResult again = read(5, 3);
    EXPECT_TRUE(again.ok);
    EXPECT_FALSE(again.from_cache);

    ASSERT_TRUE(write(0, 4, 40).ok);  // one advertise quorum holds key 4
    EXPECT_TRUE(read(5, 4).ok);
    EXPECT_FALSE(kv->cached_quorum(4).empty());
    EXPECT_TRUE(read(5, 4).from_cache);
}

// A cached read is a directed lookup of the key's last responders, all of
// which hold it: it ends at the last holder's reply instead of waiting
// out the 3 s reply grace, and returns what the cold read did: the same
// value from the same holders.
TEST_F(WorkloadFixture, CachedReadEndsAtItsLastHoldersReply) {
    build(60, 29, 0.05);
    ASSERT_TRUE(write(0, 7, 70).ok);
    const util::NodeId reader = 11;
    const KvReadResult cold = read(reader, 7);
    ASSERT_TRUE(cold.ok);
    ASSERT_FALSE(cold.from_cache);
    std::vector<util::NodeId> holders = kv->cached_quorum(7);
    ASSERT_FALSE(holders.empty());

    const std::uint64_t graces =
        world->kernel_stats().reply_grace_expiries;
    const sim::Time start = world->simulator().now();
    const KvReadResult cached = read(reader, 7);
    EXPECT_LT(world->simulator().now() - start, sim::kSecond);
    EXPECT_EQ(world->kernel_stats().reply_grace_expiries, graces);
    ASSERT_TRUE(cached.from_cache);
    EXPECT_EQ(cached.value.version, cold.value.version);
    EXPECT_EQ(cached.value.data, 70u);
    std::vector<util::NodeId> again = kv->cached_quorum(7);
    std::sort(holders.begin(), holders.end());
    std::sort(again.begin(), again.end());
    EXPECT_EQ(again, holders);
}

// A write's phase 1 and an uncached read collect every member's answer,
// one that lacks the key with a miss, so each ends at its last member's
// answer, well under the 3 s reply grace. The read returns the highest
// version its members store and caches exactly the members that hold the
// key.
TEST_F(WorkloadFixture, WriteAndUncachedReadEndAtTheirLastAnswer) {
    constexpr std::size_t kN = 40;
    constexpr util::NodeId kOrigin = 3;
    constexpr util::Key kKey = 9;
    // eps = 0.01 sizes lookup quorums above the 2 sqrt(n) view, so every
    // lookup from kOrigin asks its whole view.
    build(kN, 37, 0.01);
    ASSERT_GE(kv->biquorum().spec().lookup.quorum_size,
              membership::default_view_size(kN));
    // Every other node holds the key, every fourth a newer version.
    for (util::NodeId id = 0; id < kN; id += 2) {
        location->store(id).store_owner(
            kKey, core::pack(core::Versioned{id % 4 == 0 ? 2u : 1u, 5}));
    }
    std::vector<util::NodeId> holders;
    core::Value highest = 0;
    for (const util::NodeId id : membership->view(kOrigin)) {
        if (const std::optional<core::Value> v =
                location->store(id).find(kKey)) {
            holders.push_back(id);
            highest = std::max(highest, *v);
        }
    }
    ASSERT_FALSE(holders.empty());
    ASSERT_LT(holders.size(), membership->view(kOrigin).size());
    const auto sorted = [](std::vector<util::NodeId> ids) {
        std::sort(ids.begin(), ids.end());
        return ids;
    };

    const sim::Time read_start = world->simulator().now();
    const KvReadResult r = read(kOrigin, kKey);
    ASSERT_TRUE(r.ok);
    EXPECT_FALSE(r.from_cache);
    EXPECT_LT(world->simulator().now() - read_start, sim::kSecond);
    EXPECT_EQ(world->kernel_stats().reply_grace_expiries, 0u);
    EXPECT_EQ(r.value, core::unpack(highest));
    EXPECT_EQ(sorted(kv->cached_quorum(kKey)), sorted(holders));

    const sim::Time write_start = world->simulator().now();
    const KvWriteResult w = write(kOrigin, kKey, 6);
    ASSERT_TRUE(w.ok);
    EXPECT_EQ(w.version, core::unpack(highest).version + 1);
    EXPECT_LT(world->simulator().now() - write_start, sim::kSecond);
    EXPECT_EQ(world->kernel_stats().reply_grace_expiries, 0u);
}

// Regression (looping replies): a route copied from an intermediate's
// RREP used to last a full route lifetime. Once the route it was copied
// from expired, after 60 s unused, the copy could answer that route's
// rediscovery through the very node that had lost it; quorum traffic then
// circled the two until its TTL ran out, and each lost reply held its
// write to the 3 s reply grace. Two minutes of open-loop KV traffic on a
// static network now lose no packet to a TTL, and neither a write nor a
// read waits for the grace. A write's two phases may each start with a
// full expanding-ring discovery (0.8 s of ring timeouts before the
// network-wide ring), so the bar for the slowest write is 2 s, and the
// slowest read gets the same bar.
TEST_F(WorkloadFixture, LongRunLosesNoPacketToATtlAndNoWriteWaits) {
    KvWorkloadParams wp;
    wp.key_count = 200;
    wp.read_fraction = 0.9;
    wp.arrival_rate = 20.0;
    wp.horizon = 120 * sim::kSecond;
    wp.drain = 10 * sim::kSecond;
    wp.seed = 101;
    build(150, 101);
    prepopulate(wp);
    KvWorkloadDriver driver(*kv, wp);
    const KvWorkloadReport r = driver.run();
    ASSERT_GT(r.writes, 100u);
    ASSERT_GT(r.reads, 1000u);
    EXPECT_EQ(r.censored, 0u);
    EXPECT_EQ(world->kernel_stats().ttl_expired_drops, 0u);
    // quantile(1) is the slowest op, to its bucket's 1/16 octave.
    EXPECT_LT(r.write_latency.quantile(1.0), 2.0);
    EXPECT_LT(r.read_latency.quantile(1.0), 2.0);
}

// Regression (dropped tail): operations still in flight at the end of the
// measurement window must be censored into the tail and the timeout rate,
// not silently dropped.
TEST_F(WorkloadFixture, InFlightOpsAtHorizonAreCensoredNotDropped) {
    KvWorkloadParams wp = small_workload();
    wp.arrival_rate = 30.0;
    wp.horizon = 4 * sim::kSecond;
    wp.drain = 0;  // cut the window right at the last arrivals

    build(80, 17);
    KvWorkloadDriver driver(*kv, wp);
    const KvWorkloadReport r = driver.run();

    ASSERT_GT(r.censored, 0u);
    EXPECT_EQ(r.issued, r.completed + r.censored);
    // Every issued op, completed or censored, is one latency sample.
    EXPECT_EQ(r.read_latency.total() + r.write_latency.total(), r.issued);
    // No op can reach op_timeout (30 s) inside a 4 s window, so every
    // timeout is a censored op — and every censored op is a timeout.
    EXPECT_EQ(r.timeouts, r.censored);
}

// finalize() mid-window freezes the report: the pending arrival is
// cancelled, reads and writes that complete afterwards leave the report
// alone, and a second finalize() changes nothing.
TEST_F(WorkloadFixture, FinalizeMidWindowFreezesTheReport) {
    build(80, 19);
    KvWorkloadDriver driver(*kv, small_workload());
    driver.start();
    world->simulator().run_until(2 * sim::kSecond);  // horizon is 8 s
    driver.finalize();
    const KvWorkloadReport frozen = driver.report();
    ASSERT_GT(frozen.censored, 0u);
    world->simulator().run_until(60 * sim::kSecond);
    driver.finalize();
    EXPECT_EQ(fingerprint(driver.report()), fingerprint(frozen));
}

// An arrival with no alive origin is skipped, not issued.
TEST_F(WorkloadFixture, ArrivalsWithNoAliveOriginAreSkipped) {
    build(30, 5);
    for (util::NodeId id = 0; id < 30; ++id) {
        world->fail_node(id);
    }
    KvWorkloadDriver driver(*kv, small_workload());
    const KvWorkloadReport r = driver.run();
    EXPECT_EQ(r.issued, 0u);
    EXPECT_GT(r.skipped, 0u);
}

// A write whose advertise fails before op_timeout (routed sends to dead
// quorum members fail fast) is a failed write, not a timeout; a write
// whose advertise runs into op_timeout still is one.
TEST_F(WorkloadFixture, OnlyTimedOutWritesCountAsTimeouts) {
    KvWorkloadParams wp = small_workload();
    wp.read_fraction = 0.0;
    wp.horizon = 2 * sim::kSecond;

    build(80, 23);
    // Fill every membership view, then kill every other node: until the
    // views refresh (10 s), half of every quorum is dead, so routed sends
    // fail after route discovery gives up — well inside op_timeout.
    for (util::NodeId id = 0; id < 80; ++id) {
        membership->view(id);
    }
    for (util::NodeId id = 1; id < 80; id += 2) {
        world->fail_node(id);
    }
    KvWorkloadDriver failing(*kv, wp);
    const KvWorkloadReport failed = failing.run();
    ASSERT_GT(failed.writes, 0u);
    EXPECT_EQ(failed.censored, 0u);
    EXPECT_LT(failed.write_ok, failed.writes);
    EXPECT_EQ(failed.timeouts, 0u);

    build(80, 23);
    kv->biquorum().context().op_timeout = 50 * sim::kMicrosecond;
    KvWorkloadDriver slow(*kv, wp);
    const KvWorkloadReport timed = slow.run();
    ASSERT_GT(timed.writes, 0u);
    EXPECT_EQ(timed.censored, 0u);
    EXPECT_EQ(timed.write_ok, 0u);
    EXPECT_EQ(timed.timeouts, timed.writes);
}

}  // namespace
}  // namespace pqs::svc
