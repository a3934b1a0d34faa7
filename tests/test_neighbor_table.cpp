#include "net/neighbor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "util/rng.h"

namespace pqs::net {
namespace {

constexpr sim::Time kHeartbeat = 10 * sim::kSecond;
constexpr sim::Time kExpiry = 25 * sim::kSecond;  // 2.5 cycles

// The table without pruning or ordering tricks: one entry per node ever
// heard, fresh iff heard within the expiry.
class ReferenceTable {
public:
    void on_hello(util::NodeId from, sim::Time now) { heard_[from] = now; }

    bool is_neighbor(util::NodeId id, sim::Time now) const {
        const auto it = heard_.find(id);
        return it != heard_.end() && now - it->second <= kExpiry;
    }

    std::vector<util::NodeId> neighbors(sim::Time now) const {
        std::vector<util::NodeId> out;
        for (const auto& [id, heard] : heard_) {
            if (now - heard <= kExpiry) {
                out.push_back(id);
            }
        }
        return out;
    }

private:
    std::map<util::NodeId, sim::Time> heard_;
};

// Random scripts of hellos and queries, with time steps in 500 ms units
// (so `now - heard == expiry` happens often) and occasional jumps of
// 20–30 s across the expiry. Hellos come mostly from a window of ids
// that drifts upward, like the neighborhood of a moving node, so old
// entries expire while new ones keep arriving and the table has to
// prune before it grows; the rest re-admit long-expired nodes.
TEST(NeighborTable, MatchesNeverPruningReference) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        util::Rng rng(seed);
        NeighborTable table(kHeartbeat);
        ReferenceTable ref;
        sim::Time now = 0;
        util::NodeId base = 0;
        for (int step = 0; step < 3000; ++step) {
            const double jump = rng.uniform01();
            if (jump < 0.02) {
                now += static_cast<sim::Time>(rng.uniform_int(40, 60)) *
                       500 * sim::kMillisecond;
            } else if (jump < 0.5) {
                now += static_cast<sim::Time>(rng.uniform_int(0, 4)) *
                       500 * sim::kMillisecond;
            }
            if (rng.bernoulli(0.05)) {
                base += 1;
            }
            const util::NodeId id =
                rng.bernoulli(0.9)
                    ? base + static_cast<util::NodeId>(rng.index(12))
                    : static_cast<util::NodeId>(rng.index(base + 12));
            const double op = rng.uniform01();
            if (op < 0.6) {
                table.on_hello(id, now);
                ref.on_hello(id, now);
            } else if (op < 0.8) {
                ASSERT_EQ(table.is_neighbor(id, now), ref.is_neighbor(id, now))
                    << "seed " << seed << " step " << step << " id " << id;
            } else {
                ASSERT_EQ(table.neighbors(now), ref.neighbors(now))
                    << "seed " << seed << " step " << step;
            }
        }
    }
}

TEST(NeighborTable, ArrivalOrderDoesNotMatter) {
    util::Rng rng(7);
    NeighborTable forward(kHeartbeat);
    NeighborTable shuffled(kHeartbeat);
    sim::Time now = 0;
    for (int round = 0; round < 50; ++round) {
        now += static_cast<sim::Time>(rng.uniform_int(1, 12)) * sim::kSecond;
        std::vector<util::NodeId> heard;
        for (util::NodeId id = 0; id < 200; ++id) {
            if (rng.bernoulli(0.1)) {
                heard.push_back(id * 7919 % 1000);
            }
        }
        for (const util::NodeId id : heard) {
            forward.on_hello(id, now);
        }
        rng.shuffle(heard);
        for (const util::NodeId id : heard) {
            shuffled.on_hello(id, now);
        }
        const std::vector<util::NodeId> got = forward.neighbors(now);
        EXPECT_EQ(got, shuffled.neighbors(now)) << "round " << round;
        EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
        EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
    }
}

TEST(NeighborTable, ExpiryBoundaryIsInclusive) {
    NeighborTable table(kHeartbeat);
    const sim::Time heard = 100 * sim::kSecond;
    table.on_hello(7, heard);

    EXPECT_TRUE(table.is_neighbor(7, heard + kExpiry));
    EXPECT_EQ(table.neighbors(heard + kExpiry),
              std::vector<util::NodeId>{7});

    const sim::Time late = heard + kExpiry + sim::kNanosecond;
    EXPECT_FALSE(table.is_neighbor(7, late));
    EXPECT_TRUE(table.neighbors(late).empty());

    // Another node arrives while 7 is expired (the table prunes 7 before
    // it grows); a hello from 7 after expiry re-admits it.
    table.on_hello(3, late);
    EXPECT_FALSE(table.is_neighbor(7, late));
    const sim::Time back = late + 15 * sim::kSecond;
    table.on_hello(7, back);
    EXPECT_TRUE(table.is_neighbor(7, back));
    EXPECT_EQ(table.neighbors(back), (std::vector<util::NodeId>{3, 7}));
    EXPECT_EQ(table.neighbors(late + kExpiry + sim::kNanosecond),
              std::vector<util::NodeId>{7});
    EXPECT_TRUE(table.is_neighbor(7, back + kExpiry));
}

}  // namespace
}  // namespace pqs::net
