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

// The table without pruning, rows or ordering tricks: one entry per node
// ever heard, fresh iff heard within the expiry.
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

// One node's table: row 1 of a three-row slab at the default d_avg = 10
// (20 inline entries), so a row-index mix-up cannot pass as row 0 would.
class Table {
public:
    Table() { slab_.add_rows(3); }

    void on_hello(util::NodeId from, sim::Time now) {
        slab_.on_hello(kRow, from, now);
    }
    bool is_neighbor(util::NodeId id, sim::Time now) const {
        return slab_.is_neighbor(kRow, id, now);
    }
    std::vector<util::NodeId> neighbors(sim::Time now) const {
        return slab_.neighbors(kRow, now);
    }
private:
    static constexpr util::NodeId kRow = 1;
    HelloSlab slab_{kHeartbeat, 10.0};
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
        Table table;
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
    Table forward;
    Table shuffled;
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
    Table table;
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

TEST(NeighborTable, InlineCapacityIsTwiceAverageDegree) {
    EXPECT_EQ(HelloSlab(kHeartbeat, 10.0).inline_capacity(), 20u);
    EXPECT_EQ(HelloSlab(kHeartbeat, 7.5).inline_capacity(), 15u);
    EXPECT_EQ(HelloSlab(kHeartbeat, 1.0).inline_capacity(), 4u);
}

// One row pushed past its inline capacity and back, with its neighbors on
// both sides kept busy: hello_spills counts exactly the refreshes served
// from spill storage, and the other rows never see the spilled entries.
TEST(NeighborTable, RowSpillsPastInlineCapacityAndBack) {
    HelloSlab slab(kHeartbeat, 3.0);  // 6 inline entries
    ASSERT_EQ(slab.inline_capacity(), 6u);
    slab.add_rows(3);
    ReferenceTable ref;
    const auto hello = [&](util::NodeId from, sim::Time now) {
        slab.on_hello(1, from, now);
        ref.on_hello(from, now);
    };
    const auto expect_row = [&](sim::Time now) {
        EXPECT_EQ(slab.neighbors(1, now), ref.neighbors(now));
        for (util::NodeId id = 0; id < 100; ++id) {
            EXPECT_EQ(slab.is_neighbor(1, id, now), ref.is_neighbor(id, now))
                << "id " << id;
        }
        EXPECT_EQ(slab.neighbors(0, now), (std::vector<util::NodeId>{5, 6}));
        EXPECT_EQ(slab.neighbors(2, now), (std::vector<util::NodeId>{9}));
    };
    // Rows 0 and 2 are refreshed at every step so they never expire.
    const auto keep_others = [&](sim::Time now) {
        slab.on_hello(0, 6, now);
        slab.on_hello(0, 5, now);
        slab.on_hello(2, 9, now);
    };

    // Exactly the inline capacity, in scrambled order: no spill.
    sim::Time now = 0;
    keep_others(now);
    for (const util::NodeId id : {40u, 10u, 60u, 30u, 50u, 20u}) {
        hello(id, now);
    }
    EXPECT_EQ(slab.spills(), 0u);
    expect_row(now);

    // One more fresh id: the row moves to spill storage, in id order.
    now = sim::kSecond;
    keep_others(now);
    hello(35, now);
    EXPECT_EQ(slab.spills(), 1u);
    EXPECT_EQ(slab.neighbors(1, now),
              (std::vector<util::NodeId>{10, 20, 30, 35, 40, 50, 60}));
    expect_row(now);

    // Refreshes and new ids on the spilled row are served there.
    now = 2 * sim::kSecond;
    keep_others(now);
    hello(35, now);
    hello(5, now);
    hello(99, now);
    EXPECT_EQ(slab.spills(), 4u);
    expect_row(now);

    // Past the expiry of the first six (35, 5 and 99 were heard exactly
    // one expiry ago, so they stay): a new id prunes the row, which fits
    // inline again, so neither it nor later refreshes count.
    now = kExpiry + 2 * sim::kSecond;
    keep_others(now);
    hello(70, now);
    EXPECT_EQ(slab.spills(), 4u);
    EXPECT_EQ(slab.neighbors(1, now),
              (std::vector<util::NodeId>{5, 35, 70, 99}));
    expect_row(now);
    hello(35, now);
    hello(1, now);
    EXPECT_EQ(slab.spills(), 4u);
    expect_row(now);

    // Full again with every entry fresh (6 of 6), then over: the block
    // the row left is reused.
    hello(2, now);
    EXPECT_EQ(slab.spills(), 4u);
    hello(3, now);
    EXPECT_EQ(slab.spills(), 5u);
    expect_row(now);
    EXPECT_EQ(slab.neighbors(1, now),
              (std::vector<util::NodeId>{1, 2, 3, 5, 35, 70, 99}));
}

// Many rows driven at once against one never-pruning reference per row:
// each row's ids come from its own drifting window, wider than its 8
// inline entries, so rows keep spilling and coming back while hellos for
// other rows land in between. A row can never see another row's entry.
TEST(NeighborTable, ManyRowsMatchPerRowReferences) {
    constexpr std::size_t kRows = 48;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        util::Rng rng(seed);
        HelloSlab slab(kHeartbeat, 4.0);  // 8 inline entries
        slab.add_rows(kRows);
        std::vector<ReferenceTable> refs(kRows);
        std::vector<util::NodeId> base(kRows);
        for (std::size_t r = 0; r < kRows; ++r) {
            base[r] = static_cast<util::NodeId>(r * 1000);
        }
        sim::Time now = 0;
        for (int step = 0; step < 20000; ++step) {
            const double jump = rng.uniform01();
            if (jump < 0.002) {
                now += static_cast<sim::Time>(rng.uniform_int(40, 60)) *
                       500 * sim::kMillisecond;
            } else if (jump < 0.05) {
                now += static_cast<sim::Time>(rng.uniform_int(0, 4)) *
                       500 * sim::kMillisecond;
            }
            const auto row = static_cast<util::NodeId>(rng.index(kRows));
            if (rng.bernoulli(0.02)) {
                base[row] += 1;
            }
            const util::NodeId id =
                base[row] + static_cast<util::NodeId>(rng.index(14));
            const double op = rng.uniform01();
            if (op < 0.7) {
                slab.on_hello(row, id, now);
                refs[row].on_hello(id, now);
            } else if (op < 0.85) {
                ASSERT_EQ(slab.is_neighbor(row, id, now),
                          refs[row].is_neighbor(id, now))
                    << "seed " << seed << " step " << step << " row " << row;
            } else {
                ASSERT_EQ(slab.neighbors(row, now), refs[row].neighbors(now))
                    << "seed " << seed << " step " << step << " row " << row;
            }
        }
        for (util::NodeId r = 0; r < kRows; ++r) {
            ASSERT_EQ(slab.neighbors(r, now), refs[r].neighbors(now))
                << "seed " << seed << " row " << r;
        }
        EXPECT_GT(slab.spills(), 0u) << "seed " << seed;

        // Once everything has expired, one new id per row brings every
        // row back inline: refreshing it again is not a spill.
        now += kExpiry + sim::kSecond;
        for (util::NodeId r = 0; r < kRows; ++r) {
            slab.on_hello(r, base[r] + 100, now);
            refs[r].on_hello(base[r] + 100, now);
        }
        const std::uint64_t spills = slab.spills();
        for (util::NodeId r = 0; r < kRows; ++r) {
            slab.on_hello(r, base[r] + 100, now);
            ASSERT_EQ(slab.neighbors(r, now), refs[r].neighbors(now));
        }
        EXPECT_EQ(slab.spills(), spills) << "seed " << seed;
    }
}

}  // namespace
}  // namespace pqs::net
