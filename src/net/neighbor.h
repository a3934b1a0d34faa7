// Heartbeat-based neighbor discovery (§2.3): every node broadcasts a hello
// each heartbeat cycle; entries expire after kExpiryCycles cycles without
// a hello. Under mobility the table is intentionally stale between beats —
// the paper's RW-salvation technique exists precisely to cope with that.
//
// Every node's table lives in one World-owned slab indexed by node id, so
// a reception touches the receiver's row and nothing else of the node.
// A row holds 2·d_avg entries inline, kept sorted by id: ids in one array
// (behind a one-word row header), times in another, with no padding, so a
// refresh is a binary search over a cache line or two plus one time store.
// A row that needs more room moves whole into spill storage the slab owns
// and recycles, and moves back inline once pruning lets it fit again.
//
// Readers see one table per node: an entry is fresh iff now − heard ≤ 2.5
// heartbeats (inclusive), neighbors() comes out in ascending id order
// whatever the hello arrival history, and pruning is invisible. Calls must
// pass non-decreasing `now` (simulation time).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/ids.h"

namespace pqs::net {

class HelloSlab {
public:
    // Heartbeat cycles a neighbor stays fresh without a hello.
    static constexpr double kExpiryCycles = 2.5;

    // Inline entries per row: 2·d_avg, so a row spills only when its
    // node hears about twice the average degree within one expiry.
    HelloSlab(sim::Time heartbeat, double avg_degree)
        : expiry_(static_cast<sim::Time>(static_cast<double>(heartbeat) *
                                         kExpiryCycles)),
          capacity_(std::max<std::uint32_t>(
              4, static_cast<std::uint32_t>(std::ceil(2.0 * avg_degree)))) {}

    // Appends `count` empty rows; row ids are dense node ids.
    void add_rows(std::size_t count) {
        ids_.resize(ids_.size() + count * (capacity_ + 1), 0);
        heard_.resize(heard_.size() + count * capacity_, 0);
    }

    std::uint32_t inline_capacity() const { return capacity_; }

    // Refreshes served from spill storage (KernelStats::hello_spills).
    std::uint64_t spills() const { return spills_; }

    // pqs-hot: every packet a running node receives refreshes its row.
    void on_hello(util::NodeId row, util::NodeId from, sim::Time now) {
        std::uint32_t* const header = &ids_[header_at(row)];
        if (*header & kSpilled) {
            spilled_hello(row, from, now);
            return;
        }
        util::NodeId* const ids = header + 1;
        sim::Time* const heard = &heard_[heard_at(row)];
        std::uint32_t count = *header;
        std::uint32_t at = lower_bound(ids, count, from);
        if (at < count && ids[at] == from) {
            heard[at] = now;
            return;
        }
        if (count == capacity_) {
            // Before spilling, drop entries already expired at `now`. Time
            // only moves forward, so no reader can see them again (a later
            // hello re-inserts the node fresh): pruning is invisible.
            count = prune(ids, heard, count, now);
            if (count == capacity_) {
                spill(row, from, now);
                return;
            }
            at = lower_bound(ids, count, from);
        }
        insert(ids, heard, count, at, from, now);
        *header = count + 1;
    }

    bool is_neighbor(util::NodeId row, util::NodeId id, sim::Time now) const {
        const Entries e = entries(row);
        const std::uint32_t at = lower_bound(e.ids, e.count, id);
        return at < e.count && e.ids[at] == id &&
               now - e.heard[at] <= expiry_;
    }

    // Fresh neighbors of `row` at `now`, in ascending id order.
    std::vector<util::NodeId> neighbors(util::NodeId row,
                                        sim::Time now) const {
        const Entries e = entries(row);
        std::vector<util::NodeId> out;
        out.reserve(e.count);
        for (std::uint32_t i = 0; i < e.count; ++i) {
            if (now - e.heard[i] <= expiry_) {
                out.push_back(e.ids[i]);
            }
        }
        return out;
    }

private:
    // Row header: the inline entry count, or kSpilled | spill block index.
    static constexpr std::uint32_t kSpilled = 1u << 31;

    struct Spill {
        std::vector<util::NodeId> ids;  // sorted
        std::vector<sim::Time> heard;
    };

    struct Entries {
        const util::NodeId* ids;
        const sim::Time* heard;
        std::uint32_t count;
    };

    // Index of the first id not below `id`: a binary search whose steps
    // are conditional moves, not branches the hello stream mispredicts.
    static std::uint32_t lower_bound(const util::NodeId* ids,
                                     std::uint32_t count, util::NodeId id) {
        if (count == 0) {
            return 0;
        }
        const util::NodeId* base = ids;
        while (count > 1) {
            const std::uint32_t half = count / 2;
            base = base[half] < id ? base + half : base;
            count -= half;
        }
        return static_cast<std::uint32_t>(base - ids) + (*base < id ? 1 : 0);
    }

    // Shifts [at, count) up one slot in both arrays and writes the entry.
    static void insert(util::NodeId* ids, sim::Time* heard,
                       std::uint32_t count, std::uint32_t at,
                       util::NodeId from, sim::Time now) {
        std::copy_backward(ids + at, ids + count, ids + count + 1);
        std::copy_backward(heard + at, heard + count, heard + count + 1);
        ids[at] = from;
        heard[at] = now;
    }

    // Compacts away the entries expired at `now`, keeping id order;
    // returns the new count.
    std::uint32_t prune(util::NodeId* ids, sim::Time* heard,
                        std::uint32_t count, sim::Time now) const {
        std::uint32_t kept = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
            if (now - heard[i] <= expiry_) {
                ids[kept] = ids[i];
                heard[kept] = heard[i];
                ++kept;
            }
        }
        return kept;
    }

    // Where row `row` starts in ids_ (its header) and in heard_.
    std::size_t header_at(util::NodeId row) const {
        return std::size_t{row} * (capacity_ + 1);
    }
    std::size_t heard_at(util::NodeId row) const {
        return std::size_t{row} * capacity_;
    }

    Entries entries(util::NodeId row) const {
        const std::uint32_t header = ids_[header_at(row)];
        if (header & kSpilled) {
            const Spill& s = spill_[header & ~kSpilled];
            return {s.ids.data(), s.heard.data(),
                    static_cast<std::uint32_t>(s.ids.size())};
        }
        return {&ids_[header_at(row) + 1], &heard_[heard_at(row)], header};
    }

    // The rare paths: a full row of fresh entries moves to a spill block;
    // a spilled row is refreshed there, or moves back inline once pruning
    // leaves it room.
    void spill(util::NodeId row, util::NodeId from, sim::Time now);
    void spilled_hello(util::NodeId row, util::NodeId from, sim::Time now);

    sim::Time expiry_;
    std::uint32_t capacity_;
    // Row r: ids_[r·(capacity_+1)] is its header, the next capacity_ words
    // its ids; heard_[r·capacity_ ..] the matching hello times.
    std::vector<std::uint32_t> ids_;
    std::vector<sim::Time> heard_;
    std::vector<Spill> spill_;               // recycled through free_spill_
    std::vector<std::uint32_t> free_spill_;
    std::uint64_t spills_ = 0;
};

}  // namespace pqs::net
