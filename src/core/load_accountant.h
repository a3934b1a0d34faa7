// Per-node access-load accounting in the Malkhi-Reiter-Wool framework
// ("The Load and Availability of Byzantine Quorum Systems"): the load
// L(S) a strategy induces is the access probability of the busiest node.
// The accountant tracks, per node, how many quorum requests it served
// (touches) and how many top-level accesses were issued overall;
// summarize_load() (access_strategy.h) estimates L(S) from them as the
// busiest alive node's touches over access_denominator(). Touch
// increments are mirrored into KernelStats (quorum_loads_counted) by
// ServiceContext.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/ids.h"

namespace pqs::core {

class LoadAccountant {
public:
    // One top-level quorum access (advertise or lookup) was issued.
    void count_access() { ++accesses_; }

    // A previously issued access reached its final resolution (success,
    // miss, or timeout — all of them resolve; only ops still in flight at
    // teardown never do). Keeping issue and resolution separate stops
    // open-loop overload runs from flattering L(S): an in-flight access
    // has already touched nodes, so it must not pad the denominator.
    void count_access_resolved() { ++resolved_; }

    // Node `id` served a quorum request (stored an advertise, answered or
    // checked a lookup).
    void count_touch(util::NodeId id) {
        if (id >= touches_.size()) {
            touches_.resize(id + 1, 0);
        }
        ++touches_[id];
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t resolved() const { return resolved_; }
    std::uint64_t touches(util::NodeId id) const {
        return id < touches_.size() ? touches_[id] : 0;
    }
    const std::vector<std::uint64_t>& touch_table() const { return touches_; }

    // Denominator for L(S): resolved accesses when any resolution was
    // recorded, else the issue count (callers that never wire resolution
    // keep the historical behavior; fully-resolved runs are identical
    // either way since resolved == accesses there).
    std::uint64_t access_denominator() const {
        return resolved_ > 0 ? resolved_ : accesses_;
    }

private:
    std::vector<std::uint64_t> touches_;
    std::uint64_t accesses_ = 0;
    std::uint64_t resolved_ = 0;
};

}  // namespace pqs::core
