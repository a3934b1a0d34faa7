#include "net/neighbor.h"

namespace pqs::net {

void HelloSlab::spill(util::NodeId row, util::NodeId from, sim::Time now) {
    std::uint32_t block = 0;
    if (free_spill_.empty()) {
        block = static_cast<std::uint32_t>(spill_.size());
        spill_.emplace_back();
    } else {
        block = free_spill_.back();
        free_spill_.pop_back();
    }
    std::uint32_t* const header = &ids_[header_at(row)];
    const sim::Time* const heard = &heard_[heard_at(row)];
    // A recycled block keeps the capacity of its earlier rows.
    Spill& s = spill_[block];
    s.ids.assign(header + 1, header + 1 + capacity_);
    s.heard.assign(heard, heard + capacity_);
    const std::uint32_t at =
        util::branchless_lower_bound(s.ids.data(), capacity_, from);
    s.ids.insert(s.ids.begin() + at, from);
    s.heard.insert(s.heard.begin() + at, now);
    *header = kSpilled | block;
    ++spills_;
}

void HelloSlab::spilled_hello(util::NodeId row, util::NodeId from,
                              sim::Time now) {
    std::uint32_t* const header = &ids_[header_at(row)];
    const std::uint32_t block = *header & ~kSpilled;
    Spill& s = spill_[block];
    auto count = static_cast<std::uint32_t>(s.ids.size());
    std::uint32_t at = util::branchless_lower_bound(s.ids.data(), count, from);
    if (at < count && s.ids[at] == from) {
        s.heard[at] = now;
        ++spills_;
        return;
    }
    count = prune(s.ids.data(), s.heard.data(), count, now);
    s.ids.resize(count);
    s.heard.resize(count);
    if (count < capacity_) {
        // Back inline; the block returns to the free list.
        util::NodeId* const ids = header + 1;
        sim::Time* const heard = &heard_[heard_at(row)];
        std::copy(s.ids.begin(), s.ids.end(), ids);
        std::copy(s.heard.begin(), s.heard.end(), heard);
        free_spill_.push_back(block);
        at = util::branchless_lower_bound(ids, count, from);
        insert(ids, heard, count, at, from, now);
        *header = count + 1;
        return;
    }
    at = util::branchless_lower_bound(s.ids.data(), count, from);
    s.ids.insert(s.ids.begin() + at, from);
    s.heard.insert(s.heard.begin() + at, now);
    ++spills_;
}

}  // namespace pqs::net
