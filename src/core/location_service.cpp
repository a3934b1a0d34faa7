#include "core/location_service.h"

#include <algorithm>
#include <vector>

namespace pqs::core {

LocationService::LocationService(net::World& world, BiquorumSpec spec,
                                 membership::OracleMembership* membership)
    : world_(world), biquorum_(world, spec, membership) {
    published_.resize(world.node_count());
}

void LocationService::advertise(util::NodeId origin, util::Key key,
                                Value value, AccessCallback done) {
    if (origin >= published_.size()) {
        published_.resize(origin + 1);
    }
    published_[origin][key] = value;
    biquorum_.advertise(origin, key, value, std::move(done));
}

void LocationService::record_published(util::NodeId origin, util::Key key,
                                       Value value) {
    if (origin >= published_.size()) {
        published_.resize(origin + 1);
    }
    published_[origin][key] = value;
}

void LocationService::lookup(util::NodeId origin, util::Key key,
                             AccessCallback done) {
    biquorum_.lookup(origin, key, std::move(done));
}

void LocationService::refresh(util::NodeId origin,
                              AccessCallback per_key_done) {
    if (origin >= published_.size()) {
        return;
    }
    // Advertise in sorted key order: unordered_map iteration order is an
    // implementation detail, and each advertise consumes RNG draws, so the
    // order must be pinned for runs to be bit-identical across platforms.
    std::vector<util::Key> keys;
    keys.reserve(published_[origin].size());
    for (const auto& [key, value] : published_[origin]) {
        keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    for (const util::Key key : keys) {
        biquorum_.advertise(origin, key, published_[origin].at(key),
                            per_key_done);
    }
}

const std::unordered_map<util::Key, Value>& LocationService::published(
    util::NodeId node) const {
    return node < published_.size() ? published_[node] : empty_;
}

}  // namespace pqs::core
