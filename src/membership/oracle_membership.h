// The membership service behind membership-based RANDOM (§4.1): each
// node's view is resampled uniformly from the currently-alive nodes at most
// every refresh period. Sampling itself is message-free, matching the
// paper's accounting ("this cost is amortized over all advertise accesses",
// §8.1); staleness between refreshes is retained because it is what churn
// experiments exercise.
#pragma once

#include <cstddef>
#include <vector>

#include "net/world.h"
#include "sim/time.h"
#include "util/ids.h"
#include "util/rng.h"

namespace pqs::membership {

// The paper's default view size: 2 * sqrt(n).
std::size_t default_view_size(std::size_t n);

struct OracleMembershipParams {
    std::size_t view_size = 0;  // 0 => 2*sqrt(n)
    // Views resample from the alive set at most this often; between
    // refreshes entries go stale (dead nodes linger).
    sim::Time refresh_period = 10 * sim::kSecond;
};

class OracleMembership {
public:
    OracleMembership(net::World& world, OracleMembershipParams params = {});

    // Up to k distinct node ids drawn uniformly from `node`'s current view
    // (may contain stale/dead nodes). Fewer than k are returned when the
    // view is smaller.
    std::vector<util::NodeId> sample(util::NodeId node, std::size_t k);

    // Current view size at `node`.
    std::size_t view_size(util::NodeId node) const;

    // Entire current view (refreshing it if due); exposed for tests.
    const std::vector<util::NodeId>& view(util::NodeId node);

private:
    void refresh_if_due(util::NodeId node);

    struct View {
        std::vector<util::NodeId> members;
        sim::Time refreshed = -1;
    };

    net::World& world_;
    OracleMembershipParams params_;
    util::Rng rng_;
    std::vector<View> views_;
};

}  // namespace pqs::membership
