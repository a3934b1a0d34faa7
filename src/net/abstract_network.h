// Abstract (protocol-model) link layer: a unicast hop succeeds iff the
// receiver is alive and within range at delivery time; otherwise the sender
// learns of the failure after a MAC-retry-budget delay. Broadcasts reach
// every in-range alive node. Message counting matches the full stack
// (one network-layer message per transmission).
#pragma once

#include <vector>

#include "net/link.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/ids.h"
#include "util/rng.h"

namespace pqs::net {

class World;

struct AbstractLinkParams {
    sim::Time delay_min = 1 * sim::kMillisecond;
    sim::Time delay_max = 3 * sim::kMillisecond;
    // Residual per-hop loss probabilities *after* MAC retries; normally ~0
    // for unicast, small for broadcast (no ack protection).
    double unicast_loss = 0.0;
    double broadcast_loss = 0.0;
    // Deliver unicast packets to promiscuous listeners in range of the
    // sender (§7.2 overhearing).
    bool promiscuous = false;
};

class AbstractLink final : public LinkLayer {
public:
    AbstractLink(World& world, AbstractLinkParams params);

    void unicast(PacketPtr p, LinkTxCallback done) override;
    void broadcast(PacketPtr p) override;

private:
    using IdList = std::vector<util::NodeId>;

    sim::Time hop_delay();
    // Schedules a second delivery of `p` to `to` after one extra hop delay
    // (LinkFaults::duplicate injection).
    void inject_duplicate(const PacketPtr& p, util::NodeId to);

    // Receiver-snapshot buffers, recycled between transmissions: each
    // broadcast's delivery event holds one by value (so an event destroyed
    // unfired still frees it) and returns it when it fires.
    IdList acquire_ids();
    void release_ids(IdList ids);

    World& world_;
    AbstractLinkParams params_;
    util::Rng rng_;
    std::vector<IdList> id_pool_;
};

}  // namespace pqs::net
