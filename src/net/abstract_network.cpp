#include "net/abstract_network.h"

#include "geom/vec2.h"
#include "net/world.h"

namespace pqs::net {

namespace {
// Detection latency of a failed unicast (approximate airtime of 7 retries
// with backoff).
constexpr sim::Time kFailureDetect = 25 * sim::kMillisecond;
}  // namespace

AbstractLink::AbstractLink(World& world, AbstractLinkParams params)
    : world_(world), params_(params), rng_(world.rng().fork()) {}

sim::Time AbstractLink::hop_delay() {
    return params_.delay_min +
           static_cast<sim::Time>(rng_.uniform_u64(static_cast<std::uint64_t>(
               params_.delay_max - params_.delay_min + 1)));
}

AbstractLink::IdList AbstractLink::acquire_ids() {
    if (id_pool_.empty()) {
        return {};
    }
    IdList ids = std::move(id_pool_.back());
    id_pool_.pop_back();
    ids.clear();
    return ids;
}

void AbstractLink::release_ids(IdList ids) {
    id_pool_.push_back(std::move(ids));
}

// pqs-hot: per-message fan-out; every quorum access funnels through here.
void AbstractLink::unicast(PacketPtr p, LinkTxCallback done) {
    const util::NodeId from = p->link_src;
    const util::NodeId to = p->link_dst;
    const sim::Time delay = hop_delay();
    // An asleep sender's radio is off: its pending timers may still call
    // unicast, but nothing goes on the air (nothing is counted or charged).
    if (world_.awake(from)) {
        world_.count_tx(*p);
        world_.charge_tx_bytes(from, p->size_bytes());
    }

    if (params_.promiscuous && world_.awake(from)) {
        // Everyone in radio range of the sender hears the transmission.
        // Snapshot into a recycled buffer — same grid query (and counter
        // trace) as physical_neighbors, minus the per-call vector.
        IdList listeners = acquire_ids();
        world_.nodes_within(world_.position(from), world_.range(),
                            listeners, from);
        // pqs-lint: fire-and-forget(in-flight overhear delivery; the link
        // is World-owned and the body re-checks listener liveness)
        world_.simulator().schedule_in(
            delay,
            [this, p, to, listeners = std::move(listeners)]() mutable {
                for (const util::NodeId listener : listeners) {
                    // awake, not alive: sleeping radios overhear nothing.
                    if (listener != to && world_.awake(listener)) {
                        world_.charge_rx_bytes(listener, p->size_bytes());
                        world_.overhear(listener, p);
                    }
                }
                release_ids(std::move(listeners));
            });
    }

    // pqs-lint: fire-and-forget(in-flight frame; deliverability and node
    // liveness are re-evaluated at delivery time, per the airtime model)
    world_.simulator().schedule_in(delay, [this, p, from, to,
                                           done = std::move(done)]() mutable {
        // Evaluate deliverability at delivery time: mobility, failures or
        // sleep transitions during the airtime window count against the
        // hop (an asleep receiver misses the probe and sends no ack, so
        // the sender sees the same failure as a crash). Injected faults
        // draw randomness only while armed, so fault-free runs keep their
        // exact RNG stream (golden fingerprints).
        bool reachable =
            world_.awake(from) && world_.awake(to) &&
            geom::in_range(world_.position(from), world_.position(to),
                           world_.range()) &&
            !rng_.bernoulli(params_.unicast_loss);
        if (reachable && faults_.drop > 0.0 && rng_.bernoulli(faults_.drop)) {
            reachable = false;
        }
        if (reachable) {
            world_.charge_rx_bytes(to, p->size_bytes());
            world_.deliver(to, p);
            if (faults_.duplicate > 0.0 &&
                rng_.bernoulli(faults_.duplicate)) {
                inject_duplicate(p, to);
            }
            if (done) {
                done(true);
            }
        } else if (done) {
            // The MAC burns its retry budget before reporting failure.
            // pqs-lint: fire-and-forget(failure callback owns its state by
            // value; nothing it touches can die before it fires)
            world_.simulator().schedule_in(
                kFailureDetect, [done = std::move(done)] { done(false); });
        }
    });
}

// pqs-hot: hello heartbeats and RREQ floods all land here — at n=100k
// this is the single busiest function in the abstract stack.
void AbstractLink::broadcast(PacketPtr p) {
    const util::NodeId from = p->link_src;
    if (!world_.awake(from)) {
        return;
    }
    world_.count_tx(*p);
    world_.charge_tx_bytes(from, p->size_bytes());
    const sim::Time delay = hop_delay();
    // Snapshot receivers at send time (into a recycled buffer); they must
    // still be in range and alive at delivery time.
    IdList receivers = acquire_ids();
    world_.nodes_within(world_.position(from), world_.range(), receivers,
                        from);
    // pqs-lint: fire-and-forget(in-flight broadcast; receivers are
    // re-validated alive-and-in-range at delivery time)
    world_.simulator().schedule_in(
        delay,
        [this, p, from, receivers = std::move(receivers)]() mutable {
            if (!world_.awake(from)) {
                release_ids(std::move(receivers));
                return;
            }
            // Nothing in the loop moves the sender (a fail_node inside it
            // freezes this same point), so its position is read once.
            const geom::Vec2 at = world_.position(from);
            for (const util::NodeId to : receivers) {
                if (world_.awake(to) &&
                    geom::in_range(at, world_.position(to), world_.range()) &&
                    !rng_.bernoulli(params_.broadcast_loss)) {
                    if (faults_.drop > 0.0 &&
                        rng_.bernoulli(faults_.drop)) {
                        continue;
                    }
                    world_.charge_rx_bytes(to, p->size_bytes());
                    world_.deliver(to, p);
                    if (faults_.duplicate > 0.0 &&
                        rng_.bernoulli(faults_.duplicate)) {
                        inject_duplicate(p, to);
                    }
                }
            }
            release_ids(std::move(receivers));
        });
}

void AbstractLink::inject_duplicate(const PacketPtr& p, util::NodeId to) {
    // The duplicate trails the original by one extra hop delay and must
    // still find the receiver alive — a node that crashed in between
    // swallows it.
    // pqs-lint: fire-and-forget(injected duplicate; the body re-checks the
    // receiver is still alive, and the link is World-owned for the run)
    world_.simulator().schedule_in(hop_delay(), [this, p, to] {
        if (world_.awake(to)) {
            world_.charge_rx_bytes(to, p->size_bytes());
            world_.deliver(to, p);
        }
    });
}

}  // namespace pqs::net
