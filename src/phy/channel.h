// Shared wireless medium: when a node transmits, the channel computes the
// received power at every awake radio within the interference cutoff
// (two-ray model) and starts the frame at each of them. One event at the
// frame's end time then ends the transmission everywhere: the sender's
// radio first, then each listener in the order it was reached. Propagation
// delay is ignored (sub-microsecond at these ranges), as in SWANS.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "geom/vec2.h"
#include "phy/propagation.h"
#include "phy/radio.h"
#include "sim/simulator.h"
#include "util/ids.h"

namespace pqs::phy {

// Narrow view of the world the channel needs: who is where and alive.
class PositionProvider {
public:
    virtual ~PositionProvider() = default;
    virtual geom::Vec2 position(util::NodeId id) const = 0;
    virtual bool alive(util::NodeId id) const = 0;
    // Alive with the radio powered on; a duty-cycled node that is asleep
    // is alive but not awake, and hears nothing. Defaults to alive for
    // providers without a sleep state.
    virtual bool awake(util::NodeId id) const { return alive(id); }
    virtual void nodes_within(geom::Vec2 center, double radius,
                              std::vector<util::NodeId>& out,
                              util::NodeId exclude) const = 0;
};

class Channel {
public:
    Channel(sim::Simulator& simulator, const PositionProvider& positions,
            PropagationParams propagation, RadioThresholds thresholds);

    // Registers the radio for a node; the channel does not own radios.
    void attach(util::NodeId id, Radio* radio);
    // Stops the node's radio from hearing later transmissions. A frame
    // already arriving at it still ends there.
    void detach(util::NodeId id);

    // Transmits `frame` from `src` for `duration`. The source radio is put
    // in transmit state for the duration; every attached, awake radio
    // within the interference cutoff observes the frame.
    void transmit(util::NodeId src, Frame frame, sim::Time duration);

    // Distance beyond which received power falls below the thermal noise
    // floor and the transmission is ignored entirely.
    double interference_cutoff_m() const { return cutoff_m_; }

    std::uint64_t next_frame_id() { return next_frame_id_++; }

private:
    // One transmission on the air: the frame, held once for all of its
    // listeners, and the radios whose transmission or reception it ends.
    struct Batch {
        Frame frame;
        Radio* sender = nullptr;
        std::vector<Radio*> listeners;
    };

    Batch* acquire_batch();
    void end_transmission(Batch* batch);

    sim::Simulator& simulator_;
    const PositionProvider& positions_;
    TwoRayLaw law_;
    RadioThresholds thresholds_;
    double cutoff_m_;
    std::vector<Radio*> radios_;  // by node id; nullptr when detached
    std::vector<util::NodeId> nearby_;  // nodes_within scratch
    // A receive handler may transmit while its batch is being ended, so
    // batches live in a deque, whose elements keep their addresses as it
    // grows, and are recycled through a free list.
    std::deque<Batch> batches_;
    std::vector<Batch*> free_batches_;
    std::uint64_t next_frame_id_ = 1;
};

}  // namespace pqs::phy
