#include "phy/channel.h"

#include <utility>

namespace pqs::phy {

Channel::Channel(sim::Simulator& simulator, const PositionProvider& positions,
                 PropagationParams propagation, RadioThresholds thresholds)
    : simulator_(simulator),
      positions_(positions),
      law_(propagation),
      thresholds_(thresholds),
      cutoff_m_(two_ray_range_for_threshold(propagation,
                                            thresholds.noise_floor_mw)) {}

void Channel::attach(util::NodeId id, Radio* radio) {
    if (radios_.size() <= id) {
        radios_.resize(static_cast<std::size_t>(id) + 1, nullptr);
    }
    radios_[id] = radio;
}

void Channel::detach(util::NodeId id) {
    if (id < radios_.size()) {
        radios_[id] = nullptr;
    }
}

Channel::Batch* Channel::acquire_batch() {
    if (free_batches_.empty()) {
        return &batches_.emplace_back();
    }
    Batch* batch = free_batches_.back();
    free_batches_.pop_back();
    return batch;
}

// pqs-hot: every frame the MAC puts on the air, hellos and acks included.
void Channel::transmit(util::NodeId src, Frame frame, sim::Time duration) {
    if (frame.frame_id == 0) {
        frame.frame_id = next_frame_id();
    }
    const geom::Vec2 origin = positions_.position(src);

    Batch* batch = acquire_batch();
    batch->sender = src < radios_.size() ? radios_[src] : nullptr;
    if (batch->sender != nullptr) {
        batch->sender->begin_transmit();
    }

    nearby_.clear();
    positions_.nodes_within(origin, cutoff_m_, nearby_, src);
    for (const util::NodeId id : nearby_) {
        Radio* radio = id < radios_.size() ? radios_[id] : nullptr;
        // awake, not alive: a sleeping radio hears nothing (it neither
        // receives nor interferes-locks on quorum probes).
        if (radio == nullptr || !positions_.awake(id)) {
            continue;
        }
        const double d_sq =
            geom::distance_sq(origin, positions_.position(id));
        if (d_sq <= 0.0) {
            continue;  // co-located; treat as unreceivable
        }
        const double power = law_.rx_power_mw(d_sq);
        if (power < thresholds_.noise_floor_mw) {
            continue;
        }
        radio->frame_begin(frame, power);
        batch->listeners.push_back(radio);
    }

    // Only listeners read the frame at the end; without any, the payload
    // goes back to its owner now rather than at the end of the airtime.
    if (!batch->listeners.empty()) {
        batch->frame = std::move(frame);
    }
    // pqs-lint: fire-and-forget(the batch lives in the channel and its
    // radios register for the channel's whole lifetime; the event ends the
    // transmission it was scheduled for and recycles the batch)
    simulator_.schedule_in(duration,
                           [this, batch] { end_transmission(batch); });
}

// pqs-hot: one call per transmission ends it at the sender and every
// listener.
void Channel::end_transmission(Batch* batch) {
    if (batch->sender != nullptr) {
        batch->sender->end_transmit();
    }
    // A listener's handler may transmit: that takes another batch, and
    // this one is not on the free list until the walk is over.
    for (Radio* radio : batch->listeners) {
        radio->frame_end(batch->frame);
    }
    batch->frame.payload.reset();
    batch->listeners.clear();
    free_batches_.push_back(batch);
}

}  // namespace pqs::phy
