#include "phy/radio.h"

#include <algorithm>

namespace pqs::phy {

bool Radio::carrier_busy() const {
    return transmitting_ || total_power_mw_ >= thresholds_.cs_threshold_mw;
}

void Radio::begin_transmit() {
    transmitting_ = true;
    // Half duplex: any reception in progress is lost.
    if (locked_) {
        locked_corrupted_ = true;
    }
}

void Radio::end_transmit() { transmitting_ = false; }

std::vector<Radio::Arrival>::const_iterator Radio::find_arrival(
    std::uint64_t frame_id) const {
    return std::find_if(
        inflight_.begin(), inflight_.end(),
        [frame_id](const Arrival& a) { return a.frame_id == frame_id; });
}

double Radio::interference_for(std::uint64_t excluded_frame) const {
    double sum = thresholds_.noise_floor_mw;
    for (const Arrival& arrival : inflight_) {
        if (arrival.frame_id != excluded_frame) {
            sum += arrival.power_mw;
        }
    }
    return sum;
}

void Radio::update_locked_sinr() {
    if (!locked_ || locked_corrupted_) {
        return;
    }
    const auto it = find_arrival(locked_frame_);
    if (it == inflight_.end()) {
        return;
    }
    const double sinr = it->power_mw / interference_for(locked_frame_);
    if (sinr < thresholds_.sinr_capture) {
        locked_corrupted_ = true;
    }
}

void Radio::frame_begin(const Frame& frame, double rx_power_mw) {
    inflight_.push_back(Arrival{frame.frame_id, rx_power_mw});
    total_power_mw_ += rx_power_mw;

    if (!locked_ && !transmitting_ &&
        rx_power_mw >= thresholds_.rx_threshold_mw) {
        const double sinr = rx_power_mw / interference_for(frame.frame_id);
        if (sinr >= thresholds_.sinr_capture) {
            locked_ = true;
            locked_frame_ = frame.frame_id;
            locked_corrupted_ = false;
            return;
        }
    }
    // New arrival interferes with any ongoing locked reception.
    update_locked_sinr();
}

void Radio::frame_end(const Frame& frame) {
    const auto it = find_arrival(frame.frame_id);
    if (it == inflight_.end()) {
        return;
    }
    const double power_mw = it->power_mw;
    total_power_mw_ -= power_mw;
    inflight_.erase(it);
    if (total_power_mw_ < 0.0) {
        total_power_mw_ = 0.0;  // guard against FP drift
    }

    if (locked_ && frame.frame_id == locked_frame_) {
        const bool ok = !locked_corrupted_ && !transmitting_;
        locked_ = false;
        if (energy_) {
            energy_(frame);  // the receive chain ran either way
        }
        if (ok) {
            ++frames_received_;
            if (handler_) {
                handler_(frame, power_mw);
            }
        } else {
            ++frames_corrupted_;
        }
    }
}

}  // namespace pqs::phy
