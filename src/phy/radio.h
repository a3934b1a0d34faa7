// Half-duplex radio with cumulative-interference SINR reception (the
// "physical model" of §2.3 / RadioNoiseAdditive of §2.4). The radio locks
// onto the first decodable frame, accumulates interference from concurrent
// arrivals, and delivers the frame at its end time iff the SINR stayed
// above the capture threshold for the whole reception.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "phy/propagation.h"
#include "sim/time.h"
#include "util/ids.h"

namespace pqs::phy {

inline constexpr util::NodeId kBroadcastId = util::kInvalidNode;

struct Frame {
    std::uint64_t frame_id = 0;
    util::NodeId src = util::kInvalidNode;
    util::NodeId dst = kBroadcastId;  // MAC-level destination
    std::size_t bytes = 512;
    bool is_ack = false;
    std::uint32_t mac_seq = 0;
    // obs::TraceId of the op whose packet this frame carries (0 =
    // untraced); raw integer so the PHY stays free of upper-layer deps.
    std::uint64_t trace = 0;
    // Opaque payload owned by the link layer; the PHY never looks inside.
    std::shared_ptr<const void> payload;
};

class Radio {
public:
    using RxHandler = std::function<void(const Frame&, double rx_power_mw)>;

    explicit Radio(RadioThresholds thresholds) : thresholds_(thresholds) {}

    void set_rx_handler(RxHandler handler) { handler_ = std::move(handler); }

    // Invoked once per frame the radio finished demodulating (received or
    // corrupted — the receive chain ran either way); the energy model
    // reconstructs airtime from the frame and charges the rx draw. Null
    // by default: one pointer test per frame end.
    using EnergyListener = std::function<void(const Frame&)>;
    void set_energy_listener(EnergyListener listener) {
        energy_ = std::move(listener);
    }

    bool transmitting() const { return transmitting_; }
    // Channel busy for carrier sensing: we are transmitting or the total
    // in-flight power reaches the carrier-sense threshold.
    bool carrier_busy() const;

    // --- called by the Channel ---
    void begin_transmit();
    void end_transmit();
    // A frame starts arriving with the given received power.
    void frame_begin(const Frame& frame, double rx_power_mw);
    // The same frame stops arriving; delivers it upward on success.
    void frame_end(const Frame& frame);

    // Diagnostics.
    double inflight_power_mw() const { return total_power_mw_; }
    std::uint64_t frames_received() const { return frames_received_; }
    std::uint64_t frames_corrupted() const { return frames_corrupted_; }

private:
    struct Arrival {
        std::uint64_t frame_id;
        double power_mw;
    };

    std::vector<Arrival>::const_iterator find_arrival(
        std::uint64_t frame_id) const;
    double interference_for(std::uint64_t excluded_frame) const;
    void update_locked_sinr();

    RadioThresholds thresholds_;
    RxHandler handler_;
    EnergyListener energy_;
    bool transmitting_ = false;

    // Frames arriving now, in arrival order. Rarely more than three, so
    // lookups scan, and the interference sum adds in a fixed order.
    std::vector<Arrival> inflight_;
    double total_power_mw_ = 0.0;

    bool locked_ = false;
    std::uint64_t locked_frame_ = 0;
    bool locked_corrupted_ = false;

    std::uint64_t frames_received_ = 0;
    std::uint64_t frames_corrupted_ = 0;
};

}  // namespace pqs::phy
