#include "phy/channel.h"
#include "phy/radio.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace pqs::phy {
namespace {

// Fixed-position provider for controlled PHY experiments.
class FixedPositions final : public PositionProvider {
public:
    void add(util::NodeId id, geom::Vec2 pos) {
        if (positions_.size() <= id) {
            positions_.resize(id + 1);
            alive_.resize(id + 1, false);
        }
        positions_[id] = pos;
        alive_[id] = true;
    }

    geom::Vec2 position(util::NodeId id) const override {
        return positions_.at(id);
    }
    bool alive(util::NodeId id) const override {
        return id < alive_.size() && alive_[id];
    }
    void kill(util::NodeId id) { alive_[id] = false; }
    void nodes_within(geom::Vec2 center, double radius,
                      std::vector<util::NodeId>& out,
                      util::NodeId exclude) const override {
        for (util::NodeId i = 0; i < positions_.size(); ++i) {
            if (i != exclude && alive_[i] &&
                geom::in_range(center, positions_[i], radius)) {
                out.push_back(i);
            }
        }
    }

private:
    std::vector<geom::Vec2> positions_;
    std::vector<bool> alive_;
};

struct ChannelFixture : ::testing::Test {
    sim::Simulator simulator;
    FixedPositions positions;
    PropagationParams propagation;
    RadioThresholds thresholds;

    std::unique_ptr<Channel> channel;
    std::vector<std::unique_ptr<Radio>> radios;
    std::vector<std::vector<Frame>> received;

    void build(const std::vector<geom::Vec2>& where) {
        channel = std::make_unique<Channel>(simulator, positions, propagation,
                                            thresholds);
        received.resize(where.size());
        for (util::NodeId i = 0; i < where.size(); ++i) {
            positions.add(i, where[i]);
            radios.push_back(std::make_unique<Radio>(thresholds));
            radios[i]->set_rx_handler(
                [this, i](const Frame& f, double) { received[i].push_back(f); });
            channel->attach(i, radios[i].get());
        }
    }

    Frame frame(util::NodeId src, util::NodeId dst) {
        Frame f;
        f.src = src;
        f.dst = dst;
        f.bytes = 512;
        return f;
    }
};

TEST_F(ChannelFixture, InRangeReceives) {
    build({{0.0, 0.0}, {150.0, 0.0}});
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    ASSERT_EQ(received[1].size(), 1u);
    EXPECT_EQ(received[1][0].src, 0u);
}

TEST_F(ChannelFixture, OutOfDecodeRangeSilent) {
    build({{0.0, 0.0}, {400.0, 0.0}});  // beyond 200 m decode range
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_TRUE(received[1].empty());
}

TEST_F(ChannelFixture, DeadReceiverIgnored) {
    build({{0.0, 0.0}, {100.0, 0.0}});
    positions.kill(1);
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_TRUE(received[1].empty());
}

TEST_F(ChannelFixture, ConcurrentTransmissionsCollide) {
    // Receiver 1 sits between two simultaneous equal-power transmitters:
    // SINR ~ 1 << 10, so both frames are lost.
    build({{0.0, 0.0}, {150.0, 0.0}, {300.0, 0.0}});
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    channel->transmit(2, frame(2, 1), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_TRUE(received[1].empty());
    EXPECT_GE(radios[1]->frames_corrupted(), 1u);
}

TEST_F(ChannelFixture, CaptureStrongFrameSurvivesWeakInterference) {
    // Interferer is far: desired signal 50 m (strong), interferer 290 m
    // (weak) => SINR >> 10, capture succeeds.
    build({{0.0, 0.0}, {50.0, 0.0}, {340.0, 0.0}});
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    channel->transmit(2, frame(2, 1), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    ASSERT_EQ(received[1].size(), 1u);
    EXPECT_EQ(received[1][0].src, 0u);
}

TEST_F(ChannelFixture, LateInterfererCorruptsLockedFrame) {
    build({{0.0, 0.0}, {150.0, 0.0}, {300.0, 0.0}});
    channel->transmit(0, frame(0, 1), 2 * sim::kMillisecond);
    simulator.schedule_at(sim::kMillisecond, [this] {
        channel->transmit(2, frame(2, 1), 2 * sim::kMillisecond);
    });
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_TRUE(received[1].empty());
    EXPECT_EQ(radios[1]->frames_corrupted(), 1u);
}

TEST_F(ChannelFixture, HalfDuplexTransmitterCannotReceive) {
    build({{0.0, 0.0}, {100.0, 0.0}});
    channel->transmit(0, frame(0, 1), 2 * sim::kMillisecond);
    channel->transmit(1, frame(1, 0), 2 * sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_TRUE(received[0].empty());
    EXPECT_TRUE(received[1].empty());
}

TEST_F(ChannelFixture, CarrierSenseDetectsNearbyTransmission) {
    build({{0.0, 0.0}, {250.0, 0.0}});  // within 299 m carrier sense
    EXPECT_FALSE(radios[1]->carrier_busy());
    channel->transmit(0, frame(0, phy::kBroadcastId), 2 * sim::kMillisecond);
    simulator.run_until(sim::kMillisecond);
    EXPECT_TRUE(radios[1]->carrier_busy());
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_FALSE(radios[1]->carrier_busy());
}

TEST_F(ChannelFixture, BeyondCarrierSenseNotBusy) {
    build({{0.0, 0.0}, {350.0, 0.0}});
    channel->transmit(0, frame(0, phy::kBroadcastId), 2 * sim::kMillisecond);
    simulator.run_until(sim::kMillisecond);
    EXPECT_FALSE(radios[1]->carrier_busy());
}

TEST_F(ChannelFixture, BroadcastReachesAllInRange) {
    build({{0.0, 0.0}, {100.0, 0.0}, {190.0, 0.0}, {500.0, 0.0}});
    channel->transmit(0, frame(0, phy::kBroadcastId), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_EQ(received[1].size(), 1u);
    EXPECT_EQ(received[2].size(), 1u);
    EXPECT_TRUE(received[3].empty());
}

TEST_F(ChannelFixture, DetachedRadioHearsNothing) {
    build({{0.0, 0.0}, {100.0, 0.0}});
    channel->detach(1);
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_TRUE(received[1].empty());
}

TEST_F(ChannelFixture, TransmissionIsOneEventForAllListeners) {
    // Sender plus three listeners: the frame ends at all of them, and at
    // the sender, through a single scheduled event.
    build({{0.0, 0.0}, {50.0, 0.0}, {100.0, 0.0}, {150.0, 0.0}});
    const std::uint64_t before =
        simulator.kernel_stats().events_scheduled;
    channel->transmit(0, frame(0, phy::kBroadcastId), sim::kMillisecond);
    EXPECT_EQ(simulator.kernel_stats().events_scheduled - before, 1u);
    simulator.run_until(10 * sim::kMillisecond);
    for (util::NodeId i = 1; i <= 3; ++i) {
        EXPECT_EQ(received[i].size(), 1u) << "listener " << i;
        EXPECT_EQ(radios[i]->inflight_power_mw(), 0.0) << "listener " << i;
    }
}

TEST_F(ChannelFixture, SenderStopsTransmittingBeforeListenersHearTheEnd) {
    // The sender's radio leaves transmit state first at the shared end
    // instant, so a listener's handler already sees it idle.
    build({{0.0, 0.0}, {100.0, 0.0}});
    std::vector<bool> sender_transmitting;
    radios[1]->set_rx_handler([&](const Frame&, double) {
        sender_transmitting.push_back(radios[0]->transmitting());
    });
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    EXPECT_TRUE(radios[0]->transmitting());
    simulator.run_until(10 * sim::kMillisecond);
    ASSERT_EQ(sender_transmitting.size(), 1u);
    EXPECT_FALSE(sender_transmitting[0]);
}

TEST_F(ChannelFixture, ReceiveHandlerMayTransmitWhileTheEndIsDelivered) {
    // Listener 1 answers its first frame with a burst of transmissions
    // from inside the handler, while listeners 2 and 3 are still owed the
    // end of that frame. Each transmission takes a fresh batch while the
    // current one is being walked; under ASan a batch that moved would
    // show up as a use-after-free.
    build({{0.0, 0.0}, {60.0, 0.0}, {120.0, 0.0}, {180.0, 0.0}});
    constexpr int kBurst = 64;
    int answered = 0;
    radios[1]->set_rx_handler([&](const Frame&, double) {
        if (answered++ > 0) {
            return;
        }
        for (int k = 0; k < kBurst; ++k) {
            channel->transmit(1, frame(1, phy::kBroadcastId),
                              sim::kMillisecond);
        }
    });
    channel->transmit(0, frame(0, phy::kBroadcastId), sim::kMillisecond);
    simulator.run_all();
    EXPECT_EQ(answered, 1);
    EXPECT_EQ(simulator.pending_events(), 0u);
    for (util::NodeId i = 0; i < radios.size(); ++i) {
        EXPECT_FALSE(radios[i]->transmitting()) << "radio " << i;
        EXPECT_FALSE(radios[i]->carrier_busy()) << "radio " << i;
    }
    // Listeners 2 and 3 still got the end of the first frame, which the
    // burst had corrupted at them.
    for (util::NodeId i = 2; i <= 3; ++i) {
        EXPECT_EQ(radios[i]->frames_corrupted(), 1u) << "listener " << i;
        EXPECT_EQ(radios[i]->frames_received(), 0u) << "listener " << i;
    }
}

TEST_F(ChannelFixture, RadioDetachedMidFrameStillHearsTheEnd) {
    build({{0.0, 0.0}, {100.0, 0.0}});
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    channel->detach(1);
    EXPECT_TRUE(radios[1]->carrier_busy());
    simulator.run_until(10 * sim::kMillisecond);
    ASSERT_EQ(received[1].size(), 1u);
    EXPECT_EQ(received[1][0].src, 0u);
    EXPECT_FALSE(radios[1]->carrier_busy());
    // Detached for later transmissions, though.
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    simulator.run_until(20 * sim::kMillisecond);
    EXPECT_EQ(received[1].size(), 1u);
}

TEST_F(ChannelFixture, InterferenceCutoffCoversNoiseFloor) {
    // The cutoff must be at least the distance where power = noise floor.
    build({{0.0, 0.0}});
    const double at_cutoff =
        two_ray_rx_power_mw(propagation, channel->interference_cutoff_m());
    EXPECT_NEAR(at_cutoff, thresholds.noise_floor_mw,
                thresholds.noise_floor_mw * 0.05);
}

}  // namespace
}  // namespace pqs::phy
