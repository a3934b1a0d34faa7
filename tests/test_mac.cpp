#include "mac/csma_mac.h"

#include <gtest/gtest.h>

#include "phy/channel.h"
#include "sim/simulator.h"

namespace pqs::mac {
namespace {

class FixedPositions final : public phy::PositionProvider {
public:
    void add(util::NodeId id, geom::Vec2 pos) {
        if (positions_.size() <= id) {
            positions_.resize(id + 1);
            alive_.resize(id + 1, false);
        }
        positions_[id] = pos;
        alive_[id] = true;
    }
    void kill(util::NodeId id) { alive_[id] = false; }
    geom::Vec2 position(util::NodeId id) const override {
        return positions_.at(id);
    }
    bool alive(util::NodeId id) const override {
        return id < alive_.size() && alive_[id];
    }
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

struct MacFixture : ::testing::Test {
    sim::Simulator simulator;
    FixedPositions positions;
    phy::PropagationParams propagation;
    phy::RadioThresholds thresholds;
    MacParams mac_params;

    std::unique_ptr<phy::Channel> channel;
    std::vector<std::unique_ptr<phy::Radio>> radios;
    std::vector<std::unique_ptr<CsmaMac>> macs;
    std::vector<std::vector<phy::Frame>> received;

    void build(const std::vector<geom::Vec2>& where) {
        channel = std::make_unique<phy::Channel>(simulator, positions,
                                                 propagation, thresholds);
        received.resize(where.size());
        util::Rng seed(1234);
        for (util::NodeId i = 0; i < where.size(); ++i) {
            positions.add(i, where[i]);
            radios.push_back(std::make_unique<phy::Radio>(thresholds));
            macs.push_back(std::make_unique<CsmaMac>(
                i, simulator, *channel, *radios[i], mac_params, seed.fork()));
            macs[i]->set_rx_handler([this, i](const phy::Frame& f) {
                received[i].push_back(f);
            });
            channel->attach(i, radios[i].get());
        }
    }

    phy::Frame data(util::NodeId dst, std::size_t bytes = 512) {
        phy::Frame f;
        f.dst = dst;
        f.bytes = bytes;
        return f;
    }
};

TEST_F(MacFixture, UnicastDeliveredAndAcked) {
    build({{0.0, 0.0}, {120.0, 0.0}});
    int acks = 0;
    macs[0]->send(data(1), [&](bool ok) { acks += ok ? 1 : 0; });
    simulator.run_until(sim::kSecond);
    EXPECT_EQ(acks, 1);
    ASSERT_EQ(received[1].size(), 1u);
    EXPECT_EQ(received[1][0].src, 0u);
}

TEST_F(MacFixture, UnicastToDeadNodeFailsAfterRetries) {
    build({{0.0, 0.0}, {120.0, 0.0}});
    positions.kill(1);
    bool failed = false;
    macs[0]->send(data(1), [&](bool ok) { failed = !ok; });
    simulator.run_until(5 * sim::kSecond);
    EXPECT_TRUE(failed);
    // 1 initial + max_retries attempts.
    EXPECT_EQ(macs[0]->tx_attempts(),
              static_cast<std::uint64_t>(mac_params.max_retries) + 1);
    EXPECT_EQ(macs[0]->tx_failures(), 1u);
}

TEST_F(MacFixture, BroadcastNoAckSingleTransmission) {
    build({{0.0, 0.0}, {100.0, 0.0}, {150.0, 0.0}});
    bool done = false;
    macs[0]->send(data(phy::kBroadcastId), [&](bool ok) { done = ok; });
    simulator.run_until(sim::kSecond);
    EXPECT_TRUE(done);
    EXPECT_EQ(macs[0]->tx_attempts(), 1u);
    EXPECT_EQ(received[1].size(), 1u);
    EXPECT_EQ(received[2].size(), 1u);
}

TEST_F(MacFixture, QueuedFramesAllDelivered) {
    build({{0.0, 0.0}, {120.0, 0.0}});
    int acked = 0;
    for (int i = 0; i < 10; ++i) {
        macs[0]->send(data(1), [&](bool ok) { acked += ok ? 1 : 0; });
    }
    simulator.run_until(5 * sim::kSecond);
    EXPECT_EQ(acked, 10);
    EXPECT_EQ(received[1].size(), 10u);
}

TEST_F(MacFixture, DuplicateSuppressionOnRetransmit) {
    // Two nodes placed so that data gets through but we force retries by
    // making the first ack collide: hard to stage deterministically, so we
    // instead verify the dedup filter directly with the same mac_seq.
    build({{0.0, 0.0}, {120.0, 0.0}});
    phy::Frame f = data(1);
    f.src = 0;
    f.mac_seq = 99;
    f.frame_id = channel->next_frame_id();
    channel->transmit(0, f, sim::kMillisecond);
    simulator.run_until(100 * sim::kMillisecond);
    f.frame_id = channel->next_frame_id();
    channel->transmit(0, f, sim::kMillisecond);  // duplicate mac_seq
    simulator.run_until(sim::kSecond);
    EXPECT_EQ(received[1].size(), 1u);
}

TEST_F(MacFixture, ContendingSendersBothSucceed) {
    // Nodes within carrier-sense range contend but backoff arbitrates.
    build({{0.0, 0.0}, {120.0, 0.0}, {240.0, 0.0}});
    int acked = 0;
    for (int i = 0; i < 5; ++i) {
        macs[0]->send(data(1), [&](bool ok) { acked += ok ? 1 : 0; });
        macs[2]->send(data(1), [&](bool ok) { acked += ok ? 1 : 0; });
    }
    simulator.run_until(10 * sim::kSecond);
    EXPECT_EQ(acked, 10);
    EXPECT_EQ(received[1].size(), 10u);
}

TEST_F(MacFixture, ShutdownDropsQueue) {
    build({{0.0, 0.0}, {120.0, 0.0}});
    int callbacks = 0;
    macs[0]->send(data(1), [&](bool) { ++callbacks; });
    macs[0]->send(data(1), [&](bool) { ++callbacks; });
    macs[0]->shutdown();
    simulator.run_until(sim::kSecond);
    EXPECT_EQ(callbacks, 0);
    EXPECT_TRUE(received[1].empty());
}

TEST_F(MacFixture, DestructionCancelsPendingAckTimer) {
    build({{0.0, 0.0}, {120.0, 0.0}});
    positions.kill(1);  // the ack can never arrive
    macs[0]->send(data(1), [](bool) {});
    // Step into the ack-wait window: first transmission done, and the only
    // event left in the whole simulation is mac 0's ack timeout.
    while (simulator.now() < sim::kSecond &&
           !(macs[0]->tx_attempts() >= 1 &&
             simulator.pending_events() == 1)) {
        simulator.run_until(simulator.now() + 10 * sim::kMicrosecond);
    }
    ASSERT_EQ(simulator.pending_events(), 1u);
    // Destroying the MAC mid-wait must cancel the timer; leaving it armed
    // would fire a callback into freed memory.
    macs[0].reset();
    EXPECT_EQ(simulator.pending_events(), 0u);
    simulator.run_until(5 * sim::kSecond);
}

TEST_F(MacFixture, FrameDurationScalesWithSize) {
    build({{0.0, 0.0}, {120.0, 0.0}});
    // Big frames take longer: measure ack time difference indirectly.
    sim::Time t_small = 0;
    sim::Time t_big = 0;
    macs[0]->send(data(1, 64), [&](bool) { t_small = simulator.now(); });
    simulator.run_until(sim::kSecond);
    macs[0]->send(data(1, 2048), [&](bool) { t_big = simulator.now() - t_small; });
    simulator.run_until(2 * sim::kSecond);
    EXPECT_GT(t_big, 0);
    EXPECT_GT(t_big, (2048 - 64) * 8 * sim::kMicrosecond / 11);
}

TEST_F(MacFixture, PromiscuousModeOverhearsForeignUnicasts) {
    build({{0.0, 0.0}, {120.0, 0.0}, {60.0, 100.0}});
    // Node 2 can decode the 0 -> 1 exchange but is not addressed.
    int overheard = 0;
    macs[2]->set_promiscuous_handler([&](const phy::Frame& frame) {
        EXPECT_EQ(frame.dst, 1u);
        ++overheard;
    });
    int acked = 0;
    macs[0]->send(data(1), [&](bool ok) { acked += ok; });
    simulator.run_until(sim::kSecond);
    EXPECT_EQ(acked, 1);
    EXPECT_EQ(overheard, 1);
    // Normal rx handler did NOT fire for the foreign frame.
    EXPECT_TRUE(received[2].empty());
}

TEST_F(MacFixture, PromiscuousIgnoresOwnAndBroadcastFrames) {
    build({{0.0, 0.0}, {120.0, 0.0}});
    int overheard = 0;
    macs[1]->set_promiscuous_handler([&](const phy::Frame&) { ++overheard; });
    macs[0]->send(data(phy::kBroadcastId), nullptr);  // broadcast: rx path
    macs[0]->send(data(1), nullptr);                  // addressed: rx path
    simulator.run_until(sim::kSecond);
    EXPECT_EQ(overheard, 0);
    EXPECT_EQ(received[1].size(), 2u);
}

TEST_F(MacFixture, IdleReflectsQueueState) {
    build({{0.0, 0.0}, {120.0, 0.0}});
    EXPECT_TRUE(macs[0]->idle());
    macs[0]->send(data(1), nullptr);
    EXPECT_FALSE(macs[0]->idle());
    simulator.run_until(sim::kSecond);
    EXPECT_TRUE(macs[0]->idle());
}

}  // namespace
}  // namespace pqs::mac
