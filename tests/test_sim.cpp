#include "sim/event_queue.h"
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace pqs::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty()) {
        q.pop().fn();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimes) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        q.schedule(5, [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) {
        q.pop().fn();
    }
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[i], i);
    }
}

TEST(EventQueue, CancelPreventsExecution) {
    EventQueue q;
    bool ran = false;
    const EventId id = q.schedule(1, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.cancel(id));  // double cancel
    EXPECT_FALSE(ran);
}

TEST(EventQueue, NextTime) {
    EventQueue q;
    EXPECT_EQ(q.next_time(), kTimeNever);
    const EventId a = q.schedule(50, [] {});
    q.schedule(70, [] {});
    EXPECT_EQ(q.next_time(), 50);
    q.cancel(a);
    EXPECT_EQ(q.next_time(), 70);
}

TEST(EventQueue, SizeTracksLiveEvents) {
    EventQueue q;
    const EventId a = q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopOnEmptyThrows) {
    EventQueue q;
    EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(Simulator, ClockAdvancesToEvents) {
    Simulator sim;
    Time seen = -1;
    sim.schedule_at(100, [&] { seen = sim.now(); });
    sim.run_until(1000);
    EXPECT_EQ(seen, 100);
    EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulator, ScheduleInPast) {
    Simulator sim;
    sim.schedule_at(10, [] {});
    sim.run_until(50);
    EXPECT_THROW(sim.schedule_at(10, [] {}), std::invalid_argument);
    EXPECT_THROW(sim.schedule_in(-1, [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
    Simulator sim;
    int count = 0;
    sim.schedule_at(10, [&] { ++count; });
    sim.schedule_at(20, [&] { ++count; });
    sim.schedule_at(30, [&] { ++count; });
    sim.run_until(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(sim.now(), 20);
    sim.run_until(30);
    EXPECT_EQ(count, 3);
}

TEST(Simulator, EventsScheduleMoreEvents) {
    Simulator sim;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100) {
            sim.schedule_in(1, chain);
        }
    };
    sim.schedule_in(1, chain);
    sim.run_all();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(sim.now(), 100);
    EXPECT_EQ(sim.kernel_stats().events_fired, 100u);
}

TEST(Simulator, RunAllCapsRunaway) {
    Simulator sim;
    std::function<void()> forever = [&] { sim.schedule_in(1, forever); };
    sim.schedule_in(1, forever);
    EXPECT_THROW(sim.run_all(1000), std::runtime_error);
}

TEST(Simulator, StepReturnsFalseWhenIdle) {
    Simulator sim;
    EXPECT_FALSE(sim.step());
    sim.schedule_in(5, [] {});
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(sim.now(), 5);
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, CancelledEventNotRun) {
    Simulator sim;
    bool ran = false;
    const EventId id = sim.schedule_in(10, [&] { ran = true; });
    EXPECT_TRUE(sim.cancel(id));
    sim.run_until(100);
    EXPECT_FALSE(ran);
}

TEST(EventQueue, FuzzOrderingWithRandomCancels) {
    // Property: with random schedules and cancels, fired events come out in
    // nondecreasing time order, cancelled events never fire, and the count
    // matches schedules minus cancels.
    pqs::util::Rng rng(99);
    EventQueue q;
    std::vector<EventId> live_ids;
    int fired = 0;
    int scheduled = 0;
    int cancelled = 0;
    Time last = -1;
    bool order_ok = true;

    for (int round = 0; round < 5000; ++round) {
        const double dice = rng.uniform01();
        if (dice < 0.6) {
            const Time when = static_cast<Time>(rng.uniform_u64(1000000));
            live_ids.push_back(q.schedule(when, [&, when] {
                order_ok &= when >= last;
                last = when;
                ++fired;
            }));
            ++scheduled;
        } else if (dice < 0.75 && !live_ids.empty()) {
            const std::size_t pick = rng.index(live_ids.size());
            if (q.cancel(live_ids[pick])) {
                ++cancelled;
            }
            live_ids.erase(live_ids.begin() +
                           static_cast<std::ptrdiff_t>(pick));
        } else if (!q.empty()) {
            // Pop only if it will not violate ordering vs. future pushes:
            // restrict fuzz pops to a monotone drain at the end instead.
        }
    }
    while (!q.empty()) {
        q.pop().fn();
    }
    EXPECT_TRUE(order_ok);
    EXPECT_EQ(fired, scheduled - cancelled);
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(7, [&] { order.push_back(0); });
    sim.schedule_at(7, [&] { order.push_back(1); });
    sim.schedule_at(7, [&] { order.push_back(2); });
    sim.run_until(7);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace pqs::sim
