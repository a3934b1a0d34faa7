// Discrete-event simulator in the style of JiST/SWANS: a single virtual
// clock plus an ordered pending-event set. Components schedule closures;
// the run loop advances time to each event in order.
#pragma once

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace pqs::sim {

class Simulator {
public:
    Time now() const { return now_; }
    std::size_t pending_events() const { return queue_.size(); }

    // Kernel counters of the underlying event queue (scheduled / fired /
    // cancelled, heap ops, slab reuse); deterministic for a fixed seed.
    const util::KernelStats& kernel_stats() const { return queue_.stats(); }

    // Schedules at an absolute virtual time (must be >= now).
    EventId schedule_at(Time when, EventFn fn);
    // Schedules `delay` after now (delay >= 0).
    EventId schedule_in(Time delay, EventFn fn);
    bool cancel(EventId id) { return queue_.cancel(id); }

    // Runs events until the queue is empty or the next event is after
    // `until`; the clock ends at min(until, last event time). Returns the
    // number of events processed by this call.
    std::uint64_t run_until(Time until);

    // Runs until the queue empties, with a safety cap on event count
    // (throws std::runtime_error if exceeded — catches runaway protocols).
    std::uint64_t run_all(std::uint64_t max_events = 500'000'000);

    // Executes the single next event, if any. Returns false when idle.
    bool step();

private:
    EventQueue queue_;
    Time now_ = 0;
};

}  // namespace pqs::sim
