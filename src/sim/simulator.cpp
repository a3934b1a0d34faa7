#include "sim/simulator.h"

#include <stdexcept>

#include "util/check.h"

namespace pqs::sim {

EventId Simulator::schedule_at(Time when, EventFn fn) {
    if (when < now_) {
        throw std::invalid_argument("Simulator::schedule_at: time in the past");
    }
    return queue_.schedule(when, std::move(fn));
}

EventId Simulator::schedule_in(Time delay, EventFn fn) {
    if (delay < 0) {
        throw std::invalid_argument("Simulator::schedule_in: negative delay");
    }
    return queue_.schedule(now_ + delay, std::move(fn));
}

std::uint64_t Simulator::run_until(Time until) {
    std::uint64_t ran = 0;
    while (!queue_.empty() && queue_.next_time() <= until) {
        auto fired = queue_.pop();
        PQS_DCHECK(fired.time >= now_,
                   "event queue fired t=" << fired.time
                                          << " behind the clock t=" << now_);
        now_ = fired.time;
        fired.fn();
        ++ran;
    }
    if (now_ < until) {
        now_ = until;
    }
    return ran;
}

std::uint64_t Simulator::run_all(std::uint64_t max_events) {
    std::uint64_t ran = 0;
    while (!queue_.empty()) {
        if (ran >= max_events) {
            throw std::runtime_error(
                "Simulator::run_all: event cap exceeded (runaway protocol?)");
        }
        auto fired = queue_.pop();
        PQS_DCHECK(fired.time >= now_,
                   "event queue fired t=" << fired.time
                                          << " behind the clock t=" << now_);
        now_ = fired.time;
        fired.fn();
        ++ran;
    }
    return ran;
}

bool Simulator::step() {
    if (queue_.empty()) {
        return false;
    }
    auto fired = queue_.pop();
    PQS_DCHECK(fired.time >= now_,
               "event queue fired t=" << fired.time
                                      << " behind the clock t=" << now_);
    now_ = fired.time;
    fired.fn();
    return true;
}

}  // namespace pqs::sim
