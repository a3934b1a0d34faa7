// Open-loop Zipfian workload driver over KvService: a Poisson arrival
// process issues reads and writes against a skewed key population,
// independent of service completions — the open loop is what makes tail
// percentiles honest (a closed loop slows its own arrival rate exactly
// when the service degrades, hiding the queueing tail).
//
// Accounting rules the driver enforces:
//  - operations still in flight when the measurement window closes are
//    *censored*, not dropped: each contributes (end - issue) as a
//    latency floor and counts toward the timeout rate. Dropping them
//    would under-report p99 and timeout rate precisely when the service
//    is slowest;
//  - only operations that hit op_timeout count as timeouts: a write
//    whose advertise failed early (broken routes) is a failed write;
//  - MRW load comes off LoadAccountant's resolved denominator, so the
//    censored in-flight accesses do not deflate the per-access load of
//    the operations that actually finished.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "obs/latency_histogram.h"
#include "svc/kv_service.h"
#include "svc/zipf.h"

namespace pqs::svc {

struct KvWorkloadParams {
    // Keys are 1..key_count, Zipf-ranked in that order.
    std::size_t key_count = 1000;
    double zipf_theta = 0.99;
    double read_fraction = 0.9;
    // Open-loop Poisson arrival rate, operations per second of virtual
    // time. Arrivals are independent of completions.
    double arrival_rate = 20.0;
    // Arrivals stop at start + horizon; the driver then waits `drain`
    // longer for stragglers before censoring whatever is still in flight.
    sim::Time horizon = 60 * sim::kSecond;
    sim::Time drain = 0;
    // Workload stream seed (key choice, op mix, origin choice) —
    // independent of the world's RNG, so the same op stream can be
    // replayed against different networks.
    std::uint64_t seed = 1;
};

struct KvWorkloadReport {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;  // callbacks that ran before the cutoff
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t read_ok = 0;
    std::uint64_t write_ok = 0;
    std::uint64_t timeouts = 0;  // op-level timeouts + censored in-flight
    std::uint64_t inconclusive = 0;
    std::uint64_t overflows = 0;
    std::uint64_t censored = 0;  // in flight at cutoff
    std::uint64_t skipped = 0;   // arrivals with no alive origin
    // Cache counters snapshot from the KvService at finalize.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_invalidations = 0;
    obs::LatencyHistogram read_latency;
    obs::LatencyHistogram write_latency;
    core::LoadSummary load;

    double timeout_rate() const {
        return issued > 0
                   ? static_cast<double>(timeouts) / static_cast<double>(issued)
                   : 0.0;
    }
    double inconclusive_rate() const {
        return issued > 0 ? static_cast<double>(inconclusive) /
                                static_cast<double>(issued)
                          : 0.0;
    }
    // Fraction of cache-directed reads served by the cached quorum.
    double cache_hit_rate() const {
        const std::uint64_t directed = cache_hits + cache_misses;
        return directed > 0 ? static_cast<double>(cache_hits) /
                                  static_cast<double>(directed)
                            : 0.0;
    }
};

class KvWorkloadDriver {
public:
    KvWorkloadDriver(KvService& kv, KvWorkloadParams params);
    ~KvWorkloadDriver();  // cancels the pending arrival timer

    // Schedules the arrival process from the current virtual time.
    void start();
    // Cancels the pending arrival (idempotent).
    void stop();
    // Censors in-flight ops into the timeouts and latency histograms and
    // snapshots load + cache counters. Completions that land after this
    // are ignored. Idempotent.
    void finalize();

    // Convenience: start, drive the simulator to start + horizon + drain,
    // finalize, return the report.
    KvWorkloadReport run();

    const KvWorkloadReport& report() const { return shared_->report; }
    sim::Time end_of_arrivals() const { return arrivals_end_; }

private:
    struct InFlight {
        sim::Time issued_at = 0;
        bool is_read = false;
    };
    // Completion callbacks are held inside biquorum op state and can
    // outlive the driver; they capture this shared block, never `this`.
    struct Shared {
        KvWorkloadReport report;
        std::unordered_map<std::uint64_t, InFlight> inflight;
        bool finalized = false;
    };

    void schedule_next_arrival();
    void on_arrival();

    KvService& kv_;
    KvWorkloadParams params_;
    ZipfSampler zipf_;
    util::Rng rng_;
    std::shared_ptr<Shared> shared_;
    sim::EventId arrival_timer_ = sim::kInvalidEvent;
    sim::Time arrivals_end_ = 0;
    std::uint64_t next_op_ = 0;
    bool started_ = false;
};

}  // namespace pqs::svc
