#include "svc/workload_driver.h"

#include <utility>

namespace pqs::svc {

KvWorkloadDriver::KvWorkloadDriver(KvService& kv, KvWorkloadParams params)
    : kv_(kv),
      params_(params),
      zipf_(params.key_count, params.zipf_theta),
      rng_(params.seed),
      shared_(std::make_shared<Shared>()) {
    PQS_CHECK(params_.arrival_rate > 0.0,
              "KvWorkloadDriver: arrival_rate must be > 0");
    PQS_CHECK(params_.read_fraction >= 0.0 && params_.read_fraction <= 1.0,
              "KvWorkloadDriver: read_fraction must be in [0, 1]");
}

KvWorkloadDriver::~KvWorkloadDriver() { stop(); }

void KvWorkloadDriver::start() {
    PQS_CHECK(!started_, "KvWorkloadDriver::start called twice");
    started_ = true;
    sim::Simulator& sim = kv_.biquorum().context().world.simulator();
    arrivals_end_ = sim.now() + params_.horizon;
    schedule_next_arrival();
}

void KvWorkloadDriver::stop() {
    if (arrival_timer_ != sim::kInvalidEvent) {
        kv_.biquorum().context().world.simulator().cancel(arrival_timer_);
        arrival_timer_ = sim::kInvalidEvent;
    }
}

void KvWorkloadDriver::schedule_next_arrival() {
    sim::Simulator& sim = kv_.biquorum().context().world.simulator();
    const sim::Time gap =
        sim::from_seconds(rng_.exponential(params_.arrival_rate));
    const sim::Time when = sim.now() + gap;
    if (when >= arrivals_end_) {
        arrival_timer_ = sim::kInvalidEvent;
        return;  // the open-loop window is over
    }
    arrival_timer_ = sim.schedule_at(when, [this] {
        arrival_timer_ = sim::kInvalidEvent;
        on_arrival();
    });
}

void KvWorkloadDriver::on_arrival() {
    // Draw the op before any early-out so the (key, kind, origin) stream
    // is a pure function of the seed, whatever the network does.
    const util::Key key = 1 + zipf_.sample(rng_);
    const bool is_read = rng_.bernoulli(params_.read_fraction);
    net::World& world = kv_.biquorum().context().world;
    schedule_next_arrival();

    if (world.alive_count() == 0) {
        ++shared_->report.skipped;
        return;
    }
    const util::NodeId origin =
        world.alive_set().select(rng_.index(world.alive_count()));

    const std::uint64_t op = next_op_++;
    const sim::Time issued_at = world.simulator().now();
    shared_->inflight.emplace(op, InFlight{issued_at, is_read});
    ++shared_->report.issued;

    // Completions capture the shared block, not `this`: a biquorum op can
    // resolve after the driver finalized (or was destroyed), and must
    // then leave the report alone.
    std::shared_ptr<Shared> s = shared_;
    if (is_read) {
        ++shared_->report.reads;
        kv_.read(origin, key, [s, op, issued_at,
                               &world](const KvReadResult& r) {
            const auto it = s->inflight.find(op);
            if (s->finalized || it == s->inflight.end()) {
                return;  // already censored into the report
            }
            s->inflight.erase(it);
            ++s->report.completed;
            if (r.ok) ++s->report.read_ok;
            if (r.timed_out) ++s->report.timeouts;
            if (r.inconclusive) ++s->report.inconclusive;
            s->report.read_latency.record(world.simulator().now() -
                                          issued_at);
        });
    } else {
        ++shared_->report.writes;
        const std::uint32_t data = static_cast<std::uint32_t>(op);
        kv_.write(origin, key, data, [s, op, issued_at,
                                      &world](const KvWriteResult& r) {
            const auto it = s->inflight.find(op);
            if (s->finalized || it == s->inflight.end()) {
                return;
            }
            s->inflight.erase(it);
            ++s->report.completed;
            if (r.ok) ++s->report.write_ok;
            if (r.overflow) ++s->report.overflows;
            if (r.timed_out) ++s->report.timeouts;
            if (r.inconclusive) ++s->report.inconclusive;
            s->report.write_latency.record(world.simulator().now() -
                                           issued_at);
        });
    }
}

void KvWorkloadDriver::finalize() {
    if (shared_->finalized) {
        return;
    }
    stop();
    shared_->finalized = true;
    KvWorkloadReport& report = shared_->report;
    net::World& world = kv_.biquorum().context().world;
    const sim::Time now = world.simulator().now();

    report.censored = shared_->inflight.size();
    // Censor, don't drop: each in-flight op has already waited
    // (now - issued_at) without resolving, which lower-bounds its
    // latency and is a de-facto timeout for this measurement window.
    for (const auto& [op, in] : shared_->inflight) {
        ++report.timeouts;
        (in.is_read ? report.read_latency : report.write_latency)
            .record(now - in.issued_at);
    }
    shared_->inflight.clear();

    report.cache_hits = kv_.cache_hits();
    report.cache_misses = kv_.cache_misses();
    report.cache_invalidations = kv_.cache_invalidations();
    report.load = core::summarize_load(kv_.biquorum().context());
}

KvWorkloadReport KvWorkloadDriver::run() {
    start();
    sim::Simulator& sim = kv_.biquorum().context().world.simulator();
    sim.run_until(arrivals_end_ + params_.drain);
    finalize();
    return shared_->report;
}

}  // namespace pqs::svc
