#include "core/maintenance.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace pqs::core {

double max_tolerable_churn(double eps0, double eps_max, ChurnKind kind,
                           LookupSizing sizing) {
    if (!(eps0 > 0.0 && eps0 < 1.0) || !(eps_max > 0.0 && eps_max < 1.0)) {
        throw std::invalid_argument("epsilons must be in (0, 1)");
    }
    if (eps_max <= eps0) {
        return 0.0;  // already at/beyond the floor
    }
    // degraded bound = eps0^g(f) with g from §6.1; solve g(f) = r where
    // r = ln(eps_max)/ln(eps0) in (0, 1).
    const double r = std::log(eps_max) / std::log(eps0);
    double f = 1.0;
    switch (kind) {
        case ChurnKind::kFailuresOnly:
            // Fixed lookup size never degrades; adjusted: g = sqrt(1-f).
            f = sizing == LookupSizing::kFixed ? 1.0 : 1.0 - r * r;
            break;
        case ChurnKind::kJoinsOnly:
            // Fixed: g = 1/(1+f); adjusted: g = 1/sqrt(1+f).
            f = sizing == LookupSizing::kFixed ? 1.0 / r - 1.0
                                               : 1.0 / (r * r) - 1.0;
            break;
        case ChurnKind::kFailuresAndJoins:
            // g = 1 - f (same for both sizings since n is unchanged).
            f = 1.0 - r;
            break;
    }
    return std::clamp(f, 0.0, 1.0);
}

sim::Time refresh_interval(double eps0, double eps_max, ChurnKind kind,
                           LookupSizing sizing,
                           double churn_fraction_per_sec) {
    if (churn_fraction_per_sec <= 0.0) {
        return sim::kTimeNever;
    }
    const double f = max_tolerable_churn(eps0, eps_max, kind, sizing);
    if (f >= 1.0) {
        return sim::kTimeNever;
    }
    return sim::from_seconds(f / churn_fraction_per_sec);
}

QuorumRefresher::QuorumRefresher(LocationService& service, Params params)
    : service_(service), params_(params) {
    if (params_.explicit_interval) {
        interval_ = *params_.explicit_interval;
    } else {
        const double eps0 = service.biquorum().spec().eps;
        interval_ =
            refresh_interval(eps0, params_.eps_max, params_.churn_kind,
                             params_.sizing, params_.churn_fraction_per_sec);
    }
}

QuorumRefresher::~QuorumRefresher() { stop(); }

void QuorumRefresher::stop() {
    sim::Simulator& simulator = service_.world().simulator();
    for (const auto& [node, id] : timers_) {
        simulator.cancel(id);
    }
    timers_.clear();
}

void QuorumRefresher::start_node(util::NodeId node) {
    if (interval_ == sim::kTimeNever) {
        return;
    }
    sim::Simulator& simulator = service_.world().simulator();
    if (const auto it = timers_.find(node); it != timers_.end()) {
        simulator.cancel(it->second);
    }
    timers_[node] =
        simulator.schedule_in(interval_, [this, node] { tick(node); });
}

void QuorumRefresher::tick(util::NodeId node) {
    sim::Simulator& simulator = service_.world().simulator();
    // A duty-cycled owner caught asleep must DEFER, not refresh: its radio
    // is off, so every advertise the refresh issues would silently fail
    // while still counting as performed and firing on_refresh_ (evicting
    // svc-layer caches for a refresh that never left the node). Retry on
    // a short fuse so the refresh lands soon after the node wakes instead
    // of slipping a whole interval. Checking awake() — not alive() — is
    // the point: asleep is not crashed.
    if (service_.world().alive(node) && !service_.world().awake(node)) {
        ++deferred_;
        ++service_.world().counters().refreshes_deferred;
        const sim::Time retry =
            std::max<sim::Time>(interval_ / 10, sim::kMillisecond);
        timers_[node] =
            simulator.schedule_in(retry, [this, node] { tick(node); });
        return;
    }
    // Transient death skips the refresh work but keeps the chain alive so
    // a recovered node resumes refreshing; the idle tick costs one
    // liveness check per interval.
    if (service_.world().alive(node) && !service_.published(node).empty()) {
        service_.refresh(node);
        ++refreshes_;
        if (on_refresh_) {
            on_refresh_(node);
        }
    }
    timers_[node] =
        simulator.schedule_in(interval_, [this, node] { tick(node); });
}

namespace {

std::optional<double> estimate_from_draws(
    const std::vector<util::NodeId>& drawn) {
    if (drawn.size() < 2) {
        return std::nullopt;
    }
    std::unordered_map<util::NodeId, std::size_t> counts;
    std::size_t collisions = 0;
    for (const util::NodeId id : drawn) {
        collisions += counts[id]++;
    }
    if (collisions == 0) {
        return std::nullopt;
    }
    return estimate_network_size(drawn.size(), collisions);
}

}  // namespace

std::optional<double> NetworkSizeEstimator::estimate(util::NodeId node,
                                                     std::size_t samples) {
    std::vector<util::NodeId> drawn;
    drawn.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
        const auto one = membership_.sample(node, 1);
        if (!one.empty()) {
            drawn.push_back(one.front());
        }
    }
    return estimate_from_draws(drawn);
}

std::optional<double> NetworkSizeEstimator::estimate_across(
    const std::vector<util::NodeId>& probes, std::size_t rounds) {
    std::vector<util::NodeId> drawn;
    drawn.reserve(probes.size() * rounds);
    for (std::size_t r = 0; r < rounds; ++r) {
        for (const util::NodeId probe : probes) {
            const auto one = membership_.sample(probe, 1);
            if (!one.empty()) {
                drawn.push_back(one.front());
            }
        }
    }
    return estimate_from_draws(drawn);
}

}  // namespace pqs::core
