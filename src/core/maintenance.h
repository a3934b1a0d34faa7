// Quorum maintenance under churn and mobility (§6): when to refresh the
// quorum system so the intersection probability stays above a floor, plus
// a birthday-paradox network-size estimator (§6.3) used to adapt quorum
// sizes to n(t).
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>

#include "core/location_service.h"
#include "core/theory.h"
#include "membership/oracle_membership.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/rng.h"

namespace pqs::core {

// Largest churn fraction f tolerable before the miss bound eps0 degrades
// past eps_max (inverse of degraded_miss_bound). Returns 1.0 when the
// configuration never degrades (failures-only with a fixed lookup size).
double max_tolerable_churn(double eps0, double eps_max, ChurnKind kind,
                           LookupSizing sizing);

// Refresh interval: with churn consuming `churn_fraction_per_sec` of the
// network per second, re-advertise every item at least this often (§6.1's
// "once a day" example).
sim::Time refresh_interval(double eps0, double eps_max, ChurnKind kind,
                           LookupSizing sizing,
                           double churn_fraction_per_sec);

// Periodically re-advertises every key a node has published, with the
// interval derived from the degradation analysis.
//
// A node's refresh chain survives transient death: a tick that finds the
// node dead skips the refresh work but reschedules itself, so a node that
// recovers (live churn) resumes refreshing with no outside help. Every
// pending tick is tracked by event id and cancelled in stop() / the
// destructor — a refresher destroyed before its simulator leaves no
// dangling [this] callbacks behind.
class QuorumRefresher {
public:
    struct Params {
        double eps_max = 0.2;  // minimum acceptable miss bound
        ChurnKind churn_kind = ChurnKind::kFailuresAndJoins;
        LookupSizing sizing = LookupSizing::kFixed;
        double churn_fraction_per_sec = 0.0;  // 0 => never refresh
        std::optional<sim::Time> explicit_interval;  // overrides the above
    };

    QuorumRefresher(LocationService& service, Params params);
    ~QuorumRefresher();
    QuorumRefresher(const QuorumRefresher&) = delete;
    QuorumRefresher& operator=(const QuorumRefresher&) = delete;

    // Begins refreshing for `node`. Safe to call for many nodes; calling
    // again for a node restarts its chain instead of doubling it.
    void start_node(util::NodeId node);

    // Cancels every node's pending tick. start_node() may be called again.
    void stop();

    sim::Time interval() const { return interval_; }
    std::size_t refreshes_performed() const { return refreshes_; }
    // Ticks that found the owner asleep (duty-cycled radio off) and
    // deferred instead of refreshing — see tick() for why asleep and dead
    // take different paths.
    std::size_t refreshes_deferred() const { return deferred_; }

    // Invoked after a node's keys were re-advertised. A re-advertise picks
    // fresh advertise quorums, so any cached lookup quorum for that node's
    // keys is stale from this moment — the svc/ key-value layer hooks this
    // to invalidate its per-key quorum cache.
    void set_on_refresh(std::function<void(util::NodeId)> hook) {
        on_refresh_ = std::move(hook);
    }

private:
    void tick(util::NodeId node);

    LocationService& service_;
    Params params_;
    sim::Time interval_;
    std::size_t refreshes_ = 0;
    std::size_t deferred_ = 0;
    std::function<void(util::NodeId)> on_refresh_;
    // Pending tick per node (cancellable).
    std::unordered_map<util::NodeId, sim::EventId> timers_;
};

// Estimates the network size by counting collisions among uniform samples
// drawn from a membership service (§6.3).
class NetworkSizeEstimator {
public:
    NetworkSizeEstimator(membership::OracleMembership& membership,
                         util::Rng rng)
        : membership_(membership), rng_(rng) {}

    // Draws `samples` one-node samples at `node` and returns the
    // birthday-paradox estimate; nullopt when no collisions were observed
    // (sample more). Draws must be near-independent: within one membership
    // refresh period the view is fixed, so either let simulated time pass
    // between calls or prefer estimate_across().
    std::optional<double> estimate(util::NodeId node, std::size_t samples);

    // Draws one sample from each probe node's view (each view is drawn
    // independently, so cross-node draws are independent even at one
    // instant — the way §6.3 counts collisions *between* random walks).
    std::optional<double> estimate_across(
        const std::vector<util::NodeId>& probes, std::size_t rounds = 1);

private:
    membership::OracleMembership& membership_;
    util::Rng rng_;
};

}  // namespace pqs::core
