// Closed-form results from the paper, used both by the runtime (quorum
// sizing, refresh scheduling) and by the benches that regenerate the
// analytic figures/tables (Figs. 3, 6, 7; Lemmas 5.1-5.6; Theorems 4.1,
// 5.5; §6.1 degradation; §6.3 size estimation).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/ids.h"

namespace pqs::core {

// ---------- Intersection probability (Lemmas 5.1 / 5.2) ----------

// Upper bound on Pr(Qa ∩ Ql = ∅) = exp(-|Qa||Ql|/n), valid whenever at
// least one quorum is chosen uniformly at random (Mix-and-Match Lemma 5.2).
double nonintersection_upper_bound(std::size_t qa, std::size_t ql,
                                   std::size_t n);

// Exact miss probability Π_{i=0}^{|Qa|-1} (n-|Ql|-i)/(n-i) from the proof
// of Lemma 5.2 (0 when |Qa|+|Ql| > n).
double nonintersection_exact(std::size_t qa, std::size_t ql, std::size_t n);

double intersection_probability(std::size_t qa, std::size_t ql,
                                std::size_t n);

// ---------- Quorum sizing (Corollary 5.3) ----------

// Minimal |Qa|·|Ql| product guaranteeing intersection prob >= 1-eps.
double min_quorum_product(std::size_t n, double eps);

// Symmetric size: ceil(sqrt(n ln(1/eps))).
std::size_t symmetric_quorum_size(std::size_t n, double eps);

// Given |Qa|, the minimal |Ql| meeting Corollary 5.3.
std::size_t lookup_size_for(std::size_t qa, std::size_t n, double eps);

// ---------- b-masking sizing (after Malkhi-Reiter-Wool) ----------
//
// Threat model: up to b Byzantine members that may drop or forge replies.
// A lookup masks them when the correct part of the intersection outvotes
// the faulty replies, i.e. X = |Qℓ ∩ (Qa \ B)| > b. The worst-case
// placement puts all b faulty nodes inside Qa, so X counts the hits of a
// uniform Qℓ on the qa-b correct members: E[X] = μ = (qa-b)·qℓ/n. The
// Poisson-dominated Chernoff lower tail gives
//
//   Pr[X <= b] <= exp(-μ)·(eμ/b)^b    for 1 <= b < μ,
//
// and exp(-μ) at b = 0 — exactly Lemma 5.1/Corollary 5.3, so every
// masking_* function below reduces to its ε-intersection counterpart at
// b = 0. (Sampling without replacement satisfies the binomial Chernoff
// bound by Hoeffding '63, and the binomial MGF is dominated by the
// Poisson MGF of the same mean, so the bound is rigorous, not heuristic.)

// Closed-form upper bound on Pr[masking failure] (clamped to <= 1;
// returns 1 whenever μ <= b, where the tail bound is vacuous).
double masking_failure_bound(std::size_t qa, std::size_t ql, std::size_t n,
                             std::size_t b);

// Smallest μ with masking_failure_bound <= eps (bisection on the closed
// form; exactly ln(1/eps) at b = 0).
double masking_mu_min(double eps, std::size_t b);

// Minimal (|Qa|-b)·|Qℓ| product guaranteeing masking prob >= 1-eps:
// n · masking_mu_min(eps, b).
double min_masking_quorum_product(std::size_t n, double eps, std::size_t b);

// Symmetric masking size: smallest q with (q-b)·q >= n·μ_min, i.e.
// ceil((b + sqrt(b² + 4·n·μ_min))/2). Delegates to symmetric_quorum_size
// at b = 0 so the reduction is bit-exact, not merely analytic.
std::size_t masking_symmetric_quorum_size(std::size_t n, double eps,
                                          std::size_t b);

// Given |Qa| > b, the minimal |Qℓ| with (|Qa|-b)·|Qℓ| >= n·μ_min.
// Delegates to lookup_size_for at b = 0.
std::size_t masking_lookup_size_for(std::size_t qa, std::size_t n, double eps,
                                    std::size_t b);

// MRW load of the symmetric probabilistic system: an access touches q of
// n nodes uniformly, so every node is accessed w.p. q/n and
// L(S) = max-node access probability = q/n.
double access_load(std::size_t q, std::size_t n);

// ---------- Optimal asymmetric sizing (Lemma 5.6) ----------

struct SizePair {
    std::size_t advertise = 0;
    std::size_t lookup = 0;
};

// Optimal |Ql|/|Qa| ratio: (1/tau) * (cost_a / cost_l), where tau is the
// lookup:advertise frequency ratio and cost_x the per-node access cost.
double optimal_size_ratio(double tau, double cost_a, double cost_l);

// Sizes meeting Corollary 5.3 at the Lemma 5.6 optimum.
SizePair optimal_sizes(std::size_t n, double eps, double tau, double cost_a,
                       double cost_l);

// Total access cost (Lemma 5.6 proof): advertisements + lookups.
double total_access_cost(double n_advertise, double n_lookup,
                         std::size_t qa, std::size_t ql, double cost_a,
                         double cost_l);

// ---------- Degradation under churn (§6.1, Fig. 7) ----------

enum class ChurnKind { kFailuresOnly, kJoinsOnly, kFailuresAndJoins };
enum class LookupSizing { kFixed, kAdjustedToNetworkSize };

// Upper bound on the miss probability after a fraction f of the network
// churned, starting from an initial bound eps0.
double degraded_miss_bound(double eps0, double f, ChurnKind kind,
                           LookupSizing sizing);

// ---------- Timed quorums & duty-cycled radios ----------
// (Gramoli–Raynal timed quorum systems; GeoQuorum's energy-constrained
// deployments. ε as a function of lease Δ, refresh rate and duty cycle.)

// Upper bound on the miss probability when every node independently
// spends fraction `duty` of each cycle awake (random phases): a holder
// that is asleep at lookup time neither receives nor answers the probe.
// With A ~ Bin(|Qa|, duty) awake holders and Pr[miss | A] <=
// exp(-A|Ql|/n) (Lemma 5.2 applied to the awake sub-quorum), taking the
// binomial expectation gives
//
//     E[exp(-A|Ql|/n)] = (1 - duty·(1 - e^{-|Ql|/n}))^{|Qa|}.
//
// Note the naive exp(-|Qa||Ql|·duty/n) — the eps0^duty curve — is NOT a
// valid upper bound: by convexity e^{-d·t} <= 1 - d + d·e^{-t}, so the
// mixture form above dominates it. At duty == 1 this delegates to
// nonintersection_upper_bound for a bit-exact reduction.
double duty_cycled_miss_bound(std::size_t qa, std::size_t ql, std::size_t n,
                              double duty);

// Steady-state fraction of time a leased value is live: values expire Δ
// (lease_s) after each advertise, and the owner re-advertises every R
// (refresh_interval_s) seconds, so each refresh window of length R is
// covered for min(Δ, R) of it: c = min(1, Δ/R). lease_s <= 0 means no
// expiry (c = 1); a finite lease with refresh_interval_s <= 0 is never
// refreshed (c -> 0 asymptotically).
double lease_coverage(double lease_s, double refresh_interval_s);

// ε(Δ, R, duty): the refresher re-advertises the *whole* quorum at once,
// so lease validity is fully correlated across holders — with
// probability 1-c the value has expired everywhere (certain miss), else
// the duty-cycle bound applies:
//
//     ε = (1 - c) + c · duty_cycled_miss_bound(qa, ql, n, duty).
double timed_quorum_miss_bound(std::size_t qa, std::size_t ql, std::size_t n,
                               double duty, double lease_s,
                               double refresh_interval_s);

// ---------- Failure resilience (§3, after Malkhi et al.) ----------

// Fault tolerance of a probabilistic quorum system with quorums of size q:
// the smallest node set intersecting all quorums has n - q + 1 nodes.
std::size_t fault_tolerance(std::size_t n, std::size_t q);

// Malkhi et al.'s failure-probability bound: with quorums of size k*sqrt(n)
// and independent crash probability p <= 1 - k/sqrt(n), the probability
// that *no* live quorum remains is at most exp(-n*(1-p-k/sqrt(n))^2 / 2)
// (Chernoff bound on the number of survivors). Returns 1 when p exceeds
// the tolerable range.
double failure_probability_bound(std::size_t n, double k, double p);

// Deterministic majority baseline: a strict majority quorum has size
// floor(n/2)+1 and tolerates ceil(n/2)-1 failures before losing liveness
// (vs Omega(n) fault tolerance at sqrt(n) size for probabilistic quorums).
std::size_t majority_quorum_size(std::size_t n);

// ---------- RGG / random-walk results ----------

// Gupta-Kumar connectivity radius for n uniform nodes on a unit square:
// r = sqrt(C ln n / (pi n)); the network is w.h.p. connected for C > 1.
double rgg_connectivity_radius(std::size_t n, double safety = 1.0);

// Expected hop diameter of the density-scaled RGG of §2.4:
// side/range = sqrt(pi n / d_avg), so diameter ~ sqrt(pi n / d_avg) hops.
double rgg_diameter_hops(std::size_t n, double avg_degree);

// Expected hop length of a route between two uniform nodes (~ half the
// corner-to-corner diameter; used for the Fig. 3/6 cost entries).
double expected_route_hops(std::size_t n, double avg_degree);

// Theorem 4.1: PCT(t) <= 2*alpha*t for t = o(n). alpha is the empirical
// revisit constant (~0.85 at d_avg = 10, i.e. 2*alpha ~ 1.7 -- §4.2).
double pct_upper_bound(std::size_t t, double alpha);

// Theorem 5.5: crossing time of two walks is Omega(r^-2); with the column
// projection argument the walk must cover (side/2r)^2 line steps.
double crossing_time_lower_bound(double side, double range);

// Mixing-time estimate of the MD walk on RGGs (~ n/2, Bar-Yossef et al.).
double md_mixing_time(std::size_t n);

// ---------- Asymptotic access-cost table (Figs. 3 and 6) ----------

enum class StrategyKind {
    kRandom,          // membership-based RANDOM
    kRandomSampling,  // sampling-based RANDOM (MD walks); closed form only
    kRandomOpt,
    kPath,
    kUniquePath,
    kFlooding,
};

std::string strategy_name(StrategyKind kind);

// Expected number of network-layer messages to access a quorum of size q
// with the given strategy on the density-scaled RGG (Fig. 3 rows; leading
// constants from the paper's empirical study).
double access_cost_messages(StrategyKind kind, std::size_t q, std::size_t n,
                            double avg_degree);

// ---------- Network size estimation (§6.3) ----------

// Birthday-paradox estimator: k uniform samples with c observed pairwise
// collisions give n ≈ k(k-1)/(2c).
double estimate_network_size(std::size_t samples, std::size_t collisions);
// Count pairwise collisions in a sample multiset and estimate n.
double estimate_network_size(const std::vector<util::NodeId>& samples);

}  // namespace pqs::core
