// Workload-aware quorum sizing: search strategy × (|Qa|, |Qℓ|) along the
// Lemma 5.6 τ ratio for the latency/load/ε frontier.
//
// Lemma 5.6 minimizes total *message* cost for a measured lookup:advertise
// frequency ratio τ, giving |Qℓ|/|Qa| = cost_a/(τ·cost_l). The MRW load
// L(S) of the same system instead wants the *touch* rate balanced,
// |Qℓ|/|Qa| = 1/τ — two different optima whenever per-message costs and
// per-touch costs diverge, so the interesting object is the Pareto
// frontier over (messages/op, load/op) at equal ε, and the composite
// objective picks one point on it. Every candidate meets the Corollary
// 5.3 product bound (or its b-masking generalization) at the same ε, so
// the comparison against symmetric sizing is apples to apples.
#pragma once

#include <cstddef>
#include <vector>

#include "core/theory.h"

namespace pqs::core {

// Measured (or assumed) traffic the optimizer sizes against.
struct WorkloadProfile {
    // Lookup:advertise frequency ratio (Lemma 5.6's τ). A read-mostly
    // service has τ >> 1; write-heavy ingest has τ << 1.
    double tau = 1.0;
    // Relative per-message costs of the two access kinds (Lemma 5.6's
    // c_a, c_l; e.g. advertise payloads are larger than lookup queries).
    double cost_advertise = 1.0;
    double cost_lookup = 1.0;
    double avg_degree = 10.0;  // density of the deployment RGG (§2.4)
};

struct OptimizerParams {
    std::size_t n = 0;
    double eps = 0.1;
    std::size_t b = 0;  // b-masking budget; 0 = plain ε-intersection
    // Composite objective J = msgs_per_op + load_weight · n · load_per_op:
    // load_weight converts the busiest node's access probability into
    // message-equivalent units (n·load ≈ touches/op on the busiest node
    // were load perfectly balanced).
    double load_weight = 1.0;
    // Strategy kinds to search over.
    std::vector<StrategyKind> kinds = {StrategyKind::kRandom,
                                       StrategyKind::kUniquePath,
                                       StrategyKind::kPath};
};

// One sized configuration with its analytic figures of merit.
struct CandidateConfig {
    StrategyKind kind = StrategyKind::kRandom;
    std::size_t advertise = 0;  // |Qa|
    std::size_t lookup = 0;     // |Qℓ|
    // Closed-form failure bound at these sizes (non-intersection at b = 0,
    // masking failure at b > 0); <= eps for every emitted candidate.
    double eps_bound = 1.0;
    // Expected network-layer messages per operation, frequency-weighted
    // over the τ mix (access_cost_messages; Fig. 3 leading constants).
    double msgs_per_op = 0.0;
    // Expected per-node access probability per operation (MRW load of the
    // mix): (f_a·|Qa| + f_l·|Qℓ|)/n.
    double load_per_op = 0.0;
    double objective = 0.0;  // composite J
};

struct OptimizerResult {
    CandidateConfig best;       // argmin J over the whole search space
    CandidateConfig symmetric;  // Corollary 5.3 symmetric baseline
    // Pareto frontier over (msgs_per_op, load_per_op), ascending in
    // msgs_per_op (hence non-increasing in load_per_op).
    std::vector<CandidateConfig> frontier;
    // 1 - best.objective / symmetric.objective (>= 0 by construction:
    // the baseline's own configuration is inside the search space).
    double improvement = 0.0;
};

// Fraction of operations that are advertises: 1/(1+τ).
double advertise_fraction(double tau);

// Analytic figures of one (kind, |Qa|, |Qℓ|) configuration. Does not
// check the ε bound — callers searching the space filter on eps_bound.
CandidateConfig evaluate_candidate(StrategyKind kind, std::size_t qa,
                                   std::size_t ql,
                                   const OptimizerParams& params,
                                   const WorkloadProfile& workload);

// Searches every kind × |Qa| (with |Qℓ| minimally sized to meet the ε
// product bound) and returns the composite optimum, the symmetric
// baseline, and the Pareto frontier. Throws std::invalid_argument on a
// degenerate setup (n == 0, eps outside (0,1), tau <= 0, empty kinds).
OptimizerResult optimize_quorums(const OptimizerParams& params,
                                 const WorkloadProfile& workload);

}  // namespace pqs::core
