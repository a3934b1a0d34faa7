#include "core/quorum_optimizer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pqs::core {

double advertise_fraction(double tau) {
    if (tau <= 0.0) {
        throw std::invalid_argument("tau must be positive");
    }
    return 1.0 / (1.0 + tau);
}

CandidateConfig evaluate_candidate(StrategyKind kind, std::size_t qa,
                                   std::size_t ql,
                                   const OptimizerParams& params,
                                   const WorkloadProfile& workload) {
    const double f_a = advertise_fraction(workload.tau);
    const double f_l = 1.0 - f_a;
    CandidateConfig c;
    c.kind = kind;
    c.advertise = qa;
    c.lookup = ql;
    c.eps_bound =
        params.b == 0
            ? nonintersection_upper_bound(qa, ql, params.n)
            : masking_failure_bound(qa, ql, params.n, params.b);
    c.msgs_per_op =
        f_a * workload.cost_advertise *
            access_cost_messages(kind, qa, params.n, workload.avg_degree) +
        f_l * workload.cost_lookup *
            access_cost_messages(kind, ql, params.n, workload.avg_degree);
    c.load_per_op = (f_a * static_cast<double>(qa) +
                     f_l * static_cast<double>(ql)) /
                    static_cast<double>(params.n);
    c.objective = c.msgs_per_op +
                  params.load_weight * static_cast<double>(params.n) *
                      c.load_per_op;
    return c;
}

namespace {

// Deterministic "strictly better" order for the argmin: objective, then
// the enum value, then the smaller advertise size — so ties never depend
// on container iteration order.
bool better(const CandidateConfig& a, const CandidateConfig& b) {
    if (a.objective != b.objective) {
        return a.objective < b.objective;
    }
    if (a.kind != b.kind) {
        return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    }
    return a.advertise < b.advertise;
}

}  // namespace

OptimizerResult optimize_quorums(const OptimizerParams& params,
                                 const WorkloadProfile& workload) {
    if (params.n == 0) {
        throw std::invalid_argument("optimize_quorums: n must be > 0");
    }
    if (!(params.eps > 0.0 && params.eps < 1.0)) {
        throw std::invalid_argument(
            "optimize_quorums: eps must be in (0, 1)");
    }
    if (params.kinds.empty()) {
        throw std::invalid_argument(
            "optimize_quorums: at least one strategy kind");
    }

    std::vector<CandidateConfig> candidates;
    for (const StrategyKind kind : params.kinds) {
        for (std::size_t qa = params.b + 1; qa <= params.n; ++qa) {
            const std::size_t ql =
                params.b == 0
                    ? lookup_size_for(qa, params.n, params.eps)
                    : masking_lookup_size_for(qa, params.n, params.eps,
                                              params.b);
            if (ql > params.n) {
                continue;  // this |Qa| cannot meet ε within the network
            }
            candidates.push_back(
                evaluate_candidate(kind, qa, ql, params, workload));
        }
    }
    if (candidates.empty()) {
        throw std::invalid_argument(
            "optimize_quorums: no feasible configuration meets eps");
    }

    OptimizerResult result;
    result.best = candidates.front();
    for (const CandidateConfig& c : candidates) {
        if (better(c, result.best)) {
            result.best = c;
        }
    }

    const std::size_t q_sym =
        params.b == 0
            ? symmetric_quorum_size(params.n, params.eps)
            : masking_symmetric_quorum_size(params.n, params.eps, params.b);
    // The challenged baseline: symmetric Corollary 5.3 sizing on RANDOM.
    result.symmetric = evaluate_candidate(
        StrategyKind::kRandom, std::min(q_sym, params.n),
        std::min(q_sym, params.n), params, workload);
    result.improvement =
        result.symmetric.objective > 0.0
            ? 1.0 - result.best.objective / result.symmetric.objective
            : 0.0;

    // Pareto frontier over (msgs_per_op, load_per_op): sort by messages
    // ascending (ties: load ascending), then sweep keeping strictly
    // improving load. The result is ascending in msgs and strictly
    // decreasing in load — monotone by construction.
    std::sort(candidates.begin(), candidates.end(),
              [](const CandidateConfig& a, const CandidateConfig& b) {
                  if (a.msgs_per_op != b.msgs_per_op) {
                      return a.msgs_per_op < b.msgs_per_op;
                  }
                  if (a.load_per_op != b.load_per_op) {
                      return a.load_per_op < b.load_per_op;
                  }
                  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              });
    double best_load = std::numeric_limits<double>::infinity();
    for (const CandidateConfig& c : candidates) {
        if (c.load_per_op < best_load) {
            result.frontier.push_back(c);
            best_load = c.load_per_op;
        }
    }
    return result;
}

}  // namespace pqs::core
