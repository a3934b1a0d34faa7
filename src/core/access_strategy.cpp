#include "core/access_strategy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/flooding_strategy.h"
#include "core/path_strategy.h"
#include "core/random_strategy.h"

namespace pqs::core {

LoadSummary summarize_load(const ServiceContext& ctx) {
    LoadSummary summary;
    double sum = 0.0;
    double sum_sq = 0.0;
    std::size_t count = 0;
    ctx.world.alive_set().for_each([&](util::NodeId id) {
        const double x = static_cast<double>(ctx.load.touches(id));
        sum += x;
        sum_sq += x * x;
        summary.max = std::max(summary.max, x);
        ++count;
    });
    if (count == 0) {
        return summary;
    }
    summary.mean = sum / static_cast<double>(count);
    const double var =
        sum_sq / static_cast<double>(count) - summary.mean * summary.mean;
    summary.cv = summary.mean > 0.0
                     ? std::sqrt(std::max(0.0, var)) / summary.mean
                     : 0.0;
    // Denominator: resolved accesses (see LoadAccountant) — ops still in
    // flight at summary time already touched nodes and must not dilute
    // L(S). Identical to the historical accesses() count whenever every
    // access resolved before the summary was taken.
    if (ctx.load.access_denominator() > 0) {
        summary.mrw_load =
            summary.max / static_cast<double>(ctx.load.access_denominator());
    }
    return summary;
}

std::unique_ptr<AccessStrategy> make_strategy(ServiceContext& ctx,
                                              StrategyConfig config,
                                              std::uint32_t tag) {
    switch (config.kind) {
        case StrategyKind::kRandom:
        case StrategyKind::kRandomOpt:
            return std::make_unique<RandomStrategy>(ctx, config, tag);
        case StrategyKind::kRandomSampling:
            throw std::invalid_argument(
                "make_strategy: RANDOM(sampling) has only a closed form "
                "(core/theory.h); simulate membership-based RANDOM");
        case StrategyKind::kPath:
            return std::make_unique<PathStrategy>(ctx, config, tag,
                                                  /*unique=*/false);
        case StrategyKind::kUniquePath:
            return std::make_unique<PathStrategy>(ctx, config, tag,
                                                  /*unique=*/true);
        case StrategyKind::kFlooding:
            return std::make_unique<FloodingStrategy>(ctx, config, tag);
    }
    throw std::invalid_argument("make_strategy: unknown strategy kind");
}

}  // namespace pqs::core
