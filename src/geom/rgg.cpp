#include "geom/rgg.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "geom/spatial_grid.h"
#include "util/check.h"

namespace pqs::geom {

double RggParams::side() const {
    if (n == 0 || range <= 0.0 || avg_degree <= 0.0) {
        throw std::invalid_argument("RggParams: invalid parameters");
    }
    return std::sqrt(std::numbers::pi * range * range *
                     static_cast<double>(n) / avg_degree);
}

Graph build_unit_disk_graph(const std::vector<Vec2>& positions, double range,
                            double side, Metric metric) {
    Graph g(positions.size());
    SpatialGrid grid(side, range, metric);
    for (util::NodeId v = 0; v < positions.size(); ++v) {
        grid.insert(v, positions[v]);
    }
    // The torus keeps hypot's rounding: the analysis benches' RGG results
    // are pinned on it.
    const auto linked = [&](Vec2 a, Vec2 b) {
        if (metric == Metric::kTorus) {
            const double d = torus_distance(a, b, side);
            return d * d <= range * range;
        }
        return in_range(a, b, range);
    };
    std::vector<util::NodeId> near;
    for (util::NodeId v = 0; v < positions.size(); ++v) {
        near.clear();
        grid.query_cells(positions[v], range, near, v);
        for (const util::NodeId u : near) {
            if (u > v && linked(positions[v], positions[u])) {
                g.add_edge(v, u);
            }
        }
    }
    PQS_DCHECK(g.is_symmetric(),
               "unit-disk graph adjacency is asymmetric (spatial-grid "
               "neighbor query missed a reciprocal edge)");
    return g;
}

Rgg make_rgg(const RggParams& params, util::Rng& rng) {
    const double side = params.side();
    Rgg result;
    result.params = params;
    result.positions.reserve(params.n);
    for (std::size_t i = 0; i < params.n; ++i) {
        result.positions.push_back(
            Vec2{rng.uniform(0.0, side), rng.uniform(0.0, side)});
    }
    result.graph = build_unit_disk_graph(result.positions, params.range, side,
                                         params.metric);
    return result;
}

Rgg make_connected_rgg(const RggParams& params, util::Rng& rng,
                       int max_attempts) {
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        Rgg rgg = make_rgg(params, rng);
        if (rgg.graph.is_connected()) {
            return rgg;
        }
    }
    throw std::runtime_error(
        "make_connected_rgg: no connected placement found; density too low");
}

double gupta_kumar_min_degree(std::size_t n, double safety) {
    if (n < 2) {
        return 0.0;
    }
    return safety * std::log(static_cast<double>(n));
}

}  // namespace pqs::geom
