// Graph-level random walks (§4.2, §4.3, Appendix A/B):
//  - simple random walk (PATH strategy),
//  - self-avoiding random walk (UNIQUE-PATH strategy),
//  - maximum-degree random walk (uniform sampling; the model behind
//    sampling-based RANDOM's closed form, core/theory.h).
// Plus measurement helpers for partial cover time (Theorem 4.1 / Fig. 4)
// and crossing time (Theorem 5.5).
//
// These operate directly on a Graph snapshot; the event-driven protocol
// implementations in src/core re-implement the same stepping rules on the
// live network stack, and the tests assert the two agree on static graphs.
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_set>
#include <vector>

#include "geom/graph.h"
#include "util/ids.h"
#include "util/rng.h"

namespace pqs::geom {

enum class WalkKind {
    kSimple,       // uniform over neighbors (PATH)
    kSelfAvoiding, // uniform over *unvisited* neighbors; falls back to simple
                   // when all neighbors were visited (UNIQUE-PATH)
    kMaxDegree,    // Pr(v->u)=1/d_max, self-loop otherwise; stationary
                   // distribution is uniform (used for unbiased sampling)
};

// One step of a walk of the given kind. `visited` is consulted only by the
// self-avoiding kind; `max_degree` only by the max-degree kind. Returns the
// next node (possibly == current for kMaxDegree self-loops). A node with no
// neighbors returns current.
util::NodeId walk_step(const Graph& g, util::NodeId current, WalkKind kind,
                       util::Rng& rng,
                       const std::unordered_set<util::NodeId>* visited = nullptr,
                       std::size_t max_degree = 0);

struct WalkResult {
    std::vector<util::NodeId> trajectory;  // node sequence incl. start
    std::vector<util::NodeId> unique_order; // distinct nodes in first-visit order
    std::size_t steps = 0;                  // trajectory.size() - 1
};

// Walks until `target_unique` distinct nodes are visited (counting the start)
// or `max_steps` steps elapse, whichever first.
WalkResult walk_until_unique(const Graph& g, util::NodeId start,
                             WalkKind kind, std::size_t target_unique,
                             std::size_t max_steps, util::Rng& rng);

// Walks exactly `steps` steps.
WalkResult walk_fixed_length(const Graph& g, util::NodeId start,
                             WalkKind kind, std::size_t steps,
                             util::Rng& rng);

// Empirical partial cover time: number of steps for a walk from `start` to
// visit `targets[i]` distinct nodes; result[i] = steps for targets[i].
// Targets must be increasing. nullopt where max_steps was exhausted.
std::vector<std::optional<std::size_t>> partial_cover_steps(
    const Graph& g, util::NodeId start, WalkKind kind,
    const std::vector<std::size_t>& targets, std::size_t max_steps,
    util::Rng& rng);

// Empirical crossing time (Definition 5.4): both walks advance in lockstep;
// returns the first time t at which their visited sets intersect
// (0 if they start on the same node), or nullopt after max_steps.
std::optional<std::size_t> crossing_time(const Graph& g, util::NodeId u,
                                         util::NodeId v, WalkKind kind,
                                         std::size_t max_steps,
                                         util::Rng& rng);

// Uniform sample of one node id via a max-degree walk of `length` steps.
// With length >= mixing time (≈ n/2 on RGGs per Bar-Yossef et al.), the
// result is close to uniform over the component containing `start`.
util::NodeId md_walk_sample(const Graph& g, util::NodeId start,
                            std::size_t length, util::Rng& rng);

}  // namespace pqs::geom
