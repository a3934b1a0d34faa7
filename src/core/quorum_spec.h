// Configuration of a probabilistic biquorum system: which access strategy
// serves each side, target quorum sizes, and the per-strategy knobs
// (early halting, salvation, reply-path repair, flooding TTL, ...).
#pragma once

#include <cstddef>

#include "core/theory.h"

namespace pqs::core {

struct StrategyConfig {
    StrategyKind kind = StrategyKind::kUniquePath;

    // Target quorum size |Q|. For RANDOM-OPT this is the number of routed
    // requests X (the effective quorum is larger, ~X*sqrt(n/ln n), §4.5).
    // 0 derives the size from the biquorum epsilon (see BiquorumSpec).
    std::size_t quorum_size = 0;

    // FLOODING: scope TTL; coverage is whatever the topology yields (§4.4).
    int flood_ttl = 3;
    // FLOODING lookups: instead of one fixed-TTL flood, issue expanding-ring
    // floods with TTL 1,2,... until a hit or flood_ttl is reached.
    bool expanding_ring = false;

    // Lookup walks/scans stop at the first hit (§7.1 relaxed semantics).
    bool early_halt = true;
    // RANDOM lookups: contact targets one at a time, stopping on the first
    // hit, instead of in parallel (§8.2).
    bool serial = false;

    // PATH/UNIQUE-PATH: per-hop resend attempts on MAC failure (§6.2).
    int salvage_retries = 3;
    // Reply handling for reverse-path replies (§6.2, §7.2).
    bool reply_path_reduction = true;
    bool reply_local_repair = true;
    int reply_repair_ttl = 3;
    // When scoped repair exhausts the path, fall back to full routing to
    // the origin instead of dropping the reply.
    bool reply_global_repair_fallback = true;

    // §7.1 caching: relay nodes of reply messages keep a bystander copy of
    // the mapping (lookup side), and nodes that forward routed advertise
    // requests cache them en route (advertise side).
    bool cache_replies = false;
    bool enroute_cache = false;

    // §7.2 promiscuous overhearing (the paper's future-work optimization):
    // a node that overhears a lookup walk passing by a neighbor and holds
    // the item answers immediately and stops the walk. Requires the world
    // to run with promiscuous link delivery.
    bool overhearing = false;

    // RANDOM lookups: collect every quorum reply instead of resolving on
    // the first one; needed by read/write registers that must see the
    // highest version stored in the quorum (§2.5 strict semantics, §10).
    bool collect_all_replies = false;

    // Advertise side: treat stored values as versioned — a node keeps the
    // numerically larger value for a key instead of blindly overwriting
    // ("a new value cannot be overwritten by an older one", §6.1). Used by
    // the register service, which packs the version into the high bits.
    bool monotonic_store = false;
};

struct BiquorumSpec {
    StrategyConfig advertise;
    StrategyConfig lookup;
    // Desired non-intersection bound; used to derive any quorum size left
    // at 0 via Corollary 5.3 (b = 0) or the b-masking generalization.
    double eps = 0.1;

    // Byzantine fault budget b (Malkhi-Reiter-Wool masking). 0 keeps the
    // plain ε-intersection system. When > 0, derived sizes satisfy the
    // masking product bound (|Qa|-b)·|Qℓ| ≥ n·μ_min(ε,b) so that correct
    // intersection replies outvote up to b forged ones with prob ≥ 1-ε,
    // and lookups value-vote: a result needs > b concurring replies or is
    // reported inconclusive. Voting needs every reply, so the lookup side
    // is forced to collect_all_replies.
    std::size_t byzantine_b = 0;

    // Resolves unset sizes for a network of n nodes: if both are 0, use the
    // symmetric size sqrt(n ln 1/eps); if one is set, size the other to
    // meet the product bound. With byzantine_b > 0 the masking analogs
    // apply (bit-identical to the b = 0 path when byzantine_b == 0).
    void resolve_sizes(std::size_t n);
};

}  // namespace pqs::core
