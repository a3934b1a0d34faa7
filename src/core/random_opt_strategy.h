// RANDOM-OPT access strategy (§4.5): like membership-based RANDOM but with
// a cross-layer optimization — every node a request passes *through* also
// acts on it. For advertises, intermediate nodes store the mapping too; for
// lookups, an intermediate node holding the key answers immediately and
// stops the request from travelling further (early halting en route).
// Only ~ln(n) routed requests are needed for the same effective quorum
// size as RANDOM's sqrt(n) (§8.2).
#pragma once

#include "core/access_strategy.h"

namespace pqs::core {

class RandomOptStrategy final : public AccessStrategy {
public:
    // Throws std::invalid_argument when ctx.membership is null.
    RandomOptStrategy(ServiceContext& ctx, StrategyConfig config,
                      std::uint32_t tag);
    // Cancels the reply-grace timers of still-pending ops: their events
    // capture `this` and must not outlive the strategy.
    ~RandomOptStrategy() override;

    std::string name() const override { return "RANDOM-OPT"; }
    void attach_node(util::NodeId id) override;
    void access(AccessKind kind, util::NodeId origin, util::Key key,
                Value value, obs::TraceId trace,
                AccessCallback done) override;

private:
    struct OpState {
        AccessKind kind = AccessKind::kLookup;
        util::Key key = 0;
        Value value = 0;
        std::size_t targets = 0;
        std::size_t outstanding = 0;
        std::size_t delivered = 0;
        bool all_sent = false;
        std::shared_ptr<IntersectionProbe> probe;
        sim::EventId grace_timer = sim::kInvalidEvent;
        obs::TraceId trace = 0;
    };

    // Acts on a request at `id` (en route or at the target). Returns true
    // when the request is fully absorbed (lookup hit) and, for snooped
    // packets, must not be forwarded further.
    bool act_on_request(util::NodeId id, const QuorumRequestMsg& req);
    void on_target_resolved(util::AccessId op, bool delivered);
    void maybe_finish(util::AccessId op);
    void finish(util::AccessId op, bool hit, Value value);

    OpTable<OpState> ops_;
};

}  // namespace pqs::core
