// RANDOM access strategy (§4.1), membership-based: the quorum is a
// uniformly random node set drawn from the origin's membership view, and
// each member is contacted through AODV unicast routing. The paper's other
// implementation, sampling-based RANDOM over mixing-time max-degree walks,
// exists only as a closed form (core/theory.h, Fig. 3); its simulations
// run this one.
#pragma once

#include <memory>
#include <vector>

#include "core/access_strategy.h"

namespace pqs::core {

class RandomStrategy final : public AccessStrategy {
public:
    // Throws std::invalid_argument when ctx.membership is null.
    RandomStrategy(ServiceContext& ctx, StrategyConfig config,
                   std::uint32_t tag);
    // Cancels the reply-grace timers of still-pending ops: their events
    // capture `this` and must not outlive the strategy.
    ~RandomStrategy() override;

    std::string name() const override { return "RANDOM"; }
    void attach_node(util::NodeId id) override;
    void access(AccessKind kind, util::NodeId origin, util::Key key,
                Value value, obs::TraceId trace,
                AccessCallback done) override;
    // Directed access: contacts the given targets (truncated to the
    // configured quorum size) with §6.2 replacements disabled, so a dead
    // cached target genuinely misses instead of being silently healed.
    void access_directed(AccessKind kind, util::NodeId origin, util::Key key,
                         Value value,
                         const std::vector<util::NodeId>& targets,
                         obs::TraceId trace, AccessCallback done) override;

private:
    struct OpState {
        AccessKind kind = AccessKind::kLookup;
        util::Key key = 0;
        Value value = 0;
        std::vector<util::NodeId> targets;
        std::size_t target_quorum = 0;  // |Q| asked for (targets may grow
                                        // with §6.2 replacements)
        std::size_t next_target = 0;   // serial cursor
        std::size_t outstanding = 0;   // in-flight routed sends
        std::size_t delivered = 0;
        bool serial = false;
        std::shared_ptr<IntersectionProbe> probe;
        std::vector<Value> collected;  // collect_all_replies mode
        // Parallel to `collected`: which quorum member sent each value.
        std::vector<util::NodeId> responder_ids;
        int replacements_left = 0;     // §6.2 application adaptation
        bool all_sent = false;
        sim::EventId grace_timer = sim::kInvalidEvent;
        obs::TraceId trace = 0;
    };

    // Issues the op's already-chosen target list (serial or parallel).
    void launch_targets(util::AccessId op, util::NodeId origin);
    void send_to_target(util::AccessId op, util::NodeId origin,
                        util::NodeId target);
    void on_target_resolved(util::AccessId op, util::NodeId origin,
                            bool delivered);
    void maybe_finish(util::AccessId op);
    void finish(util::AccessId op, bool hit, Value value);

    OpTable<OpState> ops_;
};

}  // namespace pqs::core
