// RANDOM and RANDOM-OPT access strategies, membership-based.
//
// RANDOM (§4.1): the quorum is a uniformly random node set drawn from the
// origin's membership view, and each member is contacted through AODV
// unicast routing. The paper's other implementation, sampling-based RANDOM
// over mixing-time max-degree walks, exists only as a closed form
// (core/theory.h, Fig. 3); its simulations run this one.
//
// RANDOM-OPT (§4.5) is RANDOM plus one cross-layer rule: every node a
// request passes *through* also acts on it. A relay stores an advertised
// value, and a relay holding a looked-up key answers and stops the request
// there (early halting en route). Only ~ln(n) routed requests are needed
// for the same effective quorum size as RANDOM's sqrt(n) (§8.2). Its
// requests get no §6.2 replacements: Fig. 9 is measured without them.
//
// When a lookup ends. A member that lacks the key answers with a miss
// exactly when the lookup is serial or collect-all, and otherwise stays
// silent; a Byzantine member's tamper goes first on every miss.
//  - First-hit (parallel, not collect-all): at its first hit reply, else
//    kReplyGrace (3 s) after its last request resolved.
//  - Serial: at a hit, or once its targets run out.
//  - Collect-all: once every request has resolved and a distinct member
//    has answered each delivered one, with the values in hand (a miss if
//    every answer was one). Otherwise, and always when no answer came,
//    kReplyGrace after its last request resolved; each answer inside the
//    window retests the rule. So it still ends at the grace when an
//    answer is lost or withheld, or when a member is asked twice (a §6.2
//    replacement re-picked it) but answers once.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "core/access_strategy.h"

namespace pqs::core {

class RandomStrategy final : public AccessStrategy {
public:
    // Serves config.kind kRandom or kRandomOpt. Throws
    // std::invalid_argument when ctx.membership is null.
    RandomStrategy(ServiceContext& ctx, StrategyConfig config,
                   std::uint32_t tag);
    // Cancels the reply-grace timers of still-pending ops: their events
    // capture `this` and must not outlive the strategy.
    ~RandomStrategy() override;

    std::string name() const override { return strategy_name(config_.kind); }
    void attach_node(util::NodeId id) override;
    void access(AccessKind kind, util::NodeId origin, util::Key key,
                Value value, obs::TraceId trace,
                const std::vector<util::NodeId>& targets,
                AccessCallback done) override;

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
        // Parallel to `collected`: which quorum member sent each value,
        // each member once.
        std::vector<util::NodeId> responder_ids;
        // Members that answered with a miss, each once, and none of them
        // in `responder_ids`.
        std::vector<util::NodeId> missed;
        int replacements_left = 0;     // §6.2 application adaptation
        bool all_sent = false;
        sim::EventId grace_timer = sim::kInvalidEvent;
        obs::TraceId trace = 0;

        // Each member answers once, with a value or a miss. A repeat (a
        // duplicated delivery, or a §6.2 replacement that re-picked a
        // node already asked) adds no value, vote or answer.
        bool answered(util::NodeId member) const {
            const auto in = [member](const std::vector<util::NodeId>& ids) {
                return std::find(ids.begin(), ids.end(), member) != ids.end();
            };
            return in(responder_ids) || in(missed);
        }
    };

    // Counts `id`'s load and acts on a request it received or relays: an
    // advertise stores the value; a lookup returns the value `id` holds.
    std::optional<Value> serve(util::NodeId id, const QuorumRequestMsg& req);
    void on_request(util::NodeId id, const QuorumRequestMsg& req);
    // RANDOM-OPT's en-route rule; true when the request stops here.
    bool on_relay(util::NodeId id, const QuorumRequestMsg& req);
    void send_reply(util::NodeId from, const QuorumRequestMsg& req,
                    bool found, Value value);
    void send_to_target(util::AccessId op, util::NodeId origin,
                        util::NodeId target);
    void on_target_resolved(util::AccessId op, util::NodeId origin,
                            bool delivered);
    void maybe_finish(util::AccessId op);
    void finish(util::AccessId op, bool hit, Value value);

    OpTable<OpState> ops_;
};

}  // namespace pqs::core
