// PATH and UNIQUE-PATH access strategies (§4.2, §4.3): a single random walk
// traverses the network until it has visited |Q| distinct nodes, acting on
// every node it visits. UNIQUE-PATH walks are self-avoiding (step to an
// unvisited neighbor when one exists). Implements the paper's systems
// techniques:
//  - RW salvation (§6.2): a failed hop is retried through another neighbor
//    within the same step;
//  - early halting (§7.1): a lookup stops at the first node holding the key;
//  - reverse-path replies with path reduction, TTL-scoped local repair and
//    global fallback (§6.2, §7.2) via the shared ReplyPathRouter;
//  - bystander caching of advertisements passing through (§7.1).
#pragma once

#include <memory>

#include "core/access_strategy.h"

namespace pqs::core {

// Measurement-only shared state of one walk.
struct WalkTracker {
    std::size_t unique = 0;    // distinct nodes visited so far
    std::size_t steps = 0;     // transmissions spent on the walk
    bool hit = false;          // lookup touched a node holding the key
    bool covered = false;      // reached the target quorum size
    bool died = false;         // ran out of usable neighbors / salvage
    bool halted = false;       // stopped externally (overhearing, §7.2)
    std::function<void()> on_terminal;  // fires once when the walk ends

    void terminal() {
        if (on_terminal) {
            auto fn = std::move(on_terminal);
            on_terminal = nullptr;
            fn();
        }
    }
};

class PathStrategy final : public AccessStrategy {
public:
    // unique=false => PATH (simple walk); true => UNIQUE-PATH.
    PathStrategy(ServiceContext& ctx, StrategyConfig config,
                 std::uint32_t tag, bool unique);

    std::string name() const override {
        return unique_ ? "UNIQUE-PATH" : "PATH";
    }
    void attach_node(util::NodeId id) override;
    void access(AccessKind kind, util::NodeId origin, util::Key key,
                Value value, obs::TraceId trace,
                const std::vector<util::NodeId>& targets,
                AccessCallback done) override;
    void on_reverse_reply(util::NodeId origin,
                          const ReverseReplyMsg& msg) override;

    struct WalkMsg;

private:
    struct OpState {
        AccessKind kind = AccessKind::kLookup;
        util::Key key = 0;
        std::shared_ptr<WalkTracker> tracker;
        std::shared_ptr<ReplyTracker> reply_tracker;
    };

    void visit(util::NodeId at, std::shared_ptr<const WalkMsg> msg);
    void forward(util::NodeId at, std::shared_ptr<const WalkMsg> msg,
                 int salvage_left,
                 std::vector<util::NodeId> excluded_hops);

    bool unique_;
    OpTable<OpState> ops_;
    util::Rng rng_;
};

}  // namespace pqs::core
