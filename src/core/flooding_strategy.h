// FLOODING access strategy (§4.4): a TTL-scoped flood from the originator.
// Every node covered by a lookup flood is a quorum member; advertise floods
// make each covered node join the quorum with a configured probability
// (|Q|/n over a whole-network flood, per the paper). Rebroadcasts are
// jittered by up to 10 ms (RFC 5148) to avoid synchronized collisions.
// Replies travel the reverse parent chain recorded by the flood.
// An optional expanding-ring mode re-floods with TTL 1, 2, ... until a hit.
#pragma once

#include <unordered_map>

#include "core/access_strategy.h"

namespace pqs::core {

class FloodingStrategy final : public AccessStrategy {
public:
    FloodingStrategy(ServiceContext& ctx, StrategyConfig config,
                     std::uint32_t tag);

    std::string name() const override { return "FLOODING"; }
    void attach_node(util::NodeId id) override;
    void access(AccessKind kind, util::NodeId origin, util::Key key,
                Value value, obs::TraceId trace,
                const std::vector<util::NodeId>& targets,
                AccessCallback done) override;

    struct FloodMsg;
    struct FloodReplyMsg;

    // Measurement-only per-flood state.
    struct FloodTracker {
        std::size_t covered = 0;  // nodes that received the flood
        std::size_t joined = 0;   // nodes that stored (advertise)
        bool hit = false;
    };

private:
    struct OpState {
        AccessKind kind = AccessKind::kLookup;
        util::Key key = 0;
        Value value = 0;
        int round_ttl = 0;  // current TTL (expanding ring)
        std::shared_ptr<FloodTracker> tracker;
        obs::TraceId trace = 0;
    };

    void launch_round(util::AccessId op, util::NodeId origin, int ttl);
    void handle_flood(util::NodeId id, util::NodeId prev,
                      std::shared_ptr<const FloodMsg> msg);
    void send_reply_chain(util::NodeId id, const FloodMsg& msg, Value value);
    sim::Time settle_time(int ttl) const;

    OpTable<OpState> ops_;
    util::Rng rng_;
    // parent[node][flood round id] = the neighbor the flood arrived from.
    // Round ids distinguish expanding-ring rounds of the same op.
    struct RoundKey {
        util::AccessId op;
        int ttl;
        friend bool operator==(const RoundKey&, const RoundKey&) = default;
    };
    struct RoundKeyHash {
        std::size_t operator()(const RoundKey& k) const noexcept {
            return std::hash<util::AccessId>{}(k.op) ^
                   (static_cast<std::size_t>(k.ttl) * 0x9e3779b97f4a7c15ULL);
        }
    };
    std::vector<std::unordered_map<RoundKey, util::NodeId, RoundKeyHash>>
        parents_;
};

}  // namespace pqs::core
