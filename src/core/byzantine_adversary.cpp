#include "core/byzantine_adversary.h"

#include <memory>

#include "core/access_strategy.h"
#include "core/reply_path.h"
#include "obs/trace.h"

namespace pqs::core {

namespace {
std::uint64_t splitmix(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}
}  // namespace

ByzantineAdversary::ByzantineAdversary(net::World& world,
                                       sim::ByzantinePlan& plan)
    : world_(world), plan_(plan) {
    world_.set_tamper(this);
}

ByzantineAdversary::~ByzantineAdversary() {
    if (world_.tamper() == this) {
        world_.set_tamper(nullptr);
    }
}

Value ByzantineAdversary::fabricate(util::Key key) {
    return splitmix(key ^ 0xb1a5ed4e55ULL);
}

bool ByzantineAdversary::tamper_value(sim::ByzantineBehavior behavior,
                                      util::Key key, Value& value,
                                      bool found) {
    if (found) {
        first_seen_.emplace(key, value);  // emplace keeps the oldest
    }
    sim::ByzantinePlan::Counters& counters = plan_.counters();
    switch (behavior) {
        case sim::ByzantineBehavior::kDropReply:
            ++counters.replies_dropped;
            ++world_.counters().byzantine_tampers;
            return false;
        case sim::ByzantineBehavior::kLieStale: {
            const auto it = first_seen_.find(key);
            if (it == first_seen_.end() || (found && it->second == value)) {
                return true;  // nothing staler to tell yet
            }
            ++counters.replies_stale;
            ++world_.counters().byzantine_tampers;
            value = it->second;
            return true;
        }
        case sim::ByzantineBehavior::kLieFabricate:
            ++counters.replies_fabricated;
            ++world_.counters().byzantine_tampers;
            value = fabricate(key);
            return true;
        case sim::ByzantineBehavior::kReplay: {
            const auto it = last_reply_.find(key);
            if (it == last_reply_.end()) {
                if (found) {
                    last_reply_.emplace(key, value);
                }
                return true;  // nothing captured yet: first reply is honest
            }
            const Value replayed = it->second;
            if (found) {
                it->second = value;  // capture for the next replay
            }
            if (replayed == value) {
                return true;  // the replay happens to be current
            }
            ++counters.replies_replayed;
            ++world_.counters().byzantine_tampers;
            value = replayed;
            return true;
        }
    }
    return true;
}

bool ByzantineAdversary::on_reply_value(util::NodeId at, std::uint64_t key,
                                        std::uint64_t& value,
                                        std::uint64_t trace) {
    if (!plan_.faulty(at)) {
        return true;
    }
    const sim::ByzantineBehavior behavior = plan_.behavior(at);
    if (!tamper_value(behavior, key, value, /*found=*/true)) {
        obs::record(trace, obs::EventKind::kFaultyReplySuppressed, at,
                    static_cast<std::uint64_t>(behavior), key);
        return false;
    }
    return true;
}

bool ByzantineAdversary::on_lookup_miss(util::NodeId at, std::uint64_t key,
                                        std::uint64_t& forged_value) {
    if (!plan_.faulty(at)) {
        return false;
    }
    sim::ByzantinePlan::Counters& counters = plan_.counters();
    switch (plan_.behavior(at)) {
        case sim::ByzantineBehavior::kDropReply:
            return false;  // silence is this behavior's whole repertoire
        case sim::ByzantineBehavior::kLieStale: {
            const auto it = first_seen_.find(key);
            if (it == first_seen_.end()) {
                return false;  // nothing observed to lie about yet
            }
            forged_value = it->second;
            ++counters.replies_stale;
            break;
        }
        case sim::ByzantineBehavior::kLieFabricate:
            forged_value = fabricate(key);
            ++counters.replies_fabricated;
            break;
        case sim::ByzantineBehavior::kReplay: {
            const auto it = last_reply_.find(key);
            if (it == last_reply_.end()) {
                return false;  // nothing captured to replay yet
            }
            forged_value = it->second;
            ++counters.replies_replayed;
            break;
        }
    }
    ++world_.counters().byzantine_tampers;
    ++miss_lies_in_flight_[key];  // consumed by the send that follows
    return true;
}

net::TamperVerdict ByzantineAdversary::on_send(util::NodeId at,
                                               const net::AppMsgPtr& msg,
                                               net::AppMsgPtr& forged) {
    if (!plan_.faulty(at)) {
        return net::TamperVerdict::kPass;
    }
    const sim::ByzantineBehavior behavior = plan_.behavior(at);
    if (const auto* reply = dynamic_cast<const QuorumReplyMsg*>(msg.get())) {
        const auto in_flight = miss_lies_in_flight_.find(reply->key);
        if (in_flight != miss_lies_in_flight_.end()) {
            // A miss-forged reply of our own making: already tampered and
            // counted in on_lookup_miss.
            if (--in_flight->second == 0) {
                miss_lies_in_flight_.erase(in_flight);
            }
            return net::TamperVerdict::kPass;
        }
        Value value = reply->value;
        if (!tamper_value(behavior, reply->key, value, reply->found)) {
            obs::record(reply->trace, obs::EventKind::kFaultyReplySuppressed,
                        at, static_cast<std::uint64_t>(behavior), reply->key);
            return net::TamperVerdict::kDrop;
        }
        if (value == reply->value) {
            return net::TamperVerdict::kPass;
        }
        auto lie = std::make_shared<QuorumReplyMsg>(*reply);
        lie->value = value;
        lie->found = true;  // a forged miss becomes a confident hit
        forged = std::move(lie);
        return net::TamperVerdict::kReplace;
    }
    if (dynamic_cast<const ReverseReplyMsg*>(msg.get()) != nullptr) {
        // In-transit walk reply at a faulty relay. Value forging happened
        // at origination (on_reply_value); a relay can only discard —
        // forging other nodes' replies would let the adversary cast more
        // than b votes and break the masking-budget accounting.
        if (behavior == sim::ByzantineBehavior::kDropReply) {
            ++plan_.counters().replies_dropped;
            ++world_.counters().byzantine_tampers;
            obs::record(msg->trace, obs::EventKind::kFaultyReplySuppressed,
                        at, static_cast<std::uint64_t>(behavior));
            return net::TamperVerdict::kDrop;
        }
    }
    return net::TamperVerdict::kPass;
}

}  // namespace pqs::core
