// Network-layer packet model shared by both fidelity levels. A packet is a
// one-hop unit (link_src -> link_dst); multihop delivery re-wraps the same
// body hop by hop. Bodies are a closed variant: neighbor-discovery hellos,
// AODV control, and application data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <variant>
#include <vector>

#include "obs/trace.h"
#include "sim/time.h"
#include "util/ids.h"
#include "util/pool.h"

namespace pqs::net {

// Link-level broadcast address.
inline constexpr util::NodeId kBroadcast = util::kInvalidNode;

// Base class for application payloads (quorum protocol messages live in
// src/core). The default size matches the paper's 512-byte messages.
struct AppMessage {
    virtual ~AppMessage() = default;
    virtual std::size_t size_bytes() const { return 512; }

    // Trace of the access this message belongs to (0 = untraced). Copied
    // into the Packet/Frame that carry it so hop-level events attach to
    // the op span. Not counted in size_bytes: it is instrumentation, not
    // protocol state.
    obs::TraceId trace = 0;
};
using AppMsgPtr = std::shared_ptr<const AppMessage>;

// Tracks end-to-end fate of a routed data packet. The simulator (not the
// protocol) flips these flags so experiments can measure delivery without
// extra control traffic; protocols never read them.
struct DeliveryTracker {
    std::function<void(bool delivered)> done;
    bool resolved = false;

    void resolve(bool delivered) {
        if (!resolved) {
            resolved = true;
            if (done) {
                done(delivered);
            }
        }
    }
};

struct HelloBody {};

struct RreqBody {
    util::NodeId origin = util::kInvalidNode;
    util::NodeId target = util::kInvalidNode;
    util::SeqNum origin_seq = 0;
    util::SeqNum target_seq = 0;
    bool target_seq_unknown = true;
    std::uint32_t rreq_id = 0;
    std::uint16_t hop_count = 0;
};

struct RrepBody {
    util::NodeId origin = util::kInvalidNode;  // who asked
    util::NodeId target = util::kInvalidNode;  // route destination
    util::SeqNum target_seq = 0;
    std::uint16_t hop_count = 0;
    // How long a receiver may use the forward route (RFC 3561 §6.6): what
    // is left of the sender's own route to the target, route_lifetime at
    // the destination itself.
    sim::Time lifetime = 0;
};

struct RerrBody {
    std::vector<std::pair<util::NodeId, util::SeqNum>> unreachable;
};

struct DataBody {
    util::NodeId net_src = util::kInvalidNode;
    util::NodeId net_dst = util::kInvalidNode;  // kBroadcast => one-hop only
    AppMsgPtr app;
    std::shared_ptr<DeliveryTracker> tracker;  // may be null
    // Remaining AODV local-repair attempts (RFC 3561 §6.12): when a hop
    // breaks mid-path, the node holding the packet may rediscover the
    // destination and resume forwarding, this many more times.
    std::uint8_t repairs_left = 1;
};

using PacketBody =
    std::variant<HelloBody, RreqBody, RrepBody, RerrBody, DataBody>;
// Data is the largest body; control bodies must not grow the packet.
static_assert(sizeof(RrepBody) <= sizeof(DataBody));

struct Packet {
    util::NodeId link_src = util::kInvalidNode;
    util::NodeId link_dst = kBroadcast;
    int ttl = 64;
    obs::TraceId trace = 0;  // originating op, for hop tracing
    PacketBody body;

    std::size_t size_bytes() const;
    bool is_data() const { return std::holds_alternative<DataBody>(body); }
    const DataBody& data() const { return std::get<DataBody>(body); }
};

using PacketPtr = std::shared_ptr<const Packet>;

// Message-accounting category; each one has its own KernelStats
// transmission counter (hello_tx, routing_tx, data_tx).
enum class PacketCategory : std::uint8_t { kHello, kRouting, kData };

PacketCategory packet_category(const Packet& packet);

// Pooled allocation: the Packet and its control block come from one
// recycled BlockPool block (World::packet_pool()). The pool must outlive
// the packet.
std::shared_ptr<Packet> alloc_packet(util::BlockPool& pool);

// Convenience builders. The pooled overloads are what the stack's hot
// paths use; the plain ones (one make_shared per call) remain for tests
// and one-off construction.
PacketPtr make_hello(util::NodeId src);
PacketPtr make_hello(util::BlockPool& pool, util::NodeId src);
PacketPtr make_data(util::NodeId src, util::NodeId link_dst,
                    util::NodeId net_src, util::NodeId net_dst, AppMsgPtr app,
                    std::shared_ptr<DeliveryTracker> tracker = nullptr,
                    int ttl = 64);
PacketPtr make_data(util::BlockPool& pool, util::NodeId src,
                    util::NodeId link_dst, util::NodeId net_src,
                    util::NodeId net_dst, AppMsgPtr app,
                    std::shared_ptr<DeliveryTracker> tracker = nullptr,
                    int ttl = 64);

}  // namespace pqs::net
