// Shared read/write register over probabilistic quorums (§2.5, §10):
// several writers update a register; readers — anywhere in the MANET —
// observe versions that never go backwards, with atomic behaviour holding
// with the quorum intersection probability ("probabilistic
// linearizability").
//
//   ./shared_register [nodes] [writes]
#include <cstdio>
#include <cstdlib>

#include "membership/oracle_membership.h"
#include "svc/kv_service.h"

using namespace pqs;

int main(int argc, char** argv) {
    const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 150;
    const int writes = argc > 2 ? std::atoi(argv[2]) : 12;

    net::WorldParams wp;
    wp.n = n;
    wp.seed = 21;
    net::World world(wp);
    membership::OracleMembership membership(world);

    core::BiquorumSpec spec;
    spec.eps = 0.02;  // 98% per-operation atomicity
    spec.advertise.kind = core::StrategyKind::kRandom;
    spec.advertise.monotonic_store = true;   // old writes cannot clobber
    spec.lookup.kind = core::StrategyKind::kRandom;
    spec.lookup.collect_all_replies = true;  // reads take the max version
    core::LocationService location(world, spec, &membership);
    // No quorum cache: each read samples a fresh lookup quorum, so every
    // read is an independent trial of the guarantee printed below.
    svc::KvParams kp;
    kp.cache_quorums = false;
    svc::KvService reg(location, kp);
    const util::Key key = 555;
    world.start();

    const core::BiquorumSystem& biquorum = location.biquorum();
    std::printf("register over %zu nodes, quorums %zu x %zu, intersection "
                "guarantee %.3f\n",
                n, biquorum.spec().advertise.quorum_size,
                biquorum.spec().lookup.quorum_size,
                biquorum.intersection_guarantee());

    util::Rng rng(1);
    std::uint32_t last_version_seen = 0;
    bool monotonic = true;

    for (int i = 0; i < writes; ++i) {
        const auto writer = static_cast<util::NodeId>(rng.index(n));
        bool done = false;
        reg.write(writer, key, 1000 + i,
                  [&](const svc::KvWriteResult& r) {
                      std::printf("  write #%d by node %u -> version %u "
                                  "(%s)\n",
                                  i, writer, r.version,
                                  r.ok ? "quorum stored" : "partial");
                      done = true;
                  });
        while (!done && world.simulator().step()) {
        }

        // A random reader (with write-back, the ABD second phase).
        const auto reader = static_cast<util::NodeId>(rng.index(n));
        done = false;
        reg.read(reader, key,
                 [&](const svc::KvReadResult& r) {
                     std::printf("  read  by node %u -> v%u data=%u\n",
                                 reader, r.value.version, r.value.data);
                     if (r.value.version < last_version_seen) {
                         monotonic = false;
                     }
                     last_version_seen =
                         std::max(last_version_seen, r.value.version);
                     done = true;
                 },
                 /*write_back=*/true);
        while (!done && world.simulator().step()) {
        }
    }
    std::printf("versions observed monotonically: %s\n",
                monotonic ? "yes" : "NO (a probabilistic miss occurred)");
    return 0;
}
