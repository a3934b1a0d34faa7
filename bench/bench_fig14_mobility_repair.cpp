// Figure 14 (a-e): fast mobility *with* the reply-path local repair of
// §6.2 (TTL-3 scoped routing along the recorded path, global fallback for
// the final hop). Reports hit ratio, messages and routing overhead per
// lookup across speeds, plus the proactive variant with a 3 sqrt(n)
// advertise quorum (panel e).
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"

using namespace pqs;
using core::StrategyKind;

namespace {

void sweep(double adv_mult) {
    const std::size_t n = bench::big_n();
    const double rtn = std::sqrt(static_cast<double>(n));
    std::printf("\nadvertise quorum = %.0f sqrt(n):\n", adv_mult);
    std::printf("%10s %10s %14s %14s %16s %14s\n", "max m/s", "hit",
                "intersection", "reply drops", "msgs/lookup",
                "routing/lkp");
    for (const double vmax : {2.0, 5.0, 10.0, 20.0}) {
        core::ScenarioParams p = bench::base_scenario(n, 140);
        bench::make_mobile(p, 0.5, vmax);
        p.spec.advertise.kind = StrategyKind::kRandom;
        p.spec.advertise.quorum_size =
            static_cast<std::size_t>(std::lround(adv_mult * rtn));
        // RANDOM draws its quorum from the membership view: a 2 sqrt(n)
        // view would cap the 3 sqrt(n) panel at the 2 sqrt(n) quorum.
        p.membership_view = std::max(membership::default_view_size(n),
                                     p.spec.advertise.quorum_size);
        p.spec.lookup.kind = StrategyKind::kUniquePath;
        p.spec.lookup.quorum_size =
            static_cast<std::size_t>(std::lround(1.15 * rtn));
        p.spec.lookup.reply_local_repair = true;
        p.spec.lookup.reply_repair_ttl = 3;
        p.spec.lookup.reply_global_repair_fallback = true;
        const auto r = core::run_scenario_averaged(p, bench::runs(), 140).mean;
        std::printf("%10.0f %10.3f %14.3f %14.3f %16.1f %14.1f\n", vmax,
                    r.hit_ratio, r.intersect_ratio, r.reply_drop_ratio,
                    r.msgs_per_lookup, r.routing_per_lookup);
    }
}

}  // namespace

int main() {
    bench::banner("Figure 14(a-e)",
                  "fast mobility with reply-path local repair");
    sweep(/*adv_mult=*/2.0);
    sweep(/*adv_mult=*/3.0);  // panel (e): proactive larger advertise quorum
    std::printf("\n(paper: local+global repairs restore the hit ratio at all "
                "speeds; routing cost appears only when repairs fire, and a "
                "3 sqrt(n) advertise quorum shortens walks further)\n");
    return 0;
}
