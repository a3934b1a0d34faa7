// The simulator's single counter registry: the event queue
// (schedule/fire/cancel, heap ops, slab recycling), the spatial grid
// (queries, candidate scans, moves), the packet pool, and the counters
// bumped above the kernel — transmissions by packet category, expired
// AODV forwards and TTL drops, load accounting, reply-grace expiries,
// Byzantine tampers, energy and leases. Every counter is driven purely by
// simulation behaviour, so for a fixed seed the whole block is
// deterministic — bench and regression harnesses assert on it verbatim,
// while wall-clock time stays a separate, informational measurement.
#pragma once

#include <cstdint>
#include <cstdio>

namespace pqs::util {

// X-macro over every counter; the single source of truth for merging,
// reporting and JSON export, so adding a counter here is all it takes.
#define PQS_KERNEL_STATS_FIELDS(X)                                        \
    X(events_scheduled)  /* EventQueue::schedule calls */                 \
    X(events_fired)      /* live events returned by pop() */             \
    X(events_cancelled)  /* successful cancel() calls */                 \
    X(heap_pushes)       /* heap insertions */                           \
    X(heap_pops)         /* heap root removals (live + stale) */         \
    X(heap_moves)        /* entry copies during sift up/down */          \
    X(stale_drops)       /* lazily-deleted (cancelled) entries skipped */ \
    X(slab_reuses)       /* event slots recycled from the free list */   \
    X(callback_heap_allocs) /* callbacks too large for inline storage */ \
    X(calendar_pushes)   /* far-future events parked in the calendar */  \
    X(calendar_migrations) /* calendar entries promoted into the heap */ \
    X(grid_queries)      /* SpatialGrid::query_cells calls */            \
    X(grid_candidates)   /* ids queries returned, before any dedupe */   \
    X(grid_moves)        /* SpatialGrid::move calls */                   \
    X(grid_cell_crossings) /* moves that changed grid cell */            \
    X(grid_rebuilds)     /* flat-storage compactions (cell overflow) */  \
    X(packet_allocs)     /* packet blocks taken from the heap */         \
    X(packet_pool_reuses) /* packet blocks recycled from the pool */     \
    X(alive_snapshots)   /* alive_nodes()/neighbor vector copies */       \
    X(quorum_loads_counted) /* per-node access-load increments (MRW) */   \
    X(byzantine_tampers) /* replies dropped/forged by the adversary */    \
    X(energy_sleep_transitions) /* duty-cycle sleep entries */            \
    X(energy_depletions) /* batteries that hit zero (permanent death) */  \
    X(lease_expirations) /* leased values evicted at their deadline */    \
    X(refreshes_deferred) /* refresher ticks deferred: owner asleep */    \
    X(hello_tx)          /* neighbor-discovery hellos sent on air */      \
    X(hello_spills)      /* hello refreshes served from spill storage */  \
    X(routing_tx)        /* AODV RREQ/RREP/RERR sent on air */            \
    X(data_tx)           /* data packets sent on air, one per hop */      \
    X(expired_route_forwards) /* forwards refused: route valid, expired */ \
    X(ttl_expired_drops) /* data packets dropped at a relay by TTL */     \
    X(reply_grace_expiries) /* parallel lookups ended by the reply grace */

struct KernelStats {
#define PQS_KERNEL_STATS_DECL(field) std::uint64_t field = 0;
    PQS_KERNEL_STATS_FIELDS(PQS_KERNEL_STATS_DECL)
#undef PQS_KERNEL_STATS_DECL

    KernelStats& operator+=(const KernelStats& other) {
#define PQS_KERNEL_STATS_ADD(field) field += other.field;
        PQS_KERNEL_STATS_FIELDS(PQS_KERNEL_STATS_ADD)
#undef PQS_KERNEL_STATS_ADD
        return *this;
    }
};

// One named view per counter, in declaration order — lets report/JSON
// code iterate the block generically.
struct KernelStatsField {
    const char* name;
    std::uint64_t (*get)(const KernelStats&);
};
const KernelStatsField* kernel_stats_fields(std::size_t* count);

// Prints the block as a single "[perf] kernel <label>: ..." line to
// `stream` (stderr by default, matching exp::report_perf: stdout tables
// stay byte-identical while perf telemetry goes to the side channel).
void report_kernel_stats(const KernelStats& stats, const char* label,
                         std::FILE* stream = stderr);

}  // namespace pqs::util
