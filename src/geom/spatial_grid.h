// Uniform-grid cell index over node ids, for neighbor discovery, radio
// reception sets and RGG construction. It keeps cells, not positions: a
// position only chooses a node's cell in insert() and move(), and the
// one query returns the ids in every cell a circle touches. The caller
// keeps those its own positions put in range, one `<= r * r` test each.
//
// Storage is flat (SoA): every cell's member ids live in one shared
// `slots_` array addressed by per-cell {start, count, capacity} — no
// per-cell vector headers or scattered heap blocks, so a query touches
// two contiguous ranges per cell ring instead of chasing 2*reach+1
// pointers. A cell that outgrows its reserved span triggers a whole-array
// rebuild-in-place that re-packs cells with headroom while preserving
// each cell's current member order, keeping query output order (which
// feeds event order and golden fingerprints) identical to the historical
// vector-of-vectors implementation (differential-tested against its
// frozen copy in tests/legacy_spatial_grid.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/vec2.h"
#include "util/ids.h"
#include "util/kernel_stats.h"

namespace pqs::geom {

class SpatialGrid {
public:
    // side: edge length of the square world. cell: grid cell edge; choose
    // cell >= the largest query radius for single-ring queries.
    SpatialGrid(double side, double cell, Metric metric = Metric::kPlane);

    double side() const { return side_; }
    double cell_size() const { return cell_size_; }
    Metric metric() const { return metric_; }

    // Inserts a node into the cell holding `pos`. Ids may be sparse;
    // re-inserting an existing id is an error (use move/remove).
    void insert(util::NodeId id, Vec2 pos);
    void remove(util::NodeId id);
    // Puts the node into the cell holding `new_pos`.
    void move(util::NodeId id, Vec2 new_pos);
    bool contains(util::NodeId id) const;
    std::size_t size() const { return live_count_; }

    // Appends to `out` every id in the cells the `radius`-circle at
    // `center` touches, except `exclude` (typically the querying node),
    // in cell/slot order. No distance test: the ids within `radius` are
    // among them, and the caller tests each against its own positions.
    // On a torus whose wrapped rings overlap, the appended ids are sorted
    // and deduplicated; the ids `out` held before are left as they were.
    void query_cells(Vec2 center, double radius,
                     std::vector<util::NodeId>& out,
                     util::NodeId exclude = util::kInvalidNode) const;

    // Kernel counters (queries, candidates returned, moves, cell
    // crossings, flat-storage rebuilds); deterministic for a fixed seed.
    const util::KernelStats& stats() const { return stats_; }

private:
    struct Entry {
        bool live = false;
        std::uint32_t cell = 0;
        std::uint32_t slot = 0;  // index within the cell's span
    };

    struct Cell {
        std::uint32_t start = 0;
        std::uint32_t count = 0;
        std::uint32_t cap = 0;
    };

    std::size_t cell_of(Vec2 pos) const;
    void unlink(util::NodeId id);
    // Re-packs `slots_` giving every cell headroom; preserves each cell's
    // member order exactly.
    void rebuild(std::size_t need_cell);

    double side_;
    double cell_size_;
    std::size_t cells_per_side_;
    Metric metric_;
    std::vector<Cell> cells_;
    std::vector<util::NodeId> slots_;  // all cells' members, one array
    std::vector<Entry> entries_;       // indexed by NodeId
    std::size_t live_count_ = 0;
    mutable util::KernelStats stats_;  // query_cells() is logically const
};

}  // namespace pqs::geom
