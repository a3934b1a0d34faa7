#include "geom/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace pqs::geom {

namespace {

// Headroom a cell gets at rebuild time: enough slack that steady-state
// mobility (members drifting between adjacent cells) rarely overflows
// again, without inflating the flat array much beyond the population.
inline std::uint32_t cap_for(std::uint32_t count) {
    return count + std::max<std::uint32_t>(2, count / 2);
}

}  // namespace

SpatialGrid::SpatialGrid(double side, double cell, Metric metric)
    : side_(side), metric_(metric) {
    if (side <= 0.0 || cell <= 0.0) {
        throw std::invalid_argument("SpatialGrid: side and cell must be > 0");
    }
    cells_per_side_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(side / cell)));
    cell_size_ = side / static_cast<double>(cells_per_side_);
    cells_.resize(cells_per_side_ * cells_per_side_);
}

std::size_t SpatialGrid::cell_of(Vec2 pos) const {
    const auto clamp_idx = [this](double coord) {
        if (coord < 0.0) coord = 0.0;
        auto idx = static_cast<std::size_t>(coord / cell_size_);
        return std::min(idx, cells_per_side_ - 1);
    };
    return clamp_idx(pos.y) * cells_per_side_ + clamp_idx(pos.x);
}

void SpatialGrid::rebuild(std::size_t need_cell) {
    ++stats_.grid_rebuilds;
    std::size_t total = 0;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
        std::uint32_t cap = cap_for(cells_[c].count);
        if (c == need_cell) {
            cap = std::max(cap, cells_[c].count + 1);
        }
        total += cap;
    }
    std::vector<util::NodeId> packed(total);
    std::uint32_t at = 0;
    for (Cell& cell : cells_) {
        std::uint32_t cap = cap_for(cell.count);
        if (&cell == &cells_[need_cell]) {
            cap = std::max(cap, cell.count + 1);
        }
        // Member order within the cell is preserved verbatim — query
        // output order is part of the grid's behavioural contract.
        std::copy_n(slots_.begin() + cell.start, cell.count,
                    packed.begin() + at);
        cell.start = at;
        cell.cap = cap;
        at += cap;
    }
    slots_ = std::move(packed);
}

void SpatialGrid::insert(util::NodeId id, Vec2 pos) {
    if (id >= entries_.size()) {
        entries_.resize(id + 1);
    }
    if (entries_[id].live) {
        throw std::logic_error("SpatialGrid::insert: id already present");
    }
    const std::size_t cell = cell_of(pos);
    Cell* c = &cells_[cell];
    if (c->count == c->cap) {
        rebuild(cell);
        c = &cells_[cell];
    }
    entries_[id] = Entry{true, static_cast<std::uint32_t>(cell), c->count};
    slots_[c->start + c->count] = id;
    ++c->count;
    ++live_count_;
}

void SpatialGrid::unlink(util::NodeId id) {
    Entry& e = entries_[id];
    Cell& c = cells_[e.cell];
    // Swap-remove within the cell's span, fixing the moved entry's slot.
    const util::NodeId last = slots_[c.start + c.count - 1];
    slots_[c.start + e.slot] = last;
    entries_[last].slot = e.slot;
    --c.count;
}

void SpatialGrid::remove(util::NodeId id) {
    if (!contains(id)) {
        throw std::logic_error("SpatialGrid::remove: id not present");
    }
    unlink(id);
    entries_[id].live = false;
    --live_count_;
}

void SpatialGrid::move(util::NodeId id, Vec2 new_pos) {
    if (!contains(id)) {
        throw std::logic_error("SpatialGrid::move: id not present");
    }
    const auto new_cell =
        static_cast<std::uint32_t>(cell_of(new_pos));
    ++stats_.grid_moves;
    if (new_cell != entries_[id].cell) {
        ++stats_.grid_cell_crossings;
        Cell* c = &cells_[new_cell];
        if (c->count == c->cap) {
            rebuild(new_cell);
            c = &cells_[new_cell];
        }
        unlink(id);
        Entry& e = entries_[id];
        e.cell = new_cell;
        e.slot = c->count;
        slots_[c->start + c->count] = id;
        ++c->count;
    }
}

bool SpatialGrid::contains(util::NodeId id) const {
    return id < entries_.size() && entries_[id].live;
}

// pqs-hot: every broadcast's receiver set and every neighbour snapshot.
void SpatialGrid::query_cells(Vec2 center, double radius,
                              std::vector<util::NodeId>& out,
                              util::NodeId exclude) const {
    ++stats_.grid_queries;
    const std::size_t first = out.size();
    const auto reach =
        static_cast<long>(std::ceil(radius / cell_size_));
    const long cx = static_cast<long>(
        std::min(center.x / cell_size_,
                 static_cast<double>(cells_per_side_ - 1)));
    const long cy = static_cast<long>(
        std::min(center.y / cell_size_,
                 static_cast<double>(cells_per_side_ - 1)));
    const long n = static_cast<long>(cells_per_side_);

    for (long dy = -reach; dy <= reach; ++dy) {
        for (long dx = -reach; dx <= reach; ++dx) {
            long gx = cx + dx;
            long gy = cy + dy;
            if (metric_ == Metric::kTorus) {
                gx = ((gx % n) + n) % n;
                gy = ((gy % n) + n) % n;
            } else if (gx < 0 || gy < 0 || gx >= n || gy >= n) {
                continue;
            }
            const Cell& cell =
                cells_[static_cast<std::size_t>(gy) * cells_per_side_ +
                       static_cast<std::size_t>(gx)];
            for (std::uint32_t s = 0; s < cell.count; ++s) {
                const util::NodeId id = slots_[cell.start + s];
                if (id == exclude) {
                    continue;
                }
                ++stats_.grid_candidates;
                out.push_back(id);
            }
        }
    }
    if (metric_ == Metric::kTorus && 2 * reach + 1 >= n) {
        // Wrapped rings overlapped: deduplicate what this query appended.
        const auto appended =
            out.begin() + static_cast<std::ptrdiff_t>(first);
        std::sort(appended, out.end());
        out.erase(std::unique(appended, out.end()), out.end());
    }
}

}  // namespace pqs::geom
