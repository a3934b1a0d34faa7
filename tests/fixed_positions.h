// Hand-placed nodes for PHY and MAC tests that run a channel without a
// World. Its candidate query has no index: it returns every alive id,
// and the channel distance-tests each one.
#pragma once

#include <vector>

#include "geom/vec2.h"
#include "phy/channel.h"
#include "util/ids.h"

namespace pqs::test {

class FixedPositions final : public phy::PositionProvider {
public:
    void add(util::NodeId id, geom::Vec2 pos) {
        if (positions_.size() <= id) {
            positions_.resize(id + 1);
            alive_.resize(id + 1, false);
        }
        positions_[id] = pos;
        alive_[id] = true;
    }
    void kill(util::NodeId id) { alive_[id] = false; }

    geom::Vec2 position(util::NodeId id) const override {
        return positions_.at(id);
    }
    bool alive(util::NodeId id) const override {
        return id < alive_.size() && alive_[id];
    }
    void candidates_within(geom::Vec2 /*center*/, double /*radius*/,
                           std::vector<util::NodeId>& out,
                           util::NodeId exclude) const override {
        for (util::NodeId i = 0; i < positions_.size(); ++i) {
            if (i != exclude && alive_[i]) {
                out.push_back(i);
            }
        }
    }

private:
    std::vector<geom::Vec2> positions_;
    std::vector<bool> alive_;
};

}  // namespace pqs::test
