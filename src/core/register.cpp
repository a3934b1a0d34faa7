#include "core/register.h"

#include <algorithm>
#include <unordered_map>

namespace pqs::core {

Versioned highest_versioned(const AccessResult& r, std::size_t b) {
    Value best = 0;
    if (b == 0) {
        for (const Value v : r.values) {
            best = std::max(best, v);
        }
        if (r.value) {
            best = std::max(best, *r.value);
        }
        return unpack(best);
    }
    // b-masking: a forged reply can carry an arbitrarily high version, so
    // only values with > b concurring replies may enter the maximum.
    std::unordered_map<Value, std::size_t> tally;
    for (const Value v : r.values) {
        ++tally[v];
    }
    for (const auto& [value, votes] : tally) {
        if (votes > b) {
            best = std::max(best, value);
        }
    }
    return unpack(best);
}

}  // namespace pqs::core
