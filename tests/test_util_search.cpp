#include "util/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace pqs::util {
namespace {

// Random sorted arrays of every size from 0 to 300, with repeats and
// gaps, probed below the first element, at and between every element,
// and above the last: the branch-free search answers as std::lower_bound.
TEST(BranchlessLowerBound, MatchesStdLowerBound) {
    Rng rng(11);
    for (std::uint32_t size = 0; size <= 300; ++size) {
        std::vector<std::uint32_t> v(size);
        for (std::uint32_t& x : v) {
            // Even values from 2 up: odd keys fall between elements.
            x = 2 * static_cast<std::uint32_t>(rng.uniform_u64(size + 1)) + 2;
        }
        std::sort(v.begin(), v.end());
        std::vector<std::uint32_t> keys = {0, 1};
        for (const std::uint32_t x : v) {
            keys.insert(keys.end(), {x - 1, x, x + 1});
        }
        keys.push_back(v.empty() ? 3 : v.back() + 3);
        for (const std::uint32_t key : keys) {
            const auto want = static_cast<std::uint32_t>(
                std::lower_bound(v.begin(), v.end(), key) - v.begin());
            ASSERT_EQ(branchless_lower_bound(v.data(), size, key), want)
                << "size " << size << " key " << key;
        }
    }
}

TEST(BranchlessLowerBound, SearchesByAProjectedKey) {
    struct Row {
        std::uint32_t dst;
        int payload;
    };
    const std::vector<Row> rows = {{3, 0}, {5, 1}, {5, 2}, {9, 3}};
    const auto dst = [](const Row& r) { return r.dst; };
    const std::size_t n = rows.size();
    EXPECT_EQ(branchless_lower_bound(rows.data(), n, 0u, dst), 0u);
    EXPECT_EQ(branchless_lower_bound(rows.data(), n, 5u, dst), 1u);
    EXPECT_EQ(branchless_lower_bound(rows.data(), n, 6u, dst), 3u);
    EXPECT_EQ(branchless_lower_bound(rows.data(), n, 9u, dst), 3u);
    EXPECT_EQ(branchless_lower_bound(rows.data(), n, 10u, dst), 4u);
}

}  // namespace
}  // namespace pqs::util
