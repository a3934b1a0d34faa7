#include "util/stats.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace pqs::util {
namespace {

TEST(Accumulator, EmptyState) {
    Accumulator acc;
    EXPECT_TRUE(acc.empty());
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_THROW(acc.mean(), std::logic_error);
}

TEST(Accumulator, SingleValue) {
    Accumulator acc;
    acc.add(5.0);
    EXPECT_EQ(acc.count(), 1u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, MeanAndVariance) {
    Accumulator acc;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        acc.add(x);
    }
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    // Sample variance with n-1: 32/7.
    EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
}

}  // namespace
}  // namespace pqs::util
