#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace pqs::util {
namespace {

TEST(Accumulator, EmptyState) {
    Accumulator acc;
    EXPECT_TRUE(acc.empty());
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_THROW(acc.mean(), std::logic_error);
    EXPECT_THROW(acc.min(), std::logic_error);
    EXPECT_THROW(acc.max(), std::logic_error);
}

TEST(Accumulator, SingleValue) {
    Accumulator acc;
    acc.add(5.0);
    EXPECT_EQ(acc.count(), 1u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
    EXPECT_DOUBLE_EQ(acc.min(), 5.0);
    EXPECT_DOUBLE_EQ(acc.max(), 5.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 5.0);
}

TEST(Accumulator, MeanAndVariance) {
    Accumulator acc;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        acc.add(x);
    }
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    // Sample variance with n-1: 32/7.
    EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, MergeMatchesSequential) {
    Accumulator all;
    Accumulator left;
    Accumulator right;
    for (int i = 0; i < 100; ++i) {
        const double x = std::sin(i) * 10.0;
        all.add(x);
        (i < 37 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Accumulator, MergeWithEmpty) {
    Accumulator a;
    a.add(1.0);
    Accumulator empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Accumulator, Ci95ShrinksWithSamples) {
    Accumulator small;
    Accumulator large;
    for (int i = 0; i < 10; ++i) {
        small.add(i % 2);
    }
    for (int i = 0; i < 1000; ++i) {
        large.add(i % 2);
    }
    EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Histogram, RejectsBadConstruction) {
    EXPECT_THROW(Histogram(0.0, 0.0, 10), std::invalid_argument);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BucketsAndClamping) {
    Histogram h(0.0, 10.0, 10);
    h.add(-5.0);   // clamps to first bucket
    h.add(0.5);
    h.add(9.5);
    h.add(100.0);  // clamps to last bucket
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(9), 2u);
}

TEST(Histogram, BucketEdges) {
    Histogram h(0.0, 10.0, 5);
    EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucket_hi(0), 2.0);
    EXPECT_DOUBLE_EQ(h.bucket_lo(4), 8.0);
}

TEST(Histogram, QuantileMedian) {
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i) {
        h.add(i + 0.5);
    }
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
}

TEST(Histogram, QuantileOnEmptyThrows) {
    Histogram h(0.0, 1.0, 4);
    EXPECT_THROW(h.quantile(0.5), std::logic_error);
}

}  // namespace
}  // namespace pqs::util
