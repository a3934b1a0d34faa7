// Streaming statistics used throughout the simulation study: per-metric
// accumulators, histograms, and multi-run summaries with confidence bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pqs::util {

// Welford-style streaming accumulator: mean/variance without storing samples.
class Accumulator {
public:
    void add(double x);
    void merge(const Accumulator& other);

    std::size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }
    double mean() const;
    double variance() const;  // sample variance (n-1 denominator)
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }
    // Half-width of an approximate 95% confidence interval for the mean
    // (normal approximation; fine for the run counts used in the benches).
    double ci95_halfwidth() const;

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

// Fixed-width bucket histogram over [lo, hi); out-of-range samples clamp to
// the first/last bucket so totals are preserved.
class Histogram {
public:
    Histogram(double lo, double hi, std::size_t buckets);

    void add(double x);
    std::size_t bucket_count() const { return counts_.size(); }
    std::size_t count(std::size_t bucket) const { return counts_.at(bucket); }
    std::size_t total() const { return total_; }
    double bucket_lo(std::size_t bucket) const;
    double bucket_hi(std::size_t bucket) const;
    // p in [0, 1]; linear interpolation within the quantile's bucket.
    double quantile(double p) const;

private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

}  // namespace pqs::util
