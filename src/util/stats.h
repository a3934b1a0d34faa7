// Streaming statistics used throughout the simulation study.
#pragma once

#include <cstddef>

namespace pqs::util {

// Welford-style streaming accumulator: mean/variance without storing samples.
class Accumulator {
public:
    void add(double x);

    std::size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }
    double mean() const;
    double variance() const;  // sample variance (n-1 denominator)
    double stddev() const;

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

}  // namespace pqs::util
