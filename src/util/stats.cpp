#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pqs::util {

void Accumulator::add(double x) {
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void Accumulator::merge(const Accumulator& other) {
    if (other.count_ == 0) {
        return;
    }
    if (count_ == 0) {
        *this = other;
        return;
    }
    // Chan et al. parallel-merge formulas.
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double Accumulator::mean() const {
    if (count_ == 0) {
        throw std::logic_error("Accumulator::mean on empty accumulator");
    }
    return mean_;
}

double Accumulator::variance() const {
    if (count_ < 2) {
        return 0.0;
    }
    return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const {
    if (count_ == 0) {
        throw std::logic_error("Accumulator::min on empty accumulator");
    }
    return min_;
}

double Accumulator::max() const {
    if (count_ == 0) {
        throw std::logic_error("Accumulator::max on empty accumulator");
    }
    return max_;
}

double Accumulator::ci95_halfwidth() const {
    if (count_ < 2) {
        return 0.0;
    }
    return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
    if (buckets == 0 || !(hi > lo)) {
        throw std::invalid_argument("Histogram: need hi > lo and buckets > 0");
    }
}

void Histogram::add(double x) {
    std::size_t b = 0;
    if (x >= hi_) {
        b = counts_.size() - 1;
    } else if (x > lo_) {
        b = static_cast<std::size_t>((x - lo_) / width_);
        b = std::min(b, counts_.size() - 1);
    }
    ++counts_[b];
    ++total_;
}

double Histogram::bucket_lo(std::size_t bucket) const {
    return lo_ + width_ * static_cast<double>(bucket);
}

double Histogram::bucket_hi(std::size_t bucket) const {
    return bucket_lo(bucket) + width_;
}

double Histogram::quantile(double p) const {
    if (total_ == 0) {
        throw std::logic_error("Histogram::quantile on empty histogram");
    }
    p = std::clamp(p, 0.0, 1.0);
    const double target = p * static_cast<double>(total_);
    double seen = 0.0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        const double next = seen + static_cast<double>(counts_[b]);
        if (next >= target && counts_[b] > 0) {
            const double frac =
                (target - seen) / static_cast<double>(counts_[b]);
            return bucket_lo(b) + frac * width_;
        }
        seen = next;
    }
    return hi_;
}

}  // namespace pqs::util
