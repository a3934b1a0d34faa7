#include "util/stats.h"

#include <cmath>
#include <stdexcept>

namespace pqs::util {

void Accumulator::add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
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

}  // namespace pqs::util
