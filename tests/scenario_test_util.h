// Bit-identity of two scenario results for the determinism tests: every
// scalar of scenario_metrics() and every field of the KernelStats counter
// registry must match exactly.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/scenario.h"
#include "util/kernel_stats.h"

namespace pqs::core {

inline void expect_bit_identical(const ScenarioResult& a,
                                 const ScenarioResult& b,
                                 const std::string& where = "") {
    for (const ScenarioMetric& metric : scenario_metrics()) {
        EXPECT_EQ(metric.get(a), metric.get(b)) << where << metric.name;
    }
    std::size_t count = 0;
    const util::KernelStatsField* fields = util::kernel_stats_fields(&count);
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(fields[i].get(a.kernel), fields[i].get(b.kernel))
            << where << "kernel." << fields[i].name;
    }
}

}  // namespace pqs::core
