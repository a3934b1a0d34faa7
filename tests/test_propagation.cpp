#include "phy/propagation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

namespace pqs::phy {
namespace {

TEST(Units, DbmMwRoundTrip) {
    EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
    EXPECT_NEAR(dbm_to_mw(15.0), 31.6227766, 1e-6);
    EXPECT_NEAR(mw_to_dbm(1.0), 0.0, 1e-12);
    EXPECT_NEAR(mw_to_dbm(dbm_to_mw(-71.0)), -71.0, 1e-9);
}

TEST(Propagation, PaperConstantsAreSelfConsistent) {
    // The paper's PHY table (Fig. 2): 15 dBm TX, -71 dBm RXThresh with a
    // 200 m ideal reception range, -77 dBm CSThresh with a 299 m carrier
    // sensing range. These are mutually consistent under Friis below the
    // two-ray crossover and d^-4 beyond it, with lambda=0.125 m, h=1.5 m.
    const PropagationParams p;
    const RadioThresholds t;

    // 200 m reception range <-> -71 dBm.
    EXPECT_NEAR(mw_to_dbm(two_ray_rx_power_mw(p, 200.0)), -71.0, 0.2);
    // 299 m carrier sense range <-> -77 dBm.
    EXPECT_NEAR(mw_to_dbm(two_ray_rx_power_mw(p, 299.0)), -77.0, 0.2);

    EXPECT_NEAR(two_ray_range_for_threshold(p, t.rx_threshold_mw), 200.0,
                2.0);
    EXPECT_NEAR(two_ray_range_for_threshold(p, t.cs_threshold_mw), 299.0,
                3.0);
    // The channel's law on d^2 meets each threshold at exactly that range.
    const TwoRayLaw law(p);
    for (const double threshold : {t.rx_threshold_mw, t.cs_threshold_mw}) {
        const double r = two_ray_range_for_threshold(p, threshold);
        EXPECT_NEAR(law.rx_power_mw(r * r), threshold, threshold * 1e-12);
    }
}

// The two-ray ground law in closed form, from the distance, in long
// double: Friis below the crossover, min(Friis, d^-4 law) beyond it.
long double closed_form_rx_mw(const PropagationParams& p, double d) {
    const long double pi = std::numbers::pi_v<long double>;
    const long double gain = static_cast<long double>(p.tx_power_mw) *
                             p.antenna_gain * p.antenna_gain / p.system_loss;
    const long double dist = d;
    const long double h2 = static_cast<long double>(p.antenna_height_m) *
                           p.antenna_height_m;
    const long double factor = p.wavelength_m / (4.0L * pi * dist);
    const long double friis = gain * factor * factor;
    if (dist < 4.0L * pi * h2 / p.wavelength_m) {
        return friis;
    }
    return std::min(friis, gain * h2 * h2 / (dist * dist * dist * dist));
}

// Distance in units in the last place of `want`.
double ulps(double got, long double want) {
    const auto w = static_cast<double>(want);
    const double ulp = std::nextafter(w, INFINITY) - w;
    return static_cast<double>(std::fabs(static_cast<long double>(got) -
                                         want)) /
           ulp;
}

TEST(Propagation, FoldedLawMatchesTheClosedForm) {
    const PropagationParams p;
    const TwoRayLaw law(p);
    const double crossover = p.crossover_distance_m();
    std::vector<double> ds;
    for (double d = 0.5; d <= 2000.0; d *= 1.001) {
        ds.push_back(d);
    }
    // Both sides of the crossover, down to single doubles.
    for (const double step : {1e-9, 1e-6, 1e-3, 1.0}) {
        ds.push_back(crossover - step);
        ds.push_back(crossover + step);
    }
    ds.push_back(crossover);
    double worst = 0.0;
    for (const double d : ds) {
        const double got = law.rx_power_mw(d * d);
        worst = std::max(worst, ulps(got, closed_form_rx_mw(p, d)));
        // The distance-taking functions are wrappers over the same law.
        ASSERT_EQ(two_ray_rx_power_mw(p, d), got) << d;
        ASSERT_EQ(friis_rx_power_mw(p, d), law.friis_mw(d * d)) << d;
    }
    EXPECT_LE(worst, 4.0);
}

TEST(Propagation, CrossoverDistance) {
    const PropagationParams p;
    EXPECT_NEAR(p.crossover_distance_m(),
                4.0 * std::numbers::pi * 2.25 / 0.125, 1e-6);
}

TEST(Propagation, FriisInverseSquare) {
    const PropagationParams p;
    const double p1 = friis_rx_power_mw(p, 50.0);
    const double p2 = friis_rx_power_mw(p, 100.0);
    EXPECT_NEAR(p1 / p2, 4.0, 1e-9);
}

TEST(Propagation, TwoRayInverseFourthBeyondCrossover) {
    const PropagationParams p;
    const double d = p.crossover_distance_m() + 100.0;
    const double p1 = two_ray_rx_power_mw(p, d);
    const double p2 = two_ray_rx_power_mw(p, 2.0 * d);
    EXPECT_NEAR(p1 / p2, 16.0, 1e-9);
}

TEST(Propagation, MonotonicallyDecreasing) {
    const PropagationParams p;
    double prev = two_ray_rx_power_mw(p, 1.0);
    for (double d = 5.0; d < 1500.0; d += 5.0) {
        const double cur = two_ray_rx_power_mw(p, d);
        EXPECT_LE(cur, prev) << "at distance " << d;
        prev = cur;
    }
}

TEST(Propagation, MatchesFriisBelowCrossover) {
    const PropagationParams p;
    EXPECT_DOUBLE_EQ(two_ray_rx_power_mw(p, 100.0),
                     friis_rx_power_mw(p, 100.0));
}

TEST(Propagation, InvalidArguments) {
    const PropagationParams p;
    EXPECT_THROW(friis_rx_power_mw(p, 0.0), std::invalid_argument);
    EXPECT_THROW(two_ray_rx_power_mw(p, -1.0), std::invalid_argument);
    EXPECT_THROW(two_ray_range_for_threshold(p, 0.0), std::invalid_argument);
}

TEST(Propagation, RangeForThresholdInverts) {
    const PropagationParams p;
    for (const double d : {50.0, 150.0, 250.0, 400.0, 800.0}) {
        const double pw = two_ray_rx_power_mw(p, d);
        EXPECT_NEAR(two_ray_range_for_threshold(p, pw), d, d * 0.02);
    }
}

TEST(Propagation, HigherPowerLongerRange) {
    PropagationParams lo;
    PropagationParams hi;
    hi.tx_power_mw = lo.tx_power_mw * 10.0;
    const RadioThresholds t;
    EXPECT_GT(two_ray_range_for_threshold(hi, t.rx_threshold_mw),
              two_ray_range_for_threshold(lo, t.rx_threshold_mw));
}

}  // namespace
}  // namespace pqs::phy
