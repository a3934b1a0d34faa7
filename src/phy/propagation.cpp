#include "phy/propagation.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace pqs::phy {

double dbm_to_mw(double dbm) { return std::pow(10.0, dbm / 10.0); }

double mw_to_dbm(double mw) { return 10.0 * std::log10(mw); }

double PropagationParams::crossover_distance_m() const {
    return 4.0 * std::numbers::pi * antenna_height_m * antenna_height_m /
           wavelength_m;
}

TwoRayLaw::TwoRayLaw(const PropagationParams& p) {
    const double gain = p.tx_power_mw * p.antenna_gain * p.antenna_gain /
                        p.system_loss;
    const double lambda_4pi = p.wavelength_m / (4.0 * std::numbers::pi);
    const double h2 = p.antenna_height_m * p.antenna_height_m;
    const double crossover = p.crossover_distance_m();
    friis_k_ = gain * lambda_4pi * lambda_4pi;
    two_ray_k_ = gain * h2 * h2;
    crossover_sq_ = crossover * crossover;
}

double friis_rx_power_mw(const PropagationParams& p, double distance_m) {
    if (distance_m <= 0.0) {
        throw std::invalid_argument("friis_rx_power_mw: distance must be > 0");
    }
    return TwoRayLaw(p).friis_mw(distance_m * distance_m);
}

double two_ray_rx_power_mw(const PropagationParams& p, double distance_m) {
    if (distance_m <= 0.0) {
        throw std::invalid_argument(
            "two_ray_rx_power_mw: distance must be > 0");
    }
    return TwoRayLaw(p).rx_power_mw(distance_m * distance_m);
}

double two_ray_range_for_threshold(const PropagationParams& p,
                                   double threshold_mw) {
    if (threshold_mw <= 0.0) {
        throw std::invalid_argument(
            "two_ray_range_for_threshold: threshold must be > 0");
    }
    // Invert analytically in each regime and take the consistent branch.
    const double crossover = p.crossover_distance_m();
    const double gain2 = p.antenna_gain * p.antenna_gain;
    // Friis branch: Pr = Pt*G^2*(lambda/(4*pi*d))^2 / L.
    const double friis_d =
        p.wavelength_m / (4.0 * std::numbers::pi) *
        std::sqrt(p.tx_power_mw * gain2 / (threshold_mw * p.system_loss));
    if (friis_d <= crossover) {
        return friis_d;
    }
    // Two-ray branch: Pr = Pt*G^2*ht^2*hr^2 / (d^4 * L).
    const double h2 = p.antenna_height_m * p.antenna_height_m;
    return std::pow(p.tx_power_mw * gain2 * h2 * h2 /
                        (threshold_mw * p.system_loss),
                    0.25);
}

}  // namespace pqs::phy
