// Signal propagation models matching the paper's PHY table (Fig. 2):
// two-ray ground reflection with a free-space (Friis) region below the
// crossover distance, 15 dBm transmit power, -71 dBm receive threshold
// (=> 200 m ideal reception range) and -77 dBm carrier-sense threshold
// (=> 299 m carrier-sensing range).
#pragma once

namespace pqs::phy {

// dBm <-> milliwatt conversions.
double dbm_to_mw(double dbm);
double mw_to_dbm(double mw);

struct PropagationParams {
    double tx_power_mw = 31.6227766;   // 15 dBm
    double antenna_gain = 1.0;         // 0 dB TX and RX gain
    double wavelength_m = 0.125;       // ~2.4 GHz
    double antenna_height_m = 1.5;     // both TX and RX
    double system_loss = 1.0;

    // Distance beyond which the two-ray d^-4 regime applies:
    // d_c = 4*pi*ht*hr / lambda  (~226 m with the defaults).
    double crossover_distance_m() const;
};

// The two-ray ground law on the squared distance d^2 (m^2): Friis,
// Pt*Gt*Gr*lambda^2/((4*pi)^2*L*d^2), below the crossover distance, and
// beyond it Pt*Gt*Gr*ht^2*hr^2/(L*d^4), capped by Friis so that power never
// grows with distance (the raw law can exceed Friis just past the
// crossover). Both constants and the squared crossover are computed once,
// so a caller holding a displacement needs no square root and no libm.
class TwoRayLaw {
public:
    explicit TwoRayLaw(const PropagationParams& p);

    // Free-space received power (mW) at squared distance d_sq > 0.
    double friis_mw(double d_sq) const { return friis_k_ / d_sq; }

    // Two-ray ground received power (mW) at squared distance d_sq > 0.
    double rx_power_mw(double d_sq) const {
        const double friis = friis_mw(d_sq);
        if (d_sq < crossover_sq_) {
            return friis;
        }
        const double two_ray = two_ray_k_ / (d_sq * d_sq);
        return two_ray < friis ? two_ray : friis;
    }

private:
    double friis_k_;       // Pt*Gt*Gr*lambda^2 / ((4*pi)^2 * L)
    double two_ray_k_;     // Pt*Gt*Gr*ht^2*hr^2 / L
    double crossover_sq_;  // d_c^2
};

// Received power (mW) at distance d (m) under free-space (Friis); a
// wrapper over TwoRayLaw for callers that hold a distance.
double friis_rx_power_mw(const PropagationParams& p, double distance_m);

// Received power (mW) at distance d (m) under two-ray ground; a wrapper
// over TwoRayLaw::rx_power_mw(d * d).
double two_ray_rx_power_mw(const PropagationParams& p, double distance_m);

// Distance (m) at which two-ray received power falls to `threshold_mw`.
double two_ray_range_for_threshold(const PropagationParams& p,
                                   double threshold_mw);

struct RadioThresholds {
    double rx_threshold_mw = 7.9432e-8;   // -71 dBm: minimum to decode
    double cs_threshold_mw = 1.9952e-8;   // -77 dBm: carrier sense
    double noise_floor_mw = 8.0080e-11;   // -101 dBm thermal noise
    double sinr_capture = 10.0;           // beta
};

}  // namespace pqs::phy
