// Fixture: a hot-annotated function that decides range on the squared
// distance and takes received power from precomputed constants, so no
// libm call runs per reception.
#include <vector>

namespace geom {
struct Vec2 {
    double x = 0.0;
    double y = 0.0;
    double norm_sq() const { return x * x + y * y; }
};
inline double distance_sq(Vec2 a, Vec2 b) {
    return Vec2{a.x - b.x, a.y - b.y}.norm_sq();
}
inline bool in_range(Vec2 a, Vec2 b, double r) {
    return distance_sq(a, b) <= r * r;
}
}  // namespace geom

struct Channel {
    // pqs-hot
    void transmit(geom::Vec2 at, const std::vector<geom::Vec2>& to) {
        for (const geom::Vec2 p : to) {
            if (!geom::in_range(at, p, cutoff)) {
                continue;
            }
            const double d_sq = geom::distance_sq(at, p);
            power += friis_k / d_sq;
        }
    }

    double cutoff = 400.0;
    double friis_k = 1e-3;
    double power = 0.0;
};
