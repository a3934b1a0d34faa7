// Fixture: libm range tests and propagation inside a hot-annotated function.
#include <cmath>
#include <iterator>
#include <vector>

namespace geom {
struct Vec2 {
    double x = 0.0;
    double y = 0.0;
    double norm() const { return std::hypot(x, y); }
};
inline double distance(Vec2 a, Vec2 b) { return std::hypot(a.x - b.x, a.y - b.y); }
inline double torus_distance(Vec2 a, Vec2 b, double) { return distance(a, b); }
}  // namespace geom

struct Link {
    // pqs-hot
    void broadcast(geom::Vec2 at, const std::vector<geom::Vec2>& to) {
        for (const geom::Vec2 p : to) {
            if (geom::distance(at, p) <= range) {  // expect-lint: hot-path-libm
                ++heard;
            }
            const double d = std::hypot(p.x - at.x, p.y - at.y);  // expect-lint: hot-path-libm
            power += std::pow(d, -4.0);  // expect-lint: hot-path-libm
            power += std::exp(-d) + std::log10(d);  // expect-lint: hot-path-libm
            power += geom::torus_distance(at, p, 1.0);  // expect-lint: hot-path-libm
            power += geom::Vec2{p.x - at.x, p.y - at.y}.norm();  // expect-lint: hot-path-libm
        }
        // std::distance over iterators is not geometry.
        heard += static_cast<int>(std::distance(to.begin(), to.end()));
    }

    // Not annotated: per-leg and analysis code may call libm.
    double leg_length(geom::Vec2 a, geom::Vec2 b) const {
        return geom::distance(a, b);
    }

    double range = 200.0;
    double power = 0.0;
    int heard = 0;
};
