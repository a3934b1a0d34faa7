// 2-D points/vectors and the two distance metrics used in the paper:
// the flat plane (simulations) and the unit torus (formal RGG analysis).
#pragma once

#include <cmath>

namespace pqs::geom {

struct Vec2 {
    double x = 0.0;
    double y = 0.0;

    friend constexpr Vec2 operator+(Vec2 a, Vec2 b) {
        return {a.x + b.x, a.y + b.y};
    }
    friend constexpr Vec2 operator-(Vec2 a, Vec2 b) {
        return {a.x - b.x, a.y - b.y};
    }
    friend constexpr Vec2 operator*(Vec2 a, double s) {
        return {a.x * s, a.y * s};
    }
    friend constexpr Vec2 operator*(double s, Vec2 a) { return a * s; }
    friend constexpr bool operator==(Vec2, Vec2) = default;

    double norm() const { return std::hypot(x, y); }
    constexpr double norm_sq() const { return x * x + y * y; }
};

inline double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }
inline double distance_sq(Vec2 a, Vec2 b) { return (a - b).norm_sq(); }

// The plane's one "is b in range of a" test: |a - b| <= r, decided on the
// squared distance, so no caller takes a square root. Symmetric, since
// a - b is exactly -(b - a). Grid queries, World::nodes_within and the
// abstract link's delivery checks all decide reception with it.
inline bool in_range(Vec2 a, Vec2 b, double r) {
    return distance_sq(a, b) <= r * r;
}

// Shortest-displacement distance on a side×side torus.
inline double torus_distance(Vec2 a, Vec2 b, double side) {
    double dx = std::fabs(a.x - b.x);
    double dy = std::fabs(a.y - b.y);
    if (dx > side / 2.0) dx = side - dx;
    if (dy > side / 2.0) dy = side - dy;
    return std::hypot(dx, dy);
}

enum class Metric { kPlane, kTorus };

}  // namespace pqs::geom
