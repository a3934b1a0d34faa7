// Values of the paper's read/write register (§2.5 strict semantics,
// §10): a version and a payload packed into one store Value, plus the
// version-base rule of a collected lookup. The two-phase register protocol
// that uses them runs per key in svc::KvService.
#pragma once

#include <cstdint>

#include "core/biquorum.h"

namespace pqs::core {

// A register value: 32-bit version in the high bits, 32-bit payload in the
// low bits — numeric order == version order, which is exactly what the
// monotonic store compares.
struct Versioned {
    std::uint32_t version = 0;
    std::uint32_t data = 0;

    friend bool operator==(const Versioned&, const Versioned&) = default;
};

// The last representable version. A write that would need kMaxVersion + 1
// must fail with KvWriteResult::overflow instead of wrapping to 0: a wrapped
// write packs below every existing value, so the monotonic store would
// silently discard it — or, worse, clobber data on nodes that never saw
// the high-version value.
inline constexpr std::uint32_t kMaxVersion = 0xffffffffu;

constexpr Value pack(Versioned v) {
    return (static_cast<Value>(v.version) << 32) | v.data;
}

constexpr Versioned unpack(Value value) {
    return Versioned{static_cast<std::uint32_t>(value >> 32),
                     static_cast<std::uint32_t>(value & 0xffffffffULL)};
}

// Highest version among trustworthy replies of a collected lookup: all of
// them at b = 0, only values with > b concurring replies under b-masking
// (a forged reply can carry an arbitrarily high version).
Versioned highest_versioned(const AccessResult& r, std::size_t b);

}  // namespace pqs::core
