// Branch-free lower bound over a sorted array: the one binary search of
// the per-packet paths (hello rows, AODV route tables). Each step is a
// conditional move, not a branch, so a stream of unrelated keys costs no
// mispredictions; the probe sequence depends only on the array's length.
#pragma once

namespace pqs::util {

// Index of the first element of `first[0, count)` whose key is not below
// `key` (count when there is none), for an array sorted ascending by
// `key_of(element)`. Same answer as std::lower_bound; the index has the
// type of `count`.
template <class T, class Size, class Key, class KeyOf>
Size branchless_lower_bound(const T* first, Size count, const Key& key,
                            KeyOf key_of) {
    if (count == 0) {
        return 0;
    }
    const T* base = first;
    while (count > 1) {
        const Size half = count / 2;
        base = key_of(base[half]) < key ? base + half : base;
        count -= half;
    }
    return static_cast<Size>(base - first) + (key_of(*base) < key ? 1 : 0);
}

// The same search over an array of keys.
template <class T, class Size>
Size branchless_lower_bound(const T* first, Size count, const T& key) {
    return branchless_lower_bound(first, count, key,
                                  [](const T& v) -> const T& { return v; });
}

}  // namespace pqs::util
