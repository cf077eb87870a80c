/// \file fnv1a.hpp
/// \brief `qoc::util` -- the one FNV-1a implementation of the tree.
///
/// Subsystems that once grew their own byte-wise FNV-1a loops (the 1Q
/// Clifford canonical-phase inverse lookup and the service pulse-store key)
/// share this one, so the constants, byte order and word framing can never
/// drift apart: every digest in the tree that feeds a persisted artifact
/// (the pulse store's JSONL) or a cross-run cache key hashes bytes in
/// little-endian word order through this exact loop.
///
/// `Fnv1a` is an incremental hasher; the free functions cover the common
/// one-shot shapes.  All of it is constexpr-friendly and allocation-free.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace qoc::util {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;

/// Incremental 64-bit FNV-1a.  Words are absorbed least-significant byte
/// first (little-endian framing), independent of host endianness.
class Fnv1a {
public:
    constexpr Fnv1a() = default;

    constexpr Fnv1a& byte(std::uint8_t b) noexcept {
        h_ ^= b;
        h_ *= kFnv1aPrime;
        return *this;
    }

    constexpr Fnv1a& u64(std::uint64_t w) noexcept {
        for (int b = 0; b < 8; ++b) byte(static_cast<std::uint8_t>((w >> (8 * b)) & 0xffu));
        return *this;
    }

    constexpr Fnv1a& i64(std::int64_t w) noexcept { return u64(static_cast<std::uint64_t>(w)); }

    /// Absorbs the exact bit pattern of a double (bitwise-equal inputs, and
    /// only those, hash equal).
    Fnv1a& f64_bits(double v) noexcept { return u64(std::bit_cast<std::uint64_t>(v)); }

    constexpr Fnv1a& bytes(std::string_view s) noexcept {
        for (const char c : s) byte(static_cast<std::uint8_t>(c));
        return *this;
    }

    constexpr std::uint64_t digest() const noexcept { return h_; }

private:
    std::uint64_t h_ = kFnv1aOffsetBasis;
};

/// One-shot digest of a byte string.
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
    return Fnv1a{}.bytes(s).digest();
}

/// One-shot digest of a span of 64-bit words (little-endian framing).
constexpr std::uint64_t fnv1a_words(const std::uint64_t* words, std::size_t n) noexcept {
    Fnv1a h;
    for (std::size_t i = 0; i < n; ++i) h.u64(words[i]);
    return h.digest();
}

}  // namespace qoc::util
