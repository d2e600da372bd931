/**
 * @file
 * Batch kernels for the engine hot paths: run classification
 * (uniformPrefix, pairMatchPrefix), per-row counting (countMatches)
 * and BlockHammer's Bloom hashing (bloomHashRows).
 *
 * The kernels are plain scalar loops on purpose: SSE2/AVX2 variants
 * measured within run-to-run noise of them on corpus replay, so one
 * implementation serves every host. What pays is the algorithm built
 * on top — CbsTable::touchRun classifies a whole run once and moves
 * each row's counter in one step — not the vector width of the
 * classification sweep.
 *
 * The module also hosts U64Divisor: exact division/modulo by a runtime
 * invariant divisor via one multiply-high (Barrett reduction with a
 * single conditional correction). The engine uses it to strip the
 * hardware 64-bit divide from per-ACT paths (BlockHammer's Bloom slot
 * modulo, the engine's REF-boundary division) without changing a
 * single result.
 */

#ifndef MITHRIL_COMMON_SIMD_HH
#define MITHRIL_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace mithril::simd
{

/** Name of the kernel implementation, for benchmark host meta. */
inline const char *activeLevelName() { return "scalar"; }

/**
 * Exact unsigned 64-bit division/modulo by an invariant divisor
 * (Barrett): precompute m = floor(2^64 / d) once, then
 *
 *   q_hat = mulhi64(m, x)  is  floor(x/d) or floor(x/d) - 1,
 *
 * fixed by one conditional subtract. Proof sketch: with
 * m*d = 2^64 - e (0 <= e < d) and x = q*d + r,
 * m*x / 2^64 = q + (m*r - q*e) / 2^64, and both |q*e| < 2^64 and
 * m*r < 2^64, so the floor lands on q or q-1. div()/mod() therefore
 * equal the hardware `/` and `%` for every x — tests/test_simd.cc
 * checks them over thousands of divisors including adversarial ones.
 */
struct U64Divisor
{
    std::uint64_t d = 1;
    std::uint64_t m = ~0ull;

    U64Divisor() = default;

    explicit U64Divisor(std::uint64_t divisor) : d(divisor)
    {
        MITHRIL_ASSERT(divisor >= 1);
        // floor(2^64 / d); for d == 1 that overflows to 2^64, and ~0ull
        // (= 2^64 - 1) gives q_hat = x - 1 for x > 0, fixed by the same
        // conditional correction.
        m = (d == 1) ? ~0ull
                     : static_cast<std::uint64_t>(
                           (static_cast<unsigned __int128>(1) << 64) / d);
    }

    std::uint64_t divisor() const { return d; }

    std::uint64_t div(std::uint64_t x) const
    {
        const auto q = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(m) * x) >> 64);
        return q + (x - q * d >= d ? 1 : 0);
    }

    std::uint64_t mod(std::uint64_t x) const
    {
        const auto q = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(m) * x) >> 64);
        const std::uint64_t r = x - q * d;
        return r >= d ? r - d : r;
    }
};

// --------------------------------------------------------------- kernels

/** The 64-bit finalizer both Bloom paths share (splitmix64 tail). */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Length of the longest prefix of v[0..n) equal to `x`. */
inline std::size_t
uniformPrefix(const std::uint32_t *v, std::size_t n, std::uint32_t x)
{
    std::size_t i = 0;
    while (i < n && v[i] == x)
        ++i;
    return i;
}

/** Length of the longest prefix of v[0..n) whose elements are all
 *  `a` or `b` — the CbsTable 2-way cache-hit classifier. */
inline std::size_t
pairMatchPrefix(const std::uint32_t *v, std::size_t n, std::uint32_t a,
                std::uint32_t b)
{
    std::size_t i = 0;
    while (i < n && (v[i] == a || v[i] == b))
        ++i;
    return i;
}

/** Number of elements of v[0..n) equal to `x` — the segment-bulk
 *  paths split a classified pair run into its two per-row totals
 *  with one counting sweep instead of per-element branches. */
inline std::size_t
countMatches(const std::uint32_t *v, std::size_t n, std::uint32_t x)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += (v[i] == x) ? 1 : 0;
    return count;
}

/**
 * BlockHammer's Bloom hash over a block of rows:
 * slots[i*hashes + h] = mix64(rows[i] + seed + K*(h+1)) mod size,
 * with K the 64-bit golden-ratio increment and `size` the CBF slot
 * count as a prepared divisor. Byte-identical to the historical
 * per-row hashSlot() loop.
 */
inline void
bloomHashRows(const RowId *rows, std::size_t n, std::uint64_t seed,
              std::uint32_t hashes, const U64Divisor &size,
              std::uint32_t *slots)
{
    constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t base =
            static_cast<std::uint64_t>(rows[i]) + seed;
        for (std::uint32_t h = 0; h < hashes; ++h) {
            slots[i * hashes + h] = static_cast<std::uint32_t>(
                size.mod(mix64(base + kGolden * (h + 1))));
        }
    }
}

} // namespace mithril::simd

#endif // MITHRIL_COMMON_SIMD_HH
