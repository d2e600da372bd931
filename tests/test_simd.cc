/**
 * @file
 * Pins the engine's batch kernels (common/simd.hh) to independently
 * computed expected values: U64Divisor against the hardware `/` and
 * `%`, the prefix/count kernels against hand-placed mismatches and
 * counts across sizes 0..130 and 4096 with misaligned heads, and
 * bloomHashRows against the mix64 formula. On top of the raw kernels
 * it pins CbsTable::touchRun (including the segment-bulk path)
 * against a touch() loop, plus the cache-line padding guarantees the
 * sharded engine relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/simd.hh"
#include "core/cbs_table.hh"
#include "engine/sharded_engine.hh"
#include "registry/scheme_registry.hh"

namespace mithril
{
namespace
{

// ------------------------------------------------------------ U64Divisor

TEST(U64Divisor, MatchesHardwareDivModEverywhere)
{
    std::vector<std::uint64_t> divisors;
    for (std::uint64_t d = 1; d <= 4096; ++d)
        divisors.push_back(d);
    for (std::uint32_t k = 1; k < 64; ++k) {
        const std::uint64_t p = 1ull << k;
        divisors.push_back(p);
        divisors.push_back(p - 1);
        divisors.push_back(p + 1);
    }
    Rng rng(0xd1b1d3ull);
    for (int i = 0; i < 64; ++i)
        divisors.push_back(rng.next() | 1);

    for (const std::uint64_t d : divisors) {
        const simd::U64Divisor div(d);
        std::vector<std::uint64_t> xs = {0,     1,      d - 1, d,
                                         d + 1, 2 * d, ~0ull, ~0ull - 1};
        for (int i = 0; i < 64; ++i)
            xs.push_back(rng.next());
        for (const std::uint64_t x : xs) {
            ASSERT_EQ(div.div(x), x / d) << "x=" << x << " d=" << d;
            ASSERT_EQ(div.mod(x), x % d) << "x=" << x << " d=" << d;
        }
    }
}

// --------------------------------------------------- prefix/count kernels

/** Every short size plus one long buffer. */
std::vector<std::size_t>
kernelSizes()
{
    std::vector<std::size_t> sizes;
    for (std::size_t n = 0; n <= 130; ++n)
        sizes.push_back(n);
    sizes.push_back(4096);
    return sizes;
}

TEST(SimdKernels, UniformPrefixStopsAtFirstMismatch)
{
    constexpr std::uint32_t kX = 0xabcd1234u;
    for (const std::size_t n : kernelSizes()) {
        // Misaligned heads: offset the window into the buffer.
        for (std::size_t off = 0; off < 4; ++off) {
            std::vector<std::uint32_t> buf(off + n + 8, kX);
            const std::uint32_t *v = buf.data() + off;
            ASSERT_EQ(simd::uniformPrefix(v, n, kX), n)
                << "all-match n=" << n << " off=" << off;
            // A mismatch at every possible position.
            for (std::size_t miss = 0; miss < n;
                 miss += (n > 40 ? 7 : 1)) {
                buf[off + miss] = kX + 1;
                ASSERT_EQ(simd::uniformPrefix(v, n, kX), miss)
                    << "n=" << n << " off=" << off;
                buf[off + miss] = kX;
            }
        }
    }
}

TEST(SimdKernels, PairMatchPrefixStopsAtFirstForeignValue)
{
    constexpr std::uint32_t kA = 7u, kB = 0xffff0000u;
    Rng rng(0x9a12);
    for (const std::size_t n : kernelSizes()) {
        for (std::size_t off = 0; off < 4; ++off) {
            std::vector<std::uint32_t> buf(off + n + 8);
            for (auto &x : buf)
                x = (rng.next() & 1) ? kA : kB;
            const std::uint32_t *v = buf.data() + off;
            ASSERT_EQ(simd::pairMatchPrefix(v, n, kA, kB), n);
            for (std::size_t miss = 0; miss < n;
                 miss += (n > 40 ? 7 : 1)) {
                const std::uint32_t old = buf[off + miss];
                buf[off + miss] = kA ^ kB;  // neither way
                ASSERT_EQ(simd::pairMatchPrefix(v, n, kA, kB), miss)
                    << "n=" << n << " off=" << off;
                buf[off + miss] = old;
            }
        }
    }
}

TEST(SimdKernels, CountMatchesCountsEveryMatch)
{
    constexpr std::uint32_t kX = 42u;
    Rng rng(0xc0de);
    for (const std::size_t n : kernelSizes()) {
        for (std::size_t off = 0; off < 4; ++off) {
            std::vector<std::uint32_t> buf(off + n + 8, kX);
            std::size_t expected = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const bool match = rng.next() & 1;
                buf[off + i] = match ? kX : kX + 1 + (i & 7);
                expected += match;
            }
            // The kX padding past n must not be counted.
            const std::uint32_t *v = buf.data() + off;
            ASSERT_EQ(simd::countMatches(v, n, kX), expected)
                << "n=" << n << " off=" << off;
        }
    }
}

// ----------------------------------------------------------- bloom hash

TEST(SimdKernels, BloomHashRowsMatchesFormula)
{
    constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
    const std::uint64_t seed = 0xfeedface;
    Rng rng(0xb100f);
    for (const std::uint32_t hashes : {1u, 2u, 4u, 5u}) {
        for (const std::uint64_t size : {17ull, 1024ull, 16384ull}) {
            const simd::U64Divisor div(size);
            for (const std::size_t n :
                 {std::size_t{0}, std::size_t{1}, std::size_t{7},
                  std::size_t{64}, std::size_t{257}}) {
                std::vector<RowId> rows(n);
                for (auto &r : rows)
                    r = static_cast<RowId>(rng.next());

                // One guard slot past the end must stay untouched.
                std::vector<std::uint32_t> out(n * hashes + 1,
                                               0xbeefu);
                simd::bloomHashRows(rows.data(), n, seed, hashes, div,
                                    out.data());
                for (std::size_t i = 0; i < n; ++i)
                    for (std::uint32_t h = 0; h < hashes; ++h)
                        ASSERT_EQ(
                            out[i * hashes + h],
                            simd::mix64(rows[i] + seed +
                                        kGolden * (h + 1)) %
                                size)
                            << "hashes=" << hashes << " size=" << size;
                ASSERT_EQ(out.back(), 0xbeefu);
            }
        }
    }
}

// ------------------------------------------------- CbsTable::touchRun

/** Reference semantics: touch() one row at a time, honouring the
 *  divisor stop exactly as documented on touchRun(). */
std::size_t
touchLoopReference(core::CbsTable &t, const RowId *rows, std::size_t n,
                   std::uint64_t divisor, bool *hit)
{
    *hit = false;
    std::size_t i = 0;
    while (i < n) {
        const std::uint64_t est = t.touch(rows[i]);
        ++i;
        if (divisor != 0 && est % divisor == 0) {
            *hit = true;
            break;
        }
    }
    return i;
}

/** Full observable state, including intra-bucket head order: drain
 *  the table with resetMaxToMin(), which reads each bucket's head. */
struct TableFingerprint
{
    std::vector<core::CbsTable::Entry> entries;
    std::vector<RowId> drainOrder;
    std::uint64_t touches, inserts, evictions;

    bool
    operator==(const TableFingerprint &o) const
    {
        auto same = [](const core::CbsTable::Entry &a,
                       const core::CbsTable::Entry &b) {
            return a.row == b.row && a.count == b.count;
        };
        return touches == o.touches && inserts == o.inserts &&
               evictions == o.evictions &&
               drainOrder == o.drainOrder &&
               std::equal(entries.begin(), entries.end(),
                          o.entries.begin(), o.entries.end(), same);
    }
};

TableFingerprint
fingerprint(core::CbsTable &t)
{
    TableFingerprint fp;
    fp.entries = t.entries();
    std::sort(fp.entries.begin(), fp.entries.end(),
              [](const auto &a, const auto &b) {
                  return a.row < b.row;
              });
    fp.touches = t.touches();
    fp.inserts = t.inserts();
    fp.evictions = t.evictions();
    // maxRow() is the head of the max bucket; resetMaxToMin() then
    // reshuffles it downward. Interleaving the two while counts drain
    // observes the head order of every bucket the walk passes.
    for (int i = 0; i < 64; ++i) {
        fp.drainOrder.push_back(t.maxRow());
        if (t.resetMaxToMin() == kInvalidRow)
            break;
    }
    return fp;
}

TEST(CbsTouchRun, MatchesTouchLoopAtEveryDivisor)
{
    // Streams chosen to exercise every touchRun path: long uniform
    // and alternating-pair runs (the bulk path), way misses and
    // evictions (capacity pressure), and short segments.
    Rng rng(0x7ab1e);
    std::vector<std::vector<RowId>> streams;
    {
        std::vector<RowId> s;  // double-sided hammer, bulk heavy
        for (int i = 0; i < 3000; ++i)
            s.push_back(2000 + 2 * (i & 1));
        streams.push_back(s);
    }
    {
        std::vector<RowId> s;  // long uniform runs with row changes
        for (int r = 0; r < 24; ++r)
            for (int i = 0; i < 100 + r; ++i)
                s.push_back(100 + r);
        streams.push_back(s);
    }
    {
        std::vector<RowId> s;  // eviction churn: universe >> capacity
        for (int i = 0; i < 4000; ++i)
            s.push_back(static_cast<RowId>(rng.nextBounded(40)));
        streams.push_back(s);
    }
    {
        std::vector<RowId> s;  // mixed: bursts of pairs, then churn
        for (int b = 0; b < 40; ++b) {
            const RowId r0 = static_cast<RowId>(rng.nextBounded(64));
            const RowId r1 = static_cast<RowId>(rng.nextBounded(64));
            for (int i = 0; i < 1 + static_cast<int>(
                                    rng.nextBounded(70));
                 ++i)
                s.push_back((i & 1) ? r1 : r0);
        }
        streams.push_back(s);
    }

    for (const std::uint64_t divisor : {0ull, 1ull, 3ull, 7ull}) {
        for (std::size_t si = 0; si < streams.size(); ++si) {
            const auto &stream = streams[si];
            core::CbsTable ref(16);
            std::vector<std::pair<std::size_t, bool>> refStops;
            {
                std::size_t pos = 0;
                while (pos < stream.size()) {
                    bool hit = false;
                    pos += touchLoopReference(
                        ref, stream.data() + pos,
                        stream.size() - pos, divisor, &hit);
                    refStops.emplace_back(pos, hit);
                }
            }
            const TableFingerprint want = fingerprint(ref);

            core::CbsTable t(16);
            std::vector<std::pair<std::size_t, bool>> stops;
            std::size_t pos = 0;
            while (pos < stream.size()) {
                bool hit = false;
                pos += t.touchRun(stream.data() + pos,
                                  stream.size() - pos, divisor, &hit);
                stops.emplace_back(pos, hit);
                ASSERT_TRUE(t.checkInvariants())
                    << "divisor=" << divisor << " pos=" << pos;
            }
            ASSERT_EQ(stops, refStops)
                << "stream=" << si << " divisor=" << divisor;
            ASSERT_TRUE(fingerprint(t) == want)
                << "stream=" << si << " divisor=" << divisor;
        }
    }
}

// ----------------------------------------------------- padding checks

constexpr std::uint32_t kBanks = 16;
constexpr std::uint32_t kFlipTh = 3125;

engine::EngineConfig
testEngineConfig()
{
    dram::Geometry geom = dram::paperGeometry();
    geom.channels = 1;
    geom.ranksPerChannel = 1;
    geom.banksPerRank = kBanks;
    engine::EngineConfig cfg;
    cfg.timing = dram::ddr5_4800();
    cfg.geometry = geom;
    cfg.flipTh = kFlipTh;
    return cfg;
}

TEST(Padding, CbsTableHotStateIsCacheLineAligned)
{
    for (const std::uint32_t n : {1u, 4u, 32u, 512u, 1000u}) {
        core::CbsTable t(n);
        EXPECT_TRUE(t.hotStateCacheAligned()) << "entries=" << n;
    }
}

TEST(Padding, ShardSlotsNeverShareACacheLine)
{
    const engine::EngineConfig ecfg = testEngineConfig();
    for (const std::uint32_t shards : {1u, 2u, 4u, kBanks}) {
        engine::ShardedEngineConfig cfg;
        cfg.engine = ecfg;
        cfg.shards = shards;
        engine::ShardedActStreamEngine eng(cfg, [&] {
            registry::SchemeKnobs knobs;
            knobs.flipTh = kFlipTh;
            return registry::makeScheme(
                "mithril", knobs.toParams(),
                {ecfg.timing, ecfg.geometry});
        });
        EXPECT_TRUE(eng.shardSlotsCacheAligned())
            << "shards=" << shards;
    }
}

} // namespace
} // namespace mithril
