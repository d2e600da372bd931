/**
 * @file
 * Tests for the workload generators: determinism, footprint
 * containment, the lbm-style row-concentration property behind
 * Figure 8, multithreaded sharing, and attack-pattern aim.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mc/address_map.hh"
#include "registry/workload_registry.hh"
#include "workload/attacks.hh"
#include "workload/multithreaded.hh"
#include "workload/spec_like.hh"

namespace mithril::workload
{
namespace
{

SyntheticParams
baseParams()
{
    SyntheticParams p;
    p.base = 1ull << 30;
    p.footprint = 16ull << 20;
    p.meanGap = 10.0;
    p.seed = 77;
    return p;
}

template <typename Gen>
void
expectDeterministic(Gen &a, Gen &b, int n = 1000)
{
    for (int i = 0; i < n; ++i) {
        auto ra = a.next();
        auto rb = b.next();
        ASSERT_TRUE(ra.has_value());
        ASSERT_TRUE(rb.has_value());
        ASSERT_EQ(ra->addr, rb->addr);
        ASSERT_EQ(ra->gap, rb->gap);
        ASSERT_EQ(ra->write, rb->write);
    }
}

TEST(SpecLike, GeneratorsAreDeterministic)
{
    auto p = baseParams();
    {
        StreamSweepGen a(p), b(p);
        expectDeterministic(a, b);
    }
    {
        PointerChaseGen a(p), b(p);
        expectDeterministic(a, b);
    }
    {
        ZipfGen a(p), b(p);
        expectDeterministic(a, b);
    }
    {
        ComputeGen a(p), b(p);
        expectDeterministic(a, b);
    }
}

TEST(SpecLike, AddressesStayInFootprint)
{
    auto p = baseParams();
    StreamSweepGen sweep(p);
    PointerChaseGen chase(p);
    ZipfGen zipf(p);
    ComputeGen compute(p);
    TraceGenerator *gens[] = {&sweep, &chase, &zipf, &compute};
    for (auto *gen : gens) {
        for (int i = 0; i < 5000; ++i) {
            auto r = gen->next();
            ASSERT_TRUE(r.has_value());
            ASSERT_GE(r->addr, p.base) << gen->name();
            ASSERT_LT(r->addr, p.base + p.footprint) << gen->name();
            ASSERT_EQ(r->addr % 64, 0u) << gen->name();
            ASSERT_GE(r->gap, 1u);
        }
    }
}

TEST(SpecLike, LimitEndsTheTrace)
{
    auto p = baseParams();
    p.limit = 10;
    PointerChaseGen gen(p);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(gen.next().has_value());
    EXPECT_FALSE(gen.next().has_value());
}

TEST(SpecLike, StreamSweepShowsFigure8Concentration)
{
    // The lbm pattern: inside a small window, accesses concentrate on
    // few rows (~128 lines per 8KB row); over the whole run they cover
    // a large footprint.
    auto p = baseParams();
    p.footprint = 64ull << 20;
    StreamSweepGen gen(p, 2ull << 20);

    std::set<Addr> windows_rows;
    std::set<Addr> all_rows;
    int window_count = 0;
    double mean_rows_per_window = 0.0;
    for (int w = 0; w < 50; ++w) {
        windows_rows.clear();
        for (int i = 0; i < 256; ++i) {
            auto r = gen.next();
            windows_rows.insert(r->addr / 8192);
            all_rows.insert(r->addr / 8192);
        }
        mean_rows_per_window += static_cast<double>(
            windows_rows.size());
        ++window_count;
    }
    mean_rows_per_window /= window_count;
    // 256 consecutive accesses land in very few 8KB rows...
    EXPECT_LT(mean_rows_per_window, 8.0);
    // ...yet the run covers many distinct rows overall.
    EXPECT_GT(all_rows.size(), 40u);
}

TEST(SpecLike, PointerChaseHasLowRowLocality)
{
    auto p = baseParams();
    p.footprint = 64ull << 20;
    PointerChaseGen gen(p);
    std::set<Addr> rows;
    for (int i = 0; i < 256; ++i)
        rows.insert(gen.next()->addr / 8192);
    EXPECT_GT(rows.size(), 200u);
}

TEST(SpecLike, ZipfConcentratesOnHotLines)
{
    auto p = baseParams();
    ZipfGen gen(p, 1.1);
    std::map<Addr, int> counts;
    for (int i = 0; i < 20000; ++i)
        ++counts[gen.next()->addr];
    int max_count = 0;
    for (const auto &[addr, c] : counts)
        max_count = std::max(max_count, c);
    // The hottest line dominates far beyond uniform.
    EXPECT_GT(max_count, 200);
}

TEST(SpecLike, ComputeGenHasLargeGaps)
{
    auto p = baseParams();
    p.meanGap = 30.0;
    ComputeGen gen(p);
    double sum = 0.0;
    for (int i = 0; i < 5000; ++i)
        sum += static_cast<double>(gen.next()->gap);
    EXPECT_GT(sum / 5000.0, 200.0);  // ~12x the base gap.
}

TEST(SpecLike, GupsPairsReadWithWriteback)
{
    auto p = baseParams();
    GupsGen gen(p);
    for (int i = 0; i < 1000; ++i) {
        auto rd = gen.next();
        auto wr = gen.next();
        ASSERT_TRUE(rd && wr);
        EXPECT_FALSE(rd->write);
        EXPECT_TRUE(wr->write);
        EXPECT_EQ(rd->addr, wr->addr);  // Read-modify-write pair.
        EXPECT_EQ(wr->gap, 2u);         // Dependent write.
    }
}

TEST(SpecLike, GupsHasNoLocality)
{
    auto p = baseParams();
    p.footprint = 64ull << 20;
    GupsGen gen(p);
    std::set<Addr> rows;
    for (int i = 0; i < 512; ++i)
        rows.insert(gen.next()->addr / 8192);
    EXPECT_GT(rows.size(), 200u);
}

TEST(SpecLike, StencilInterleavesStreams)
{
    auto p = baseParams();
    StencilGen gen(p, 4);
    // 5 streams (4 read planes + 1 write): one iteration = 5 records;
    // the 5th is the write and all 5 addresses are distinct.
    std::set<Addr> addrs;
    for (int i = 0; i < 5; ++i) {
        auto rec = gen.next();
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->write, i == 4);
        addrs.insert(rec->addr);
    }
    EXPECT_EQ(addrs.size(), 5u);
}

TEST(SpecLike, StencilStreamsAdvanceSequentially)
{
    auto p = baseParams();
    StencilGen gen(p, 2);
    // Stream 0's consecutive visits are one line apart.
    auto first = gen.next();   // stream 0, line 0
    gen.next();                // stream 1
    gen.next();                // write stream
    auto second = gen.next();  // stream 0, line 1
    EXPECT_EQ(second->addr, first->addr + 64);
}

TEST(Multithreaded, ThreadsSharePartitionsAcrossPhases)
{
    MtParams p;
    p.base = 0;
    p.footprint = 64ull << 20;
    p.threads = 4;
    p.phaseLines = 64;
    PartitionedSweepGen t0(p, 0);

    // Across enough phases, thread 0 visits every partition.
    std::set<std::uint64_t> partitions;
    const std::uint64_t part_bytes = p.footprint / p.threads;
    for (int i = 0; i < 64 * 8; ++i)
        partitions.insert(t0.next()->addr / part_bytes);
    EXPECT_EQ(partitions.size(), 4u);
}

TEST(Multithreaded, PageRankMixesScanAndGather)
{
    MtParams p;
    p.base = 0;
    p.footprint = 64ull << 20;
    p.threads = 4;
    PageRankGen gen(p, 1);
    int scans = 0, gathers = 0;
    for (int i = 0; i < 8000; ++i) {
        auto r = gen.next();
        if (r->addr < p.footprint / 2)
            ++scans;
        else
            ++gathers;
    }
    EXPECT_GT(scans, 4000);
    EXPECT_GT(gathers, 500);
}

class AttackTest : public ::testing::Test
{
  protected:
    dram::Geometry geom_ = dram::paperGeometry();
    mc::AddressMap map_{geom_};

    AttackTarget
    target()
    {
        AttackTarget t;
        t.map = &map_;
        t.channel = 1;
        t.rank = 0;
        t.bank = 9;
        t.baseRow = 5000;
        return t;
    }

    mc::Request
    decode(Addr addr)
    {
        mc::Request req;
        req.addr = addr;
        map_.decode(req);
        return req;
    }
};

TEST_F(AttackTest, DoubleSidedAlternatesAggressors)
{
    DoubleSidedAttack gen(target());
    auto a = gen.next();
    auto b = gen.next();
    auto c = gen.next();
    EXPECT_EQ(decode(a->addr).row, 5000u);
    EXPECT_EQ(decode(b->addr).row, 5002u);
    EXPECT_EQ(decode(c->addr).row, 5000u);
    EXPECT_TRUE(a->uncached);
    EXPECT_EQ(gen.victimRow(), 5001u);
}

TEST_F(AttackTest, AllAttackTrafficHitsTargetBank)
{
    DoubleSidedAttack ds(target());
    MultiSidedAttack ms(target(), 32);
    RfmOptimalAttack ro(target(), 64);
    CbfPollutionAttack cp(target(), 128);
    TraceGenerator *gens[] = {&ds, &ms, &ro, &cp};
    const BankId expect = map_.flatBank(1, 0, 9);
    for (auto *gen : gens) {
        for (int i = 0; i < 500; ++i) {
            auto r = gen->next();
            ASSERT_TRUE(r.has_value());
            ASSERT_EQ(decode(r->addr).bank, expect) << gen->name();
            ASSERT_TRUE(r->uncached);
        }
    }
}

TEST_F(AttackTest, MultiSidedCoversAllAggressors)
{
    MultiSidedAttack gen(target(), 32);
    std::set<RowId> rows;
    for (int i = 0; i < 33; ++i)
        rows.insert(decode(gen.next()->addr).row);
    EXPECT_EQ(rows.size(), 33u);  // 33 aggressors for 32 victims.
    EXPECT_EQ(*rows.begin(), 5000u);
    EXPECT_EQ(*rows.rbegin(), 5000u + 64u);
}

TEST_F(AttackTest, RfmOptimalOneActPerRowPerPass)
{
    RfmOptimalAttack gen(target(), 16);
    std::map<RowId, int> counts;
    for (int i = 0; i < 16 * 3; ++i)
        ++counts[decode(gen.next()->addr).row];
    EXPECT_EQ(counts.size(), 16u);
    for (const auto &[row, c] : counts)
        EXPECT_EQ(c, 3);
}

TEST_F(AttackTest, ConcentrationDrivesAllRowsThenFocusesPair)
{
    const std::uint32_t threshold = 10, rows = 5;
    ConcentrationAttack gen(target(), threshold, rows);
    std::map<RowId, int> phase1;
    for (std::uint32_t i = 0; i < threshold * rows; ++i)
        ++phase1[decode(gen.next()->addr).row];
    EXPECT_EQ(phase1.size(), rows);
    for (const auto &[row, c] : phase1)
        EXPECT_EQ(c, static_cast<int>(threshold));

    // Phase 2: only the last pair.
    std::set<RowId> phase2;
    for (int i = 0; i < 20; ++i)
        phase2.insert(decode(gen.next()->addr).row);
    EXPECT_EQ(phase2.size(), 2u);
    EXPECT_EQ(gen.finalVictim(), 5000u + 2 * (rows - 1) - 1);
}

TEST_F(AttackTest, CbfPollutionAlternatesWithinBurst)
{
    CbfPollutionAttack gen(target(), 64, 4);
    // Within a burst, consecutive records alternate two rows so each
    // forces a fresh activation.
    auto a = gen.next();
    auto b = gen.next();
    EXPECT_NE(decode(a->addr).row, decode(b->addr).row);
}

TEST(WorkloadSuite, BuildsEveryThread)
{
    for (const std::string &name :
         registry::workloadRegistry().names()) {
        for (std::uint32_t i = 0; i < 16; ++i) {
            auto gen = registry::makeWorkload(name, {}, {i, 16, 1});
            ASSERT_NE(gen, nullptr) << name;
            auto r = gen->next();
            ASSERT_TRUE(r.has_value());
        }
    }
}

TEST(WorkloadSuite, MultiProgrammedFootprintsAreDisjoint)
{
    auto g0 = registry::makeWorkload("mix-high", {}, {0, 16, 1});
    auto g5 = registry::makeWorkload("mix-high", {}, {5, 16, 1});
    Addr min0 = ~0ull, max0 = 0, min5 = ~0ull, max5 = 0;
    for (int i = 0; i < 2000; ++i) {
        const Addr a0 = g0->next()->addr;
        const Addr a5 = g5->next()->addr;
        min0 = std::min(min0, a0);
        max0 = std::max(max0, a0);
        min5 = std::min(min5, a5);
        max5 = std::max(max5, a5);
    }
    EXPECT_LT(max0, min5);
}

} // namespace
} // namespace mithril::workload
