/**
 * @file
 * Row Hammer attack traffic generators.
 *
 * All attack records are uncacheable (a real attacker uses clflush or
 * eviction sets) and gap-1 (the attacker spends every instruction
 * hammering). Address composition goes through the MC address map so
 * each generator can aim at an exact (channel, rank, bank, row).
 *
 *  - DoubleSidedAttack: the classic pattern, alternating the two
 *    aggressors around one victim.
 *  - MultiSidedAttack: TRRespass-style many-sided pattern over a block
 *    of interleaved aggressors (32 victims by default, Section VI-A).
 *  - RfmOptimalAttack: one ACT per row over a rotating set of distinct
 *    rows — the cost-effectiveness-optimal pattern against sampling
 *    (Appendix C) and the concentration driver against RFM schemes.
 *  - CbfPollutionAttack: BlockHammer's performance adversary — spread
 *    just-below-blacklist activation counts over many rows so the CBF
 *    count floor rises and benign rows get throttled.
 */

#ifndef MITHRIL_WORKLOAD_ATTACKS_HH
#define MITHRIL_WORKLOAD_ATTACKS_HH

#include <vector>

#include "common/random.hh"
#include "mc/address_map.hh"
#include "workload/trace.hh"

namespace mithril::workload
{

/** Where an attack aims. */
struct AttackTarget
{
    const mc::AddressMap *map = nullptr;
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;    //!< Bank within the rank.
    RowId baseRow = 0x2000;
    std::uint64_t limit = ~0ull;  //!< Max records.
};

/** Classic double-sided hammer around baseRow+1. */
class DoubleSidedAttack : public TraceGenerator
{
  public:
    explicit DoubleSidedAttack(const AttackTarget &target);

    std::optional<TraceRecord> next() override;
    std::string name() const override { return "double-sided"; }

    /** The victim row between the two aggressors. */
    RowId victimRow() const { return target_.baseRow + 1; }

  private:
    AttackTarget target_;
    std::uint64_t produced_ = 0;
};

/** TRRespass-style multi-sided hammer. */
class MultiSidedAttack : public TraceGenerator
{
  public:
    /**
     * @param victims Number of victim rows (aggressors = victims + 1,
     *        interleaved: A V A V ... A).
     */
    MultiSidedAttack(const AttackTarget &target,
                     std::uint32_t victims = 32);

    std::optional<TraceRecord> next() override;
    std::string name() const override { return "multi-sided"; }

  private:
    AttackTarget target_;
    std::uint32_t aggressors_;
    std::uint64_t produced_ = 0;
};

/** One ACT per row over a rotating distinct-row set. */
class RfmOptimalAttack : public TraceGenerator
{
  public:
    RfmOptimalAttack(const AttackTarget &target,
                     std::uint32_t distinct_rows);

    std::optional<TraceRecord> next() override;
    std::string name() const override { return "rfm-optimal"; }

  private:
    AttackTarget target_;
    std::uint32_t distinctRows_;
    std::uint64_t produced_ = 0;
};

/**
 * Profiled-aliasing performance adversary against BlockHammer
 * (Section VI-A): the attacker has profiled which rows share CBF
 * entries with the benign threads' hot rows and activates exactly
 * those, just enough to push them across the blacklist threshold, so
 * the benign threads get throttled.
 */
class ProfiledAliasAttack : public TraceGenerator
{
  public:
    /**
     * @param targets Row-granular physical addresses whose CBF slots
     *        the attack inflates (uncached round-robin).
     * @param limit   Max records.
     */
    explicit ProfiledAliasAttack(std::vector<Addr> targets,
                                 std::uint64_t limit = ~0ull);

    std::optional<TraceRecord> next() override;
    std::string name() const override { return "profiled-alias"; }

    std::size_t targetCount() const { return targets_.size(); }

  private:
    std::vector<Addr> targets_;
    std::uint64_t limit_;
    std::uint64_t produced_ = 0;
};

/** BlockHammer CBF-pollution performance adversary. */
class CbfPollutionAttack : public TraceGenerator
{
  public:
    /**
     * @param rows   Distinct rows to pollute with.
     * @param bursts ACTs per row per sweep (kept below blacklisting of
     *               the attacker's own service priority).
     */
    CbfPollutionAttack(const AttackTarget &target, std::uint32_t rows,
                       std::uint32_t bursts = 8);

    std::optional<TraceRecord> next() override;
    std::string name() const override { return "cbf-pollution"; }

  private:
    AttackTarget target_;
    std::uint32_t rows_;
    std::uint32_t bursts_;
    std::uint64_t produced_ = 0;
};

} // namespace mithril::workload

#endif // MITHRIL_WORKLOAD_ATTACKS_HH
