/**
 * @file
 * Analytic model behind Figure 2: why the reactive ARR policy breaks
 * on the RFM interface.
 *
 * ARR-Graphene refreshes a row's victims the instant its estimated
 * count reaches the predefined threshold T, so the safe FlipTH scales
 * linearly with T. The naive RFM port instead *buffers* rows crossing T
 * and drains one per RFM command (one per RFM_TH ACTs). The attacker
 * drives Q = maxActs/T rows across T almost simultaneously; the last
 * buffered row then waits through ~Q * RFM_TH further ACTs during which
 * its aggressor keeps hammering, so the achievable disturbance — and
 * hence the lowest FlipTH the scheme can protect — is bounded below by
 * roughly Q * RFM_TH regardless of how small T is made.
 */

#ifndef MITHRIL_ANALYSIS_ARR_VS_RFM_HH
#define MITHRIL_ANALYSIS_ARR_VS_RFM_HH

#include <cstdint>

#include "dram/timing.hh"

namespace mithril::analysis
{

/**
 * Safe FlipTH of the original ARR-Graphene at predefined threshold T
 * (the linear red line of Figure 2: table reset halves the margin,
 * double-sided attack halves it again, plus the in-flight ACT).
 */
std::uint64_t arrGrapheneSafeFlipTh(std::uint32_t threshold);

/**
 * Safe FlipTH of the buffered RFM-Graphene strawman: the ARR bound
 * plus the worst-case queue-drain wait Q * RFM_TH.
 */
std::uint64_t rfmGrapheneSafeFlipTh(const dram::Timing &timing,
                                    std::uint32_t threshold,
                                    std::uint32_t rfm_th);

/**
 * Number of rows an attacker can drive across the threshold within one
 * tREFW (the "310 rows" of the paper's worked example).
 */
std::uint64_t concurrentThresholdRows(const dram::Timing &timing,
                                      std::uint32_t threshold);

/**
 * Row of the i-th ACT of Figure 2's concentration attack on one bank.
 * Phase 1 hammers `rows` aggressors (>= 2), spaced 2 apart from row
 * 2000, round-robin until each has taken `threshold` ACTs, so all of
 * them cross the predefined threshold nearly together. Phase 2 then
 * alternates the last two, whose shared victim keeps absorbing
 * disturbance while a buffered-RFM queue drains.
 */
RowId concentrationRow(std::uint64_t i, std::uint64_t rows,
                       std::uint32_t threshold);

} // namespace mithril::analysis

#endif // MITHRIL_ANALYSIS_ARR_VS_RFM_HH
