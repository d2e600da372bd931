#include "act_stream_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace mithril::engine
{

EngineConfig
EngineConfig::singleBank(const dram::Timing &timing,
                         std::uint32_t rows_per_bank,
                         std::uint32_t flip_th,
                         std::uint32_t blast_radius)
{
    EngineConfig cfg;
    cfg.timing = timing;
    cfg.geometry.channels = 1;
    cfg.geometry.ranksPerChannel = 1;
    cfg.geometry.banksPerRank = 1;
    cfg.geometry.rowsPerBank = rows_per_bank;
    cfg.geometry.rowBytes = 8192;
    cfg.geometry.lineBytes = 64;
    cfg.flipTh = flip_th;
    cfg.blastRadius = blast_radius;
    return cfg;
}

ActStreamEngine::ActStreamEngine(const EngineConfig &config,
                                 trackers::RhProtection *tracker)
    : config_(config),
      protection_(config.geometry, config.timing, config.flipTh,
                  config.blastRadius, config.enableOracle),
      banks_(config.geometry.totalBanks())
{
    MITHRIL_ASSERT(config_.geometry.totalBanks() > 0);
    MITHRIL_ASSERT(config_.timing.tRC > 0);
    tRcDiv_ = simd::U64Divisor(
        static_cast<std::uint64_t>(config_.timing.tRC));
    const auto num_banks =
        static_cast<std::uint32_t>(banks_.size());
    partCount_.assign(num_banks, 0);
    partOffset_.assign(num_banks, 0);
    partCursor_.assign(num_banks, 0);
    partRows_.resize(ActBatch::kCapacity);
    for (BankState &bs : banks_)
        bs.nextRef = config_.timing.tREFI;
    protection_.setTracker(tracker);
}

void
ActStreamEngine::maybeRefresh(BankState &bs, BankId bank)
{
    while (bs.now >= bs.nextRef) {
        protection_.refresh(bank, bs.nextRef);
        bs.now += config_.timing.tRFC;  // Bank blocked for tRFC.
        bs.nextRef += config_.timing.tREFI;
    }
}

void
ActStreamEngine::settle(BankState &bs, BankId bank)
{
    while (protection_.arrOwed(bank)) {
        protection_.arr(bank, bs.now);
        bs.now += static_cast<Tick>(2 * config_.blastRadius) *
                  config_.timing.tRC;
    }
    if (!protection_.rfmOwed(bank))
        return;
    if (protection_.rfmSkippable(bank)) {
        // Mithril+ MRR skip: no time cost beyond the poll.
        protection_.skipRfm(bank, bs.now);
    } else {
        protection_.rfm(bank, bs.now);
        bs.now += config_.timing.tRFM;
    }
}

void
ActStreamEngine::activate(BankId bank, RowId row)
{
    BankState &bs = banks_.at(bank);
    maybeRefresh(bs, bank);
    protection_.activate(bank, row, bs.now);
    bs.now += config_.timing.tRC;
    if (protection_.owes(bank))
        settle(bs, bank);
}

void
ActStreamEngine::processRun(BankState &bs, BankId bank,
                            const RowId *rows, std::size_t n)
{
    const Tick t_rc = config_.timing.tRC;
    while (n > 0) {
        maybeRefresh(bs, bank);

        // Cut the run at the next REF boundary and RFM epoch so the
        // span's ticks are exact under the uniform tRC stride.
        // until_ref > 0 after maybeRefresh(), so the prepared-divisor
        // ceil equals the signed expression it replaced.
        const Tick until_ref = bs.nextRef - bs.now;
        std::uint64_t cap = tRcDiv_.div(
            static_cast<std::uint64_t>(until_ref + t_rc - 1));
        cap = std::min({cap, protection_.actsToRfm(bank),
                        static_cast<std::uint64_t>(n)});

        trackers::ActSpan span;
        span.bank = bank;
        span.rows = rows;
        span.size = static_cast<std::size_t>(cap);
        span.tick0 = bs.now;
        span.tickStride = t_rc;
        const std::size_t consumed = protection_.activateRun(span);
        bs.now += static_cast<Tick>(consumed) * t_rc;
        if (protection_.owes(bank))
            settle(bs, bank);

        rows += consumed;
        n -= consumed;
    }
}

void
ActStreamEngine::dispatchBatch(const ActBatch &batch, std::size_t n)
{
    if (n == 0)
        return;
    const BankId *bank_col = batch.banks();
    const RowId *row_col = batch.rows();
    const auto num_banks = static_cast<std::uint32_t>(banks_.size());
    const bool scalar =
        config_.dispatch == EngineConfig::Dispatch::Scalar;

    // Uniform-bank fast path: sharded runs and single-bank workloads
    // deliver whole batches on one bank; one sweep detects that
    // and skips the partition entirely. Dispatch order is trivially
    // identical (one bank, stream order).
    if (simd::uniformPrefix(bank_col, n, bank_col[0]) == n) {
        const BankId bank = bank_col[0];
        MITHRIL_ASSERT(bank < num_banks);
        if (scalar) {
            for (std::size_t i = 0; i < n; ++i)
                activate(bank, row_col[i]);
        } else {
            processRun(banks_[bank], bank, row_col, n);
        }
        return;
    }

    // Counting-sort partition into one flat reused buffer (stable, so
    // each bank's slice keeps stream order). Both dispatch modes
    // traverse the partition in ascending bank order so they agree on
    // the interleaving seen by process-wide tracker state (shared
    // RNGs, logic-op counters).
    std::fill(partCount_.begin(), partCount_.end(), 0u);
    for (std::size_t i = 0; i < n; ++i) {
        MITHRIL_ASSERT(bank_col[i] < num_banks);
        ++partCount_[bank_col[i]];
    }
    std::uint32_t off = 0;
    for (std::uint32_t b = 0; b < num_banks; ++b) {
        partOffset_[b] = off;
        partCursor_[b] = off;
        off += partCount_[b];
    }
    for (std::size_t i = 0; i < n; ++i)
        partRows_[partCursor_[bank_col[i]]++] = row_col[i];

    for (BankId bank = 0; bank < num_banks; ++bank) {
        const std::uint32_t count = partCount_[bank];
        if (count == 0)
            continue;
        const RowId *rows = partRows_.data() + partOffset_[bank];
        if (scalar) {
            for (std::uint32_t i = 0; i < count; ++i)
                activate(bank, rows[i]);
        } else {
            processRun(banks_[bank], bank, rows, count);
        }
    }
}

std::uint64_t
ActStreamEngine::run(ActSource &source)
{
    return run(source, ~0ull);
}

std::uint64_t
ActStreamEngine::run(ActSource &source, std::uint64_t max_acts)
{
    if (config_.telemetry) {
        protection_.attach(*config_.telemetry);
        if (config_.telemetry->config().phases)
            phases_ = &config_.telemetry->phases();
    }
    std::uint64_t done = 0;
    telemetry::PhaseTimer timer;
    while (done < max_acts) {
        batch_.clear();
        const auto limit = static_cast<std::size_t>(
            std::min<std::uint64_t>(ActBatch::kCapacity,
                                    max_acts - done));
        if (phases_)
            timer.lap();
        const std::size_t n = source.fill(batch_, limit);
        if (phases_)
            phases_->addSource(timer.lap());
        if (n == 0)
            break;
        MITHRIL_ASSERT(n <= limit);
        dispatchBatch(batch_, n);
        if (phases_)
            phases_->addDispatch(timer.lap());
        done += n;
    }
    return done;
}

void
ActStreamEngine::exportMetrics(telemetry::MetricSheet &sheet) const
{
    const dram::Protection::Counts c = protection_.total();
    sheet.setCounter("engine.acts", c.acts);
    sheet.setCounter("engine.refs", c.refs);
    sheet.setCounter("engine.rfms", c.rfms);
    sheet.setCounter("engine.rfm_skipped_mrr", c.mrrSkips);
    sheet.setCounter("engine.arr_executed", c.arrs);
    sheet.setCounter("engine.preventive", c.preventive);
    if (config_.enableOracle)
        protection_.oracle().exportMetrics(sheet);
}

} // namespace mithril::engine
