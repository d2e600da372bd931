/**
 * @file
 * Trace op `slice`: tick-window / bank-range extraction — the
 * inverse of merge (slicing a merged corpus by bank range recovers
 * each tenant's contribution) and the cheap way to cut a warmup
 * prefix or an attack window out of a long capture. Dropping records
 * and (optionally) subtracting a constant from every tick both
 * preserve per-bank order.
 */

#include "trace/op_registry.hh"

namespace mithril::trace
{

namespace
{

class SliceStream : public RecordStream
{
  public:
    SliceStream(std::unique_ptr<RecordStream> upstream, Tick from,
                Tick to, BankId bank_lo, BankId bank_hi, bool rebase)
        : upstream_(std::move(upstream)), from_(from), to_(to),
          bankLo_(bank_lo), bankHi_(bank_hi), rebase_(rebase)
    {
        const std::uint32_t banks =
            upstream_->geometry().totalBanks();
        if (bankHi_ == 0)
            bankHi_ = banks;
        if (bankHi_ <= bankLo_ || bankLo_ >= banks) {
            throw registry::SpecError(
                "trace-op 'slice': empty bank range [" +
                std::to_string(bankLo_) + ", " +
                std::to_string(bankHi_) + ") of " +
                std::to_string(banks) + " banks");
        }
        if (to_ != 0 && to_ <= from_) {
            throw registry::SpecError(
                "trace-op 'slice': empty tick window [" +
                std::to_string(from_) + ", " + std::to_string(to_) +
                ")");
        }
    }

    const dram::Geometry &geometry() const override
    {
        return upstream_->geometry();
    }

    bool next(TraceRecord &out) override
    {
        while (upstream_->next(out)) {
            if (out.bank < bankLo_ || out.bank >= bankHi_)
                continue;
            if (out.tick < from_ || (to_ != 0 && out.tick >= to_))
                continue;
            if (rebase_)
                out.tick -= from_;
            return true;
        }
        return false;
    }

  private:
    std::unique_ptr<RecordStream> upstream_;
    Tick from_;
    Tick to_;
    BankId bankLo_;
    BankId bankHi_;
    bool rebase_;
};

const registry::Registrar<TraceOpTraits> kRegisterSlice{{
    /*name=*/"slice",
    /*display=*/"slice",
    /*description=*/
    "keep only records inside a tick window [from, to) and a bank "
    "range [bank-lo, bank-hi); rebase=1 shifts kept ticks down by "
    "`from`",
    /*aliases=*/{},
    /*uses=*/"filter stage: upstream or one input trace",
    /*params=*/
    {{"from", registry::ParamDesc::Type::Uint, "0", 0, 9.3e18,
      "first tick kept"},
     {"to", registry::ParamDesc::Type::Uint, "0", 0, 9.3e18,
      "first tick dropped (0 = unbounded)"},
     {"bank-lo", registry::ParamDesc::Type::Uint, "0", 0, 1u << 20,
      "first bank kept"},
     {"bank-hi", registry::ParamDesc::Type::Uint, "0", 0, 1u << 20,
      "first bank dropped (0 = all banks)"},
     {"rebase", registry::ParamDesc::Type::Bool, "0", 0, 1,
      "subtract `from` from every kept tick"}},
    /*make=*/
    [](const ParamSet &params, const TraceOpContext &ctx)
        -> std::unique_ptr<RecordStream> {
        return std::make_unique<SliceStream>(
            takeFilterUpstream("slice", ctx),
            static_cast<Tick>(params.getUint("from", 0)),
            static_cast<Tick>(params.getUint("to", 0)),
            params.getUint32("bank-lo", 0),
            params.getUint32("bank-hi", 0),
            params.getBool("rebase", false));
    },
}};

} // namespace

} // namespace mithril::trace
