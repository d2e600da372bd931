/**
 * @file
 * Trace op `dilate`: rational time scaling — tick' = tick * num /
 * den. Scaling a non-decreasing sequence by a non-negative rational
 * keeps it non-decreasing (integer division is monotone), so per-bank
 * order survives. dilate:num=1,den=2 doubles traffic density;
 * dilate:num=2 halves it; num=den=1 is the identity.
 */

#include "trace/op_registry.hh"

namespace mithril::trace
{

namespace
{

class DilateStream : public RecordStream
{
  public:
    DilateStream(std::unique_ptr<RecordStream> upstream,
                 std::uint64_t num, std::uint64_t den)
        : upstream_(std::move(upstream)), num_(num), den_(den)
    {
    }

    const dram::Geometry &geometry() const override
    {
        return upstream_->geometry();
    }

    bool next(TraceRecord &out) override
    {
        if (!upstream_->next(out))
            return false;
        const std::uint64_t tick =
            static_cast<std::uint64_t>(out.tick);
        // Pre-check instead of __int128: ticks are < 2^63 and num is
        // range-checked, so `tick * num` is the only overflow site.
        if (num_ > 1 &&
            tick > static_cast<std::uint64_t>(kTickMax) / num_) {
            throw registry::SpecError(
                "trace-op 'dilate': tick " + std::to_string(tick) +
                " * " + std::to_string(num_) + " overflows");
        }
        out.tick = static_cast<Tick>(tick * num_ / den_);
        return true;
    }

  private:
    std::unique_ptr<RecordStream> upstream_;
    std::uint64_t num_;
    std::uint64_t den_;
};

const registry::Registrar<TraceOpTraits> kRegisterDilate{{
    /*name=*/"dilate",
    /*display=*/"dilate",
    /*description=*/
    "scale every tick by the rational num/den (integer math, "
    "monotone); num=den=1 is the identity",
    /*aliases=*/{},
    /*uses=*/"filter stage: upstream or one input trace",
    /*params=*/
    {{"num", registry::ParamDesc::Type::Uint, "1", 1, 1u << 20,
      "numerator of the scale factor"},
     {"den", registry::ParamDesc::Type::Uint, "1", 1, 1u << 20,
      "denominator of the scale factor"}},
    /*make=*/
    [](const ParamSet &params, const TraceOpContext &ctx)
        -> std::unique_ptr<RecordStream> {
        return std::make_unique<DilateStream>(
            takeFilterUpstream("dilate", ctx),
            params.getUint("num", 1), params.getUint("den", 1));
    },
}};

} // namespace

} // namespace mithril::trace
