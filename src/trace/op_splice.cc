/**
 * @file
 * Trace op `splice`: inject a registered attack burst — or a whole
 * second trace — into a benign background at a given tick window.
 *
 * The injection is held as per-bank tick-monotone cursors. Before a
 * background record (bank b, tick t) is emitted, bank b's injection
 * cursor drains every record with tick < t (ties go to the
 * background); once the background is exhausted the leftover
 * injection drains through a (tick, bank) min-heap. Each output
 * bank's sequence is therefore a monotone interleave of two monotone
 * sequences — the writer's per-bank validation passes by
 * construction, and the result is byte-deterministic.
 */

#include <queue>

#include "registry/source_registry.hh"
#include "trace/op_registry.hh"

namespace mithril::trace
{

namespace
{

/** One bank's injection stream: an in-memory burst slice or a
 *  tick-shifted cursor into a second trace file. */
struct InjCursor
{
    std::vector<TraceRecord> records; //!< Burst mode.
    std::size_t pos = 0;
    std::unique_ptr<SourceCursor> file; //!< Second-trace mode.
    Tick offset = 0;

    bool
    peek(TraceRecord &out)
    {
        if (file) {
            if (!file->peek(out))
                return false;
            if (out.tick > kTickMax - offset) {
                throw registry::SpecError(
                    "trace-op 'splice': at= shifts tick " +
                    std::to_string(out.tick) + " past the tick "
                    "range");
            }
            out.tick += offset;
            return true;
        }
        if (pos == records.size())
            return false;
        out = records[pos];
        return true;
    }

    void
    pop()
    {
        if (file)
            file->pop();
        else
            ++pos;
    }
};

class SpliceStream : public RecordStream
{
  public:
    SpliceStream(std::unique_ptr<RecordStream> upstream,
                 const ParamSet &params, const TraceOpContext &ctx)
        : upstream_(std::move(upstream)),
          inj_(upstream_->geometry().totalBanks())
    {
        const std::string with = params.getString("with", "");
        const std::string attack = params.getString("attack", "");
        if (with.empty() == attack.empty()) {
            throw registry::SpecError(
                "trace-op 'splice' needs exactly one of "
                "with=<trace> or attack=<name>");
        }
        const Tick at =
            static_cast<Tick>(params.getUint("at", 0));
        if (!with.empty())
            openWith(with, at);
        else
            generateBurst(attack, at, params, ctx);
    }

    const dram::Geometry &geometry() const override
    {
        return upstream_->geometry();
    }

    bool next(TraceRecord &out) override
    {
        while (!bgDone_) {
            if (!bgValid_) {
                bgValid_ = upstream_->next(bg_);
                if (!bgValid_) {
                    bgDone_ = true;
                    break;
                }
            }
            // Bank-local drain: everything this bank must see before
            // the pending background record.
            TraceRecord head;
            InjCursor &cursor = inj_[bg_.bank];
            if (cursor.peek(head) && head.tick < bg_.tick) {
                cursor.pop();
                out = head;
                return true;
            }
            out = bg_;
            bgValid_ = false;
            return true;
        }
        if (!heapBuilt_) {
            heapBuilt_ = true;
            for (BankId b = 0; b < inj_.size(); ++b) {
                TraceRecord head;
                if (inj_[b].peek(head))
                    heap_.push({head.tick, b});
            }
        }
        if (heap_.empty())
            return false;
        const BankId bank = heap_.top().second;
        heap_.pop();
        InjCursor &cursor = inj_[bank];
        cursor.peek(out);
        cursor.pop();
        TraceRecord head;
        if (cursor.peek(head))
            heap_.push({head.tick, bank});
        return true;
    }

  private:
    void
    openWith(const std::string &path, Tick at)
    {
        engine::ActTraceSource with(path);
        engine::requireSameGeometry(
            "trace-op 'splice' with '" + path + "'",
            upstream_->geometry(), with.info().geometry());
        const engine::ActTraceInfo &info = with.info();
        for (BankId b = 0; b < info.totalBanks(); ++b) {
            if (info.perBank[b] == 0)
                continue;
            inj_[b].file = std::make_unique<SourceCursor>(
                with.shardSlice(b, b + 1, ~std::uint64_t{0}));
            inj_[b].offset = at;
        }
    }

    void
    generateBurst(const std::string &attack, Tick at,
                  const ParamSet &params, const TraceOpContext &ctx)
    {
        const std::uint64_t acts =
            params.getUint("burst-acts", 100000);
        const dram::Timing timing =
            ctx.timing ? *ctx.timing : dram::ddr5_4800();
        std::uint64_t gap = params.getUint("burst-gap", 0);
        if (gap == 0)
            gap = static_cast<std::uint64_t>(timing.tRC);
        ParamSet attack_params;
        attack_params.set("attack", attack);
        const registry::SourceContext source_ctx{
            timing, upstream_->geometry(), /*flipTh=*/6250,
            ctx.seed};
        auto source = registry::makeActSource("attack",
                                              attack_params,
                                              source_ctx);
        std::uint64_t produced = 0;
        engine::forEachRecord(
            *source, acts, [&](const engine::ActRecord &record) {
                // Burst ticks are synthesized: one ACT per gap in
                // the generator's arrival order, starting at `at`.
                const std::uint64_t tick =
                    static_cast<std::uint64_t>(at) + produced * gap;
                if (tick > static_cast<std::uint64_t>(kTickMax)) {
                    throw registry::SpecError(
                        "trace-op 'splice': burst tick overflows "
                        "(at + " +
                        std::to_string(produced) + " * " +
                        std::to_string(gap) + ")");
                }
                inj_[record.bank].records.push_back(TraceRecord{
                    record.bank, record.row,
                    static_cast<Tick>(tick)});
                ++produced;
            });
    }

    std::unique_ptr<RecordStream> upstream_;
    std::vector<InjCursor> inj_; //!< Indexed by bank.
    TraceRecord bg_;
    bool bgValid_ = false;
    bool bgDone_ = false;
    bool heapBuilt_ = false;
    std::priority_queue<std::pair<Tick, BankId>,
                        std::vector<std::pair<Tick, BankId>>,
                        std::greater<std::pair<Tick, BankId>>>
        heap_;
};

const registry::Registrar<TraceOpTraits> kRegisterSplice{{
    /*name=*/"splice",
    /*display=*/"splice",
    /*description=*/
    "inject a registered attack burst (attack=) or a second trace "
    "(with=) into the background stream at tick `at`, preserving "
    "per-bank tick order",
    /*aliases=*/{},
    /*uses=*/"filter stage: upstream or one input trace; seed (burst "
             "generation)",
    /*params=*/
    {{"with", registry::ParamDesc::Type::String, "", 0, 0,
      "second trace to inject (geometry must match)"},
     {"attack", registry::ParamDesc::Type::String, "", 0, 0,
      "registered attack whose ACT pattern forms the burst"},
     {"at", registry::ParamDesc::Type::Uint, "0", 0, 9.3e18,
      "tick where the injection starts"},
     {"burst-acts", registry::ParamDesc::Type::Uint, "100000", 1,
      100000000, "burst length in ACTs (attack= mode)"},
     {"burst-gap", registry::ParamDesc::Type::Uint, "0", 0,
      1000000000, "ticks between burst ACTs (0 = one tRC)"}},
    /*make=*/
    [](const ParamSet &params, const TraceOpContext &ctx)
        -> std::unique_ptr<RecordStream> {
        return std::make_unique<SpliceStream>(
            takeFilterUpstream("splice", ctx), params, ctx);
    },
}};

} // namespace

} // namespace mithril::trace
