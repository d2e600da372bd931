/**
 * @file
 * Trace op `merge`: deterministic k-way tick-ordered merge of N
 * captured traces into one dense multi-tenant stream.
 *
 * The heap runs over per-(input, bank) cursors, not whole-file
 * streams: a file's canonical order interleaves banks, so merging
 * whole files by head tick would let a bank's records leapfrog each
 * other across chunk boundaries. Per-bank cursors are tick-monotone
 * by the format's invariant, so the merged output is globally
 * tick-ordered AND per-bank monotone — exactly what the writer
 * validates. Ties break (tick, input index, bank), making the merge
 * byte-deterministic for any input set.
 */

#include <queue>

#include "trace/op_registry.hh"

namespace mithril::trace
{

namespace
{

class MergeStream : public RecordStream
{
  public:
    explicit MergeStream(const std::vector<std::string> &inputs)
    {
        if (inputs.empty()) {
            throw registry::SpecError(
                "trace-op 'merge' needs at least one input trace");
        }
        // Each input is mapped once; its per-bank cursors are slices
        // of that mapping and hold no file handles (64 banks x 64
        // tenants are 4096 cursors).
        std::vector<std::unique_ptr<engine::ActTraceSource>> sources;
        sources.reserve(inputs.size());
        for (const std::string &path : inputs)
            sources.push_back(
                std::make_unique<engine::ActTraceSource>(path));
        geometry_ = traceGeometry(sources.front()->info());
        for (std::size_t i = 1; i < sources.size(); ++i) {
            requireSameGeometry(
                "trace-op 'merge' input '" + inputs[i] + "'",
                geometry_, traceGeometry(sources[i]->info()));
        }
        for (std::size_t i = 0; i < sources.size(); ++i) {
            const engine::ActTraceInfo &info = sources[i]->info();
            for (BankId b = 0; b < info.totalBanks(); ++b) {
                if (info.perBank[b] == 0)
                    continue;
                cursors_.emplace_back(sources[i]->shardSlice(
                    b, b + 1, ~std::uint64_t{0}));
                TraceRecord head;
                if (cursors_.back().peek(head)) {
                    heap_.push(Key{head.tick,
                                   static_cast<std::uint32_t>(i), b,
                                   cursors_.size() - 1});
                }
            }
        }
    }

    const dram::Geometry &geometry() const override
    {
        return geometry_;
    }

    bool next(TraceRecord &out) override
    {
        if (heap_.empty())
            return false;
        const Key top = heap_.top();
        heap_.pop();
        SourceCursor &cursor = cursors_[top.cursor];
        cursor.peek(out);
        cursor.pop();
        TraceRecord head;
        if (cursor.peek(head))
            heap_.push(Key{head.tick, top.input, top.bank,
                           top.cursor});
        return true;
    }

  private:
    struct Key
    {
        Tick tick;
        std::uint32_t input;
        BankId bank;
        std::size_t cursor;

        bool operator>(const Key &o) const
        {
            if (tick != o.tick)
                return tick > o.tick;
            if (input != o.input)
                return input > o.input;
            return bank > o.bank;
        }
    };

    std::vector<SourceCursor> cursors_;
    std::priority_queue<Key, std::vector<Key>, std::greater<Key>>
        heap_;
    dram::Geometry geometry_;
};

const registry::Registrar<TraceOpTraits> kRegisterMerge{{
    /*name=*/"merge",
    /*display=*/"merge",
    /*description=*/
    "k-way tick-ordered merge of N traces into one dense "
    "multi-tenant stream (heap over per-bank block cursors; ties "
    "break by input order)",
    /*aliases=*/{"interleave"},
    /*uses=*/"head stage only; inputs = the traces to merge "
             "(geometries must match)",
    /*params=*/{},
    /*make=*/
    [](const ParamSet &, const TraceOpContext &ctx)
        -> std::unique_ptr<RecordStream> {
        requireHeadStage("merge", ctx);
        return std::make_unique<MergeStream>(ctx.inputs);
    },
}};

} // namespace

} // namespace mithril::trace
