/**
 * @file
 * Trace op `merge`: deterministic k-way tick-ordered merge of N
 * captured traces into one dense multi-tenant stream.
 *
 * The merge runs over per-(input, bank) cursors, not whole-file
 * streams: a file's canonical order interleaves banks, so merging
 * whole files by head tick would let a bank's records leapfrog each
 * other across chunk boundaries. Per-bank cursors are tick-monotone
 * by the format's invariant, so the merged output is globally
 * tick-ordered AND per-bank monotone — exactly what the writer
 * validates. Ties break (tick, input index, bank), making the merge
 * byte-deterministic for any input set.
 *
 * A loser tree picks the next record: each internal node keeps the
 * loser of the match played there, so replacing the winner's head
 * replays one leaf-to-root path with one comparison per level and
 * no sift-down. Cursors are created input-major, then bank-
 * ascending, so the cursor index alone encodes the (input, bank)
 * tie-break.
 */

#include <limits>
#include <utility>

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
        // of that mapping and hold no file handles (64 banks x 1024
        // tenants are 65,536 cursors).
        std::vector<std::unique_ptr<engine::ActTraceSource>> sources;
        sources.reserve(inputs.size());
        for (const std::string &path : inputs)
            sources.push_back(
                std::make_unique<engine::ActTraceSource>(path));
        geometry_ = sources.front()->info().geometry();
        std::size_t cursors = 0;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            if (i > 0) {
                engine::requireSameGeometry(
                    "trace-op 'merge' input '" + inputs[i] + "'",
                    geometry_, sources[i]->info().geometry());
            }
            for (std::uint64_t count : sources[i]->info().perBank)
                cursors += count != 0;
        }
        cursors_.reserve(cursors);
        for (const auto &source : sources) {
            const engine::ActTraceInfo &info = source->info();
            for (BankId b = 0; b < info.totalBanks(); ++b) {
                if (info.perBank[b] != 0)
                    cursors_.emplace_back(source->shardSlice(
                        b, b + 1, ~std::uint64_t{0}));
            }
        }
        build();
    }

    const dram::Geometry &geometry() const override
    {
        return geometry_;
    }

    bool next(TraceRecord &out) override
    {
        if (tree_.empty() || tree_[0].key == kDrained)
            return false;
        const std::uint32_t index = tree_[0].cursor;
        SourceCursor &cursor = cursors_[index];
        cursor.peek(out);
        cursor.pop();
        replay(Node{headKey(cursor), index});
        return true;
    }

  private:
    /** Key of an exhausted cursor: above every tick (ticks are
     *  non-negative), so it loses every match. */
    static constexpr std::uint64_t kDrained =
        std::numeric_limits<std::uint64_t>::max();

    /** A cursor's head tick and index; (key, cursor) orders the
     *  merge. */
    struct Node
    {
        std::uint64_t key;
        std::uint32_t cursor;

        /** Branch-free: tenants share ticks, so most matches are
         *  key ties and a branch on the key would mispredict. */
        bool
        beats(const Node &o) const
        {
            return (key < o.key) | ((key == o.key) & (cursor < o.cursor));
        }
    };

    static std::uint64_t
    headKey(SourceCursor &cursor)
    {
        TraceRecord head;
        return cursor.peek(head) ? static_cast<std::uint64_t>(head.tick)
                                 : kDrained;
    }

    /** Play every match bottom-up. Leaf i sits at k + i of an
     *  implicit tree whose node n has children 2n and 2n + 1, a full
     *  binary tree for any k; internal nodes 1..k-1 keep losers and
     *  tree_[0] the overall winner. */
    void
    build()
    {
        const std::size_t k = cursors_.size();
        if (k == 0)
            return;
        std::vector<Node> winners(2 * k);
        for (std::size_t i = 0; i < k; ++i) {
            winners[k + i] = Node{headKey(cursors_[i]),
                                  static_cast<std::uint32_t>(i)};
        }
        tree_.resize(k);
        for (std::size_t n = k - 1; n >= 1; --n) {
            Node a = winners[2 * n];
            Node b = winners[2 * n + 1];
            if (b.beats(a))
                std::swap(a, b);
            winners[n] = a;
            tree_[n] = b;
        }
        tree_[0] = winners[1];
    }

    /** Re-enter the last winner's cursor with its new head and play
     *  the matches on its leaf-to-root path. */
    void
    replay(Node node)
    {
        for (std::size_t n = (cursors_.size() + node.cursor) / 2; n >= 1;
             n /= 2) {
            // Selects, not a branch: the winner moves on up.
            const Node other = tree_[n];
            const bool lost = other.beats(node);
            tree_[n] = lost ? node : other;
            node = lost ? other : node;
        }
        tree_[0] = node;
    }

    std::vector<SourceCursor> cursors_;
    std::vector<Node> tree_; //!< [0] winner, [1, k) match losers.
    dram::Geometry geometry_;
};

const registry::Registrar<TraceOpTraits> kRegisterMerge{{
    /*name=*/"merge",
    /*display=*/"merge",
    /*description=*/
    "k-way tick-ordered merge of N traces into one dense "
    "multi-tenant stream (heap over per-bank block cursors; ties "
    "break by input order)",
    /*aliases=*/{},
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
