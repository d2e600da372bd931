/**
 * @file
 * The record-level vocabulary of the trace-algebra subsystem: a pull
 * stream of (bank, row, tick) records the transform ops compose over.
 *
 * A RecordStream differs from engine::ActSource in one way that
 * matters for composition: it is record-at-a-time and carries the
 * geometry the records aim at, so every op can validate its inputs
 * eagerly (geometry equality, range checks) and a pipeline's output
 * can be written back to a `mithril.acttrace.v1` file — whose writer
 * enforces per-bank tick monotonicity on every append — without the
 * ops re-implementing that validation.
 *
 * Ordering contract: a RecordStream yields every *per-bank*
 * subsequence in non-decreasing tick order (what the trace format
 * requires); the cross-bank interleaving is op-defined (merge emits a
 * globally tick-ordered dense stream, filters preserve whatever order
 * their upstream has). Engine outcomes are invariant to cross-bank
 * order, so any RecordStream materializes to a valid replayable
 * trace.
 */

#ifndef MITHRIL_TRACE_RECORD_STREAM_HH
#define MITHRIL_TRACE_RECORD_STREAM_HH

#include <memory>
#include <string>

#include "dram/timing.hh"
#include "engine/act_source.hh"
#include "engine/act_trace.hh"

namespace mithril::trace
{

/** One activation record as the trace ops see it. */
struct TraceRecord
{
    BankId bank = 0;
    RowId row = 0;
    Tick tick = 0;
};

/** Pull stream of trace records; the product of every trace op. */
class RecordStream
{
  public:
    virtual ~RecordStream() = default;

    /** The geometry every record of this stream aims at. */
    virtual const dram::Geometry &geometry() const = 0;

    /** Yield the next record; false when exhausted. */
    virtual bool next(TraceRecord &out) = 0;
};

/**
 * Record-at-a-time lookahead cursor over any engine::ActSource,
 * refilled a batch at a time. It drains a whole trace for
 * TraceFileStream and one bank's shardSlice() for the k-way merge's
 * heap and splice's injection, so N inputs x B banks cost one parse
 * + one mapping per input.
 */
class SourceCursor
{
  public:
    explicit SourceCursor(std::unique_ptr<engine::ActSource> source);

    /** The current head record; false when the source is exhausted. */
    bool peek(TraceRecord &out);

    /** Consume the current head. */
    void pop();

  private:
    void refill();

    std::unique_ptr<engine::ActSource> source_;
    engine::ActBatch batch_;
    std::size_t pos_ = 0;
    bool drained_ = false;
};

/** Leaf stream over one `.acttrace` file in canonical order. */
class TraceFileStream : public RecordStream
{
  public:
    explicit TraceFileStream(const std::string &path);

    const dram::Geometry &geometry() const override
    {
        return geometry_;
    }

    bool next(TraceRecord &out) override;

  private:
    explicit TraceFileStream(
        std::unique_ptr<engine::ActTraceSource> source);

    /** Declared before cursor_: it is read from the source's header
     *  before the cursor takes ownership of the source. */
    dram::Geometry geometry_;
    SourceCursor cursor_;
};

/** Geometry an ActTraceInfo header implies (row/line bytes are not
 *  part of the trace format; the paper preset supplies them). */
dram::Geometry traceGeometry(const engine::ActTraceInfo &info);

/** Throw registry::SpecError unless the two geometries agree on
 *  every field the trace format records. */
void requireSameGeometry(const std::string &what,
                         const dram::Geometry &a,
                         const dram::Geometry &b);

} // namespace mithril::trace

#endif // MITHRIL_TRACE_RECORD_STREAM_HH
