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

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "dram/timing.hh"
#include "engine/act_source.hh"
#include "engine/act_trace.hh"

namespace mithril::trace
{

/** One activation record as the trace ops see it: the engine's
 *  record, so a cursor stores what the decoder produced. */
using TraceRecord = engine::ActRecord;

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
 * Record-at-a-time lookahead cursor over any engine::ActSource. It
 * drains a whole trace for TraceFileStream and one bank's
 * shardSlice() for the k-way merge and splice's injection, so N
 * inputs x B banks cost one parse + one mapping per input.
 *
 * The cursor buffers kBufferRecords records inline, refilled
 * through one per-thread scratch ActBatch. A merge visits its
 * thousands of per-bank cursors in turn, so their total size decides
 * how many stay in cache: at 16 records a cursor is under 300 bytes,
 * and a 128-way merge of 64-bank traces fits its 8,192 cursors in
 * 2.3 MB.
 */
class SourceCursor
{
  public:
    static constexpr std::uint32_t kBufferRecords = 16;

    explicit SourceCursor(std::unique_ptr<engine::ActSource> source);

    /** The current head record; false when the source is exhausted. */
    bool
    peek(TraceRecord &out)
    {
        if (pos_ == size_ && !refill())
            return false;
        out = buffer_[pos_];
        return true;
    }

    /** Consume the current head (which peek() must have returned). */
    void pop() { ++pos_; }

  private:
    /** Decode the next records into buffer_; false when drained. */
    bool refill();

    std::unique_ptr<engine::ActSource> source_;
    std::uint32_t pos_ = 0;
    std::uint32_t size_ = 0;
    bool drained_ = false;
    std::array<TraceRecord, kBufferRecords> buffer_;
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

} // namespace mithril::trace

#endif // MITHRIL_TRACE_RECORD_STREAM_HH
