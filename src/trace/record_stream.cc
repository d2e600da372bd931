#include "trace/record_stream.hh"

#include <string>
#include <utility>

#include "common/logging.hh"
#include "registry/registry.hh"

namespace mithril::trace
{

dram::Geometry
traceGeometry(const engine::ActTraceInfo &info)
{
    // The trace header records the bank-space shape; rowBytes /
    // lineBytes never enter ACT-level replay, so the paper preset's
    // values complete the struct.
    dram::Geometry geometry = dram::paperGeometry();
    geometry.channels = info.channels;
    geometry.ranksPerChannel = info.ranksPerChannel;
    geometry.banksPerRank = info.banksPerRank;
    geometry.rowsPerBank = info.rowsPerBank;
    return geometry;
}

namespace
{

std::string
geometryLine(const dram::Geometry &g)
{
    return std::to_string(g.channels) + "x" +
           std::to_string(g.ranksPerChannel) + "x" +
           std::to_string(g.banksPerRank) + " banks, " +
           std::to_string(g.rowsPerBank) + " rows";
}

} // namespace

void
requireSameGeometry(const std::string &what, const dram::Geometry &a,
                    const dram::Geometry &b)
{
    if (a.channels == b.channels &&
        a.ranksPerChannel == b.ranksPerChannel &&
        a.banksPerRank == b.banksPerRank &&
        a.rowsPerBank == b.rowsPerBank)
        return;
    throw registry::SpecError(what + ": geometry mismatch — " +
                              geometryLine(a) + " vs " +
                              geometryLine(b));
}

// ------------------------------------------------------ SourceCursor

SourceCursor::SourceCursor(std::unique_ptr<engine::ActSource> source)
    : source_(std::move(source))
{
    // ActTraceSource::shardSlice() never returns null; a null slice
    // means "no native slice" to the sharded engine only.
    MITHRIL_ASSERT(source_ != nullptr);
}

bool
SourceCursor::peek(TraceRecord &out)
{
    if (pos_ == batch_.size())
        refill();
    if (pos_ == batch_.size())
        return false;
    const engine::ActRecord record = batch_.record(pos_);
    out = TraceRecord{record.bank, record.row, record.tick};
    return true;
}

void
SourceCursor::pop()
{
    ++pos_;
}

void
SourceCursor::refill()
{
    if (drained_)
        return;
    batch_.clear();
    pos_ = 0;
    if (source_->fill(batch_, engine::ActBatch::kCapacity) == 0)
        drained_ = true;
}

// --------------------------------------------------- TraceFileStream

TraceFileStream::TraceFileStream(const std::string &path)
    : TraceFileStream(std::make_unique<engine::ActTraceSource>(path))
{
}

TraceFileStream::TraceFileStream(
    std::unique_ptr<engine::ActTraceSource> source)
    : geometry_(traceGeometry(source->info())),
      cursor_(std::move(source))
{
}

bool
TraceFileStream::next(TraceRecord &out)
{
    if (!cursor_.peek(out))
        return false;
    cursor_.pop();
    return true;
}

} // namespace mithril::trace
