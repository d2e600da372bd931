#include "trace/record_stream.hh"

#include <string>
#include <utility>

#include "common/logging.hh"

namespace mithril::trace
{

// ------------------------------------------------------ SourceCursor

SourceCursor::SourceCursor(std::unique_ptr<engine::ActSource> source)
    : source_(std::move(source))
{
    // ActTraceSource::shardSlice() never returns null; a null slice
    // means "no native slice" to the sharded engine only.
    MITHRIL_ASSERT(source_ != nullptr);
}

bool
SourceCursor::refill()
{
    if (drained_)
        return false;
    // One scratch batch per thread serves every cursor: a refill
    // decodes at most kBufferRecords records and copies them out
    // before any other cursor refills. It is allocated on first use,
    // so threads that never compose carry only the pointer.
    thread_local const std::unique_ptr<engine::ActBatch> scratch =
        std::make_unique<engine::ActBatch>();
    scratch->clear();
    const std::size_t n = source_->fill(*scratch, kBufferRecords);
    for (std::size_t i = 0; i < n; ++i)
        buffer_[i] = scratch->record(i);
    pos_ = 0;
    size_ = static_cast<std::uint32_t>(n);
    drained_ = n == 0;
    return !drained_;
}

// --------------------------------------------------- TraceFileStream

TraceFileStream::TraceFileStream(const std::string &path)
    : TraceFileStream(std::make_unique<engine::ActTraceSource>(path))
{
}

TraceFileStream::TraceFileStream(
    std::unique_ptr<engine::ActTraceSource> source)
    : geometry_(source->info().geometry()),
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
