#include "act_trace.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "registry/registry.hh"
#include "registry/source_registry.hh"

namespace mithril::engine
{

// 19 chars + '\n'; the version lives in the magic itself.
const char kActTraceMagic[21] = "mithril.acttrace.v1\n";

namespace
{

using registry::SpecError;

constexpr std::size_t kMagicBytes = 20;
constexpr std::uint32_t kChunkMagic = 0x4b4e4843; // "CHNK" LE
constexpr std::uint32_t kIndexMagic = 0x31584449; // "IDX1" LE
constexpr char kEndMagic[9] = "mact.end";
constexpr std::size_t kEndMagicBytes = 8;
constexpr std::size_t kFooterBytes = 8 + 8 + kEndMagicBytes;
// magic + 4 geometry u32 + seed u64 + meta length u32.
constexpr std::size_t kHeaderFixedBytes = kMagicBytes + 16 + 8 + 4;
constexpr std::size_t kMaxMetaBytes = 1 << 20;

[[noreturn]] void
corrupt(const std::string &path, const std::string &what)
{
    throw SpecError("act-trace '" + path + "': " + what);
}

// ------------------------------------------- little-endian scalars

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    putU32(out, static_cast<std::uint32_t>(v));
    putU32(out, static_cast<std::uint32_t>(v >> 32));
}

void
putBytes(std::vector<std::uint8_t> &out, const char *data,
         std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(static_cast<std::uint8_t>(data[i]));
}

/** Bounds-checked cursor over a byte buffer; throws on overrun. */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size,
               const std::string &path, const char *what)
        : data_(data), size_(size), path_(path), what_(what)
    {
    }

    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return size_ - pos_; }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_ + i])
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        const std::uint64_t lo = u32();
        const std::uint64_t hi = u32();
        return lo | (hi << 32);
    }

    /** LEB128 unsigned varint (max 10 bytes). */
    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            need(1);
            const std::uint8_t byte = data_[pos_++];
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return v;
        }
        corrupt(path_, std::string(what_) + ": varint overruns 64 bits");
    }

  private:
    void
    need(std::size_t n)
    {
        if (size_ - pos_ < n)
            corrupt(path_, std::string(what_) +
                               ": ends mid-record (wanted " +
                               std::to_string(n) + " more bytes)");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    const std::string &path_;
    const char *what_;
};

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

std::string
geometryText(std::uint32_t channels, std::uint32_t ranks,
             std::uint32_t banks, std::uint32_t rows)
{
    return std::to_string(channels) + "x" + std::to_string(ranks) +
           "x" + std::to_string(banks) + " banks, " +
           std::to_string(rows) + " rows";
}

} // namespace

// ----------------------------------------------------- ActTraceInfo

bool
ActTraceInfo::matches(const dram::Geometry &geometry) const
{
    return channels == geometry.channels &&
           ranksPerChannel == geometry.ranksPerChannel &&
           banksPerRank == geometry.banksPerRank &&
           rowsPerBank == geometry.rowsPerBank;
}

std::string
ActTraceInfo::describe() const
{
    std::ostringstream os;
    os << "mithril.acttrace.v1 channels=" << channels
       << " ranks=" << ranksPerChannel << " banks=" << banksPerRank
       << " rows=" << rowsPerBank << " seed=" << seed
       << " records=" << records << " chunks=" << chunks
       << " meta=\"" << meta << "\"\n";
    for (std::size_t b = 0; b < perBank.size(); ++b) {
        if (perBank[b] != 0)
            os << "bank " << b << ": " << perBank[b] << "\n";
    }
    return os.str();
}

// --------------------------------------------------- ActTraceWriter

ActTraceWriter::ActTraceWriter(const std::string &path,
                               const dram::Geometry &geometry,
                               std::uint64_t seed,
                               const std::string &meta)
    : path_(path), tmpPath_(path + ".tmp"),
      totalBanks_(geometry.totalBanks()),
      rowsPerBank_(geometry.rowsPerBank)
{
    if (totalBanks_ == 0 || rowsPerBank_ == 0)
        throw SpecError("act-trace '" + path +
                        "': cannot record an empty geometry");
    if (meta.size() > kMaxMetaBytes)
        throw SpecError("act-trace '" + path + "': meta exceeds " +
                        std::to_string(kMaxMetaBytes) + " bytes");
    // Crash safety: every byte lands in the temporary until
    // finalize() renames it into place, so `path` either holds a
    // complete earlier trace or nothing — never a torn capture.
    file_ = std::fopen(tmpPath_.c_str(), "wb");
    if (!file_)
        throw SpecError("act-trace '" + path +
                        "': cannot open '" + tmpPath_ +
                        "' for writing: " + std::strerror(errno));
    buffers_.resize(totalBanks_);
    lastTick_.assign(totalBanks_, std::numeric_limits<Tick>::min());

    scratch_.clear();
    putBytes(scratch_, kActTraceMagic, kMagicBytes);
    putU32(scratch_, geometry.channels);
    putU32(scratch_, geometry.ranksPerChannel);
    putU32(scratch_, geometry.banksPerRank);
    putU32(scratch_, geometry.rowsPerBank);
    putU64(scratch_, seed);
    putU32(scratch_, static_cast<std::uint32_t>(meta.size()));
    putBytes(scratch_, meta.data(), meta.size());
    writeRaw(scratch_.data(), scratch_.size());
}

ActTraceWriter::~ActTraceWriter()
{
    if (finalized_)
        return;
    // Deliberately NO finalize here: the destructor mostly runs
    // during exception unwind (a capture that died mid-run), and
    // publishing a valid index+footer over partial data would produce
    // a truncated trace indistinguishable from a complete one. Drop
    // the temporary — nothing appears at the published path — and
    // say so.
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
        std::remove(tmpPath_.c_str());
    }
    if (records_ > 0)
        warn("act-trace '%s': abandoned without finalize() after "
             "%llu records; the partial capture was discarded",
             path_.c_str(),
             static_cast<unsigned long long>(records_));
}

void
ActTraceWriter::writeRaw(const void *data, std::size_t n)
{
    MITHRIL_ASSERT(file_ != nullptr);
    if (std::fwrite(data, 1, n, file_) != n)
        throw SpecError("act-trace '" + path_ + "': write failed");
    fileOffset_ += n;
}

void
ActTraceWriter::append(BankId bank, RowId row, Tick tick)
{
    if (finalized_)
        throw SpecError("act-trace '" + path_ +
                        "': append after finalize");
    if (bank >= totalBanks_) {
        throw SpecError("act-trace '" + path_ + "': bank " +
                        std::to_string(bank) +
                        " outside the declared geometry (" +
                        std::to_string(totalBanks_) + " banks)");
    }
    if (row >= rowsPerBank_) {
        throw SpecError("act-trace '" + path_ + "': row " +
                        std::to_string(row) +
                        " outside the declared geometry (" +
                        std::to_string(rowsPerBank_) + " rows)");
    }
    if (tick < 0 || (lastTick_[bank] !=
                         std::numeric_limits<Tick>::min() &&
                     tick < lastTick_[bank])) {
        throw SpecError(
            "act-trace '" + path_ + "': tick " +
            std::to_string(tick) + " regresses on bank " +
            std::to_string(bank) +
            " (ticks must be non-decreasing per bank)");
    }
    lastTick_[bank] = tick;
    buffers_[bank].rows.push_back(row);
    buffers_[bank].ticks.push_back(tick);
    ++buffered_;
    ++records_;
    if (buffered_ >= kChunkRecords)
        flushChunk();
}

void
ActTraceWriter::flushChunk()
{
    if (buffered_ == 0)
        return;

    IndexChunk chunk;
    chunk.offset = fileOffset_;

    // Chunk header: magic + block count.
    std::uint32_t block_count = 0;
    for (const BankBuffer &buf : buffers_)
        block_count += buf.rows.empty() ? 0 : 1;
    scratch_.clear();
    putU32(scratch_, kChunkMagic);
    putU32(scratch_, block_count);
    writeRaw(scratch_.data(), scratch_.size());

    // Blocks in ascending bank order (the canonical replay order).
    for (std::uint32_t bank = 0; bank < totalBanks_; ++bank) {
        BankBuffer &buf = buffers_[bank];
        if (buf.rows.empty())
            continue;

        scratch_.clear();
        RowId prev_row = 0;
        Tick prev_tick = 0;
        for (std::size_t i = 0; i < buf.rows.size(); ++i) {
            if (i == 0) {
                putVarint(scratch_, buf.rows[i]);
                putVarint(scratch_,
                          static_cast<std::uint64_t>(buf.ticks[i]));
            } else {
                putVarint(scratch_,
                          zigzag(static_cast<std::int64_t>(
                                     buf.rows[i]) -
                                 static_cast<std::int64_t>(prev_row)));
                putVarint(scratch_, static_cast<std::uint64_t>(
                                        buf.ticks[i] - prev_tick));
            }
            prev_row = buf.rows[i];
            prev_tick = buf.ticks[i];
        }

        IndexBlock block;
        block.bank = bank;
        block.count = static_cast<std::uint32_t>(buf.rows.size());
        block.payloadBytes =
            static_cast<std::uint32_t>(scratch_.size());
        chunk.blocks.push_back(block);

        std::vector<std::uint8_t> head;
        putU32(head, block.bank);
        putU32(head, block.count);
        putU32(head, block.payloadBytes);
        writeRaw(head.data(), head.size());
        writeRaw(scratch_.data(), scratch_.size());

        buf.rows.clear();
        buf.ticks.clear();
    }

    index_.push_back(std::move(chunk));
    buffered_ = 0;
}

void
ActTraceWriter::finalize()
{
    if (finalized_)
        return;
    // Before any footer byte lands: an injected failure here must
    // leave only the temporary (which the destructor removes), never
    // a published half-trace.
    MITHRIL_FAILPOINT("act-trace.finalize");
    flushChunk();

    const std::uint64_t index_offset = fileOffset_;
    scratch_.clear();
    putU32(scratch_, kIndexMagic);
    putU64(scratch_, index_.size());
    for (const IndexChunk &chunk : index_) {
        putU64(scratch_, chunk.offset);
        putU32(scratch_, static_cast<std::uint32_t>(
                             chunk.blocks.size()));
        for (const IndexBlock &block : chunk.blocks) {
            putU32(scratch_, block.bank);
            putU32(scratch_, block.count);
            putU32(scratch_, block.payloadBytes);
        }
    }
    putU64(scratch_, index_offset);
    putU64(scratch_, records_);
    putBytes(scratch_, kEndMagic, kEndMagicBytes);
    writeRaw(scratch_.data(), scratch_.size());

    if (std::fclose(file_) != 0) {
        file_ = nullptr;
        std::remove(tmpPath_.c_str());
        throw SpecError("act-trace '" + path_ + "': close failed");
    }
    file_ = nullptr;
    // Atomic publish: readers either see the previous complete file
    // or this one, never a prefix.
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        std::remove(tmpPath_.c_str());
        throw SpecError("act-trace '" + path_ + "': renaming '" +
                        tmpPath_ + "' into place failed");
    }
    finalized_ = true;
}

// ----------------------------------------------------- trace parsing

namespace
{

/** Injection sites for the resilience machinery (see --list
 *  failpoints and README "Resilience"). */
const failpoint::SiteRegistrar kFpDecode{
    "act-trace.decode",
    "fail a trace block decode (ActTraceSource::loadBlock) — what a "
    "truncated or bit-rotted replay corpus looks like to a sweep job"};
const failpoint::SiteRegistrar kFpFinalize{
    "act-trace.finalize",
    "fail ActTraceWriter::finalize before the tmp+rename publish — "
    "the capture/compose is lost but no torn file appears"};

} // namespace

ActTraceSource::Mapping::Mapping(const std::string &path)
{
    // Check the path before opening it: open() on a FIFO blocks
    // until a writer appears, and a directory would otherwise surface
    // as a misleading "truncated header".
    struct ::stat st {};
    if (::stat(path.c_str(), &st) != 0)
        corrupt(path, std::strerror(errno));
    if (S_ISDIR(st.st_mode))
        corrupt(path, "is a directory, not a trace file");
    if (!S_ISREG(st.st_mode))
        corrupt(path, "not a regular file");
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        corrupt(path, std::string("cannot open for reading: ") +
                          std::strerror(errno));
    // Size the opened file, not the path: a trace republished by
    // rename in between is another inode.
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        corrupt(path, std::string("cannot stat: ") + std::strerror(err));
    }
    size = static_cast<std::size_t>(st.st_size);
    // A zero-length mmap is EINVAL; an empty file stays an empty
    // span, which parse() rejects as a truncated header.
    void *mem = size == 0 ? nullptr
                          : ::mmap(nullptr, size, PROT_READ,
                                   MAP_PRIVATE, fd, 0);
    const int err = errno;
    ::close(fd);
    if (mem == MAP_FAILED)
        corrupt(path, std::string("mmap failed: ") + std::strerror(err));
    data = static_cast<const std::uint8_t *>(mem);
}

ActTraceSource::Mapping::~Mapping()
{
    if (data)
        ::munmap(const_cast<std::uint8_t *>(data), size);
}

std::shared_ptr<const ActTraceSource::Parsed>
ActTraceSource::parse(const std::string &path)
{
    auto parsed = std::make_shared<Parsed>(path);
    Parsed &out = *parsed;
    const std::uint8_t *bytes = out.map.data;
    const std::uint64_t size = out.map.size;

    // ---- header
    if (size < kHeaderFixedBytes)
        corrupt(path, "truncated header (" + std::to_string(size) +
                          " bytes)");
    if (std::memcmp(bytes, kActTraceMagic, kMagicBytes) != 0)
        corrupt(path, "bad magic (not a mithril.acttrace.v1 file)");
    ByteReader header(bytes + kMagicBytes,
                      kHeaderFixedBytes - kMagicBytes, path, "header");
    ActTraceInfo &info = out.info;
    info.channels = header.u32();
    info.ranksPerChannel = header.u32();
    info.banksPerRank = header.u32();
    info.rowsPerBank = header.u32();
    info.seed = header.u64();
    const std::uint32_t meta_len = header.u32();
    // Bound the geometry BEFORE sizing anything by it: a crafted
    // header must become a SpecError, not a multi-gigabyte perBank
    // allocation (and the 64-bit product also rejects fields whose
    // uint32 totalBanks() would wrap to something small).
    const std::uint64_t banks64 =
        static_cast<std::uint64_t>(info.channels) *
        info.ranksPerChannel * info.banksPerRank;
    if (banks64 == 0 || info.rowsPerBank == 0)
        corrupt(path, "header declares an empty geometry");
    if (banks64 > (1u << 20) || info.rowsPerBank > (1u << 30))
        corrupt(path, "header declares an implausible geometry (" +
                          std::to_string(banks64) + " banks, " +
                          std::to_string(info.rowsPerBank) +
                          " rows)");
    if (meta_len > kMaxMetaBytes ||
        kHeaderFixedBytes + meta_len > size)
        corrupt(path, "meta length " + std::to_string(meta_len) +
                          " overruns the file");
    info.meta.assign(
        reinterpret_cast<const char *>(bytes + kHeaderFixedBytes),
        meta_len);
    const std::uint64_t data_begin = kHeaderFixedBytes + meta_len;

    // ---- footer
    if (size < data_begin + kFooterBytes)
        corrupt(path, "truncated footer (no index written — "
                      "incomplete capture?)");
    const std::uint8_t *foot = bytes + (size - kFooterBytes);
    if (std::memcmp(foot + 16, kEndMagic, kEndMagicBytes) != 0)
        corrupt(path, "bad end marker (incomplete capture?)");
    ByteReader footer(foot, 16, path, "footer");
    const std::uint64_t index_offset = footer.u64();
    const std::uint64_t total_records = footer.u64();
    if (index_offset < data_begin ||
        index_offset > size - kFooterBytes)
        corrupt(path, "index offset " +
                          std::to_string(index_offset) +
                          " outside the file");

    // ---- index
    const std::size_t index_bytes = static_cast<std::size_t>(
        size - kFooterBytes - index_offset);
    ByteReader index(bytes + index_offset, index_bytes, path, "index");
    if (index.u32() != kIndexMagic)
        corrupt(path, "bad index magic");
    const std::uint64_t chunk_count = index.u64();
    // Every chunk needs >= 12 index bytes; reject absurd counts
    // before the loop below walks off a lie.
    if (chunk_count > index_bytes)
        corrupt(path, "index declares " +
                          std::to_string(chunk_count) + " chunks in " +
                          std::to_string(index_bytes) + " bytes");
    info.chunks = chunk_count;
    info.perBank.assign(info.totalBanks(), 0);

    std::uint64_t expected_offset = data_begin;
    std::uint64_t records = 0;
    for (std::uint64_t c = 0; c < chunk_count; ++c) {
        const std::uint64_t chunk_offset = index.u64();
        const std::uint32_t block_count = index.u32();
        if (chunk_offset != expected_offset)
            corrupt(path, "chunk " + std::to_string(c) +
                              " offset mismatch (index says " +
                              std::to_string(chunk_offset) +
                              ", expected " +
                              std::to_string(expected_offset) + ")");
        if (block_count == 0 || block_count > info.totalBanks())
            corrupt(path, "chunk " + std::to_string(c) +
                              " declares " +
                              std::to_string(block_count) +
                              " blocks for " +
                              std::to_string(info.totalBanks()) +
                              " banks");
        // Cross-check the in-band chunk header against the index, so
        // corruption in the data section's framing is caught at open
        // (loadBlock does the same for the per-block headers). The
        // header must sit in the data section, before the index.
        {
            ByteReader head(bytes + chunk_offset,
                            index_offset - chunk_offset, path,
                            "chunk header");
            if (head.u32() != kChunkMagic ||
                head.u32() != block_count)
                corrupt(path, "chunk " + std::to_string(c) +
                                  " header disagrees with the "
                                  "index");
        }
        // Payloads start after the chunk header and each block's
        // 12-byte header.
        std::uint64_t cursor = chunk_offset + 8;
        std::uint32_t prev_bank = 0;
        bool first = true;
        for (std::uint32_t b = 0; b < block_count; ++b) {
            IndexBlock block;
            block.bank = index.u32();
            block.count = index.u32();
            block.payloadBytes = index.u32();
            if (block.bank >= info.totalBanks())
                corrupt(path, "block bank " +
                                  std::to_string(block.bank) +
                                  " outside the declared geometry (" +
                                  std::to_string(info.totalBanks()) +
                                  " banks)");
            if (!first && block.bank <= prev_bank)
                corrupt(path, "chunk " + std::to_string(c) +
                                  " blocks are not in ascending "
                                  "bank order");
            if (block.count == 0)
                corrupt(path, "empty block for bank " +
                                  std::to_string(block.bank));
            // A record takes at least 2 payload bytes (row + tick
            // varints); an impossible count/size pair is corruption,
            // caught here rather than mid-decode.
            if (block.payloadBytes < 2ull * block.count)
                corrupt(path, "block for bank " +
                                  std::to_string(block.bank) +
                                  " declares " +
                                  std::to_string(block.count) +
                                  " records in " +
                                  std::to_string(block.payloadBytes) +
                                  " bytes");
            cursor += 12;
            block.payloadOffset = cursor;
            cursor += block.payloadBytes;
            if (cursor > index_offset)
                corrupt(path, "block payload for bank " +
                                  std::to_string(block.bank) +
                                  " overruns into the index");
            records += block.count;
            info.perBank[block.bank] += block.count;
            prev_bank = block.bank;
            first = false;
            out.blocks.push_back(block);
        }
        expected_offset = cursor;
    }
    if (expected_offset != index_offset)
        corrupt(path, "data section ends at " +
                          std::to_string(expected_offset) +
                          " but the index starts at " +
                          std::to_string(index_offset));
    if (index.remaining() != 0)
        corrupt(path, "index has " +
                          std::to_string(index.remaining()) +
                          " trailing bytes");
    if (records != total_records)
        corrupt(path, "footer declares " +
                          std::to_string(total_records) +
                          " records but the index sums to " +
                          std::to_string(records));
    info.records = records;
    return parsed;
}

ActTraceInfo
actTraceInfo(const std::string &path)
{
    return ActTraceSource(path).info();
}

// --------------------------------------------------- ActTraceSource

// Full stream = the range [0, max bank id): no sentinel, an explicit
// [0, 0) slice really is empty.
ActTraceSource::ActTraceSource(const std::string &path,
                               std::uint64_t max_records)
    : path_(path), parsed_(parse(path)), lo_(0), hi_(~BankId{0}),
      budget_(max_records)
{
}

ActTraceSource::ActTraceSource(const ActTraceSource &parsed,
                               BankId lo, BankId hi,
                               std::uint64_t max_records)
    : path_(parsed.path_), parsed_(parsed.parsed_), lo_(lo),
      hi_(hi), budget_(max_records)
{
}

std::string
ActTraceSource::name() const
{
    std::string name = "act-trace:" + path_;
    if (lo_ != 0 || hi_ < info().totalBanks())
        name += "[" + std::to_string(lo_) + "," +
                std::to_string(hi_) + ")";
    return name;
}

std::unique_ptr<ActSource>
ActTraceSource::shardSlice(BankId lo, BankId hi, std::uint64_t budget)
{
    // Slices only make sense off the pristine full stream.
    MITHRIL_ASSERT(blockCursor_ == 0 && blockRemaining_ == 0);
    // The header, index and mapping are immutable once parsed: the
    // slice reuses them, so a 16-shard replay maps the file and
    // parses the index once, not 16 more times.
    return std::unique_ptr<ActSource>(new ActTraceSource(
        *this, lo, hi, std::min(budget, budget_)));
}

void
ActTraceSource::loadBlock(const IndexBlock &block)
{
    MITHRIL_FAILPOINT("act-trace.decode");
    // Cross-check the in-band block header against the index before
    // trusting the payload (catches spliced/overwritten data that a
    // consistent index would otherwise hide). parse() bounded every
    // payload inside [data_begin, index_offset), so header and
    // payload both sit inside the mapping.
    const std::uint8_t *head =
        parsed_->map.data + (block.payloadOffset - 12);
    ByteReader reader(head, 12, path_, "block header");
    const std::uint32_t bank = reader.u32();
    const std::uint32_t count = reader.u32();
    const std::uint32_t bytes = reader.u32();
    if (bank != block.bank || count != block.count ||
        bytes != block.payloadBytes)
        corrupt(path_, "block header disagrees with the index "
                       "(bank " +
                           std::to_string(bank) + " vs " +
                           std::to_string(block.bank) + ")");
    blockData_ = head + 12;
    blockSize_ = block.payloadBytes;
    decodePos_ = 0;
    first_ = true;
    blockBank_ = block.bank;
}

bool
ActTraceSource::nextBlock()
{
    while (blockCursor_ < parsed_->blocks.size()) {
        if (budget_ == 0)
            return false;
        const IndexBlock &block = parsed_->blocks[blockCursor_];
        ++blockCursor_;
        // The canonical prefix consumes this block's records whether
        // or not they fall in our bank range.
        const std::uint64_t take =
            std::min<std::uint64_t>(block.count, budget_);
        budget_ -= take;
        if (block.bank < lo_ || block.bank >= hi_)
            continue;
        loadBlock(block);
        blockRemaining_ = take;
        blockTruncated_ = take < block.count;
        return true;
    }
    return false;
}

void
ActTraceSource::blockTickSpan(const IndexBlock &block, Tick *first,
                              Tick *last)
{
    ByteReader r(parsed_->map.data + block.payloadOffset,
                 block.payloadBytes, path_, "block payload");
    r.varint(); // First row (zigzag-encoded raw value; unused here).
    const std::uint64_t raw_tick = r.varint();
    if (raw_tick > static_cast<std::uint64_t>(kTickMax))
        corrupt(path_, "tick overflows");
    Tick tick = static_cast<Tick>(raw_tick);
    *first = tick;
    for (std::uint32_t i = 1; i < block.count; ++i) {
        r.varint(); // Row delta.
        const std::uint64_t delta = r.varint();
        if (delta > static_cast<std::uint64_t>(kTickMax) -
                        static_cast<std::uint64_t>(tick))
            corrupt(path_, "tick overflows");
        tick += static_cast<Tick>(delta);
    }
    *last = tick;
}

std::vector<ActTraceBankSpan>
ActTraceSource::bankSpans()
{
    // The index orders blocks canonically (chunk-major, ascending
    // bank within a chunk) and each bank's subsequence is tick-
    // monotone across blocks, so a bank's span is [first tick of its
    // first block, last tick of its last block] — two block decodes
    // per touched bank, never a full scan.
    const std::uint32_t banks = info().totalBanks();
    std::vector<const IndexBlock *> head(banks, nullptr);
    std::vector<const IndexBlock *> tail(banks, nullptr);
    for (const IndexBlock &block : parsed_->blocks) {
        if (!head[block.bank])
            head[block.bank] = &block;
        tail[block.bank] = &block;
    }
    std::vector<ActTraceBankSpan> spans(banks);
    for (std::uint32_t b = 0; b < banks; ++b) {
        spans[b].count = info().perBank[b];
        if (!head[b])
            continue;
        Tick last_of_first;
        blockTickSpan(*head[b], &spans[b].first, &last_of_first);
        if (tail[b] == head[b]) {
            spans[b].last = last_of_first;
        } else {
            Tick first_of_last;
            blockTickSpan(*tail[b], &first_of_last, &spans[b].last);
        }
    }
    return spans;
}

std::size_t
ActTraceSource::fill(ActBatch &batch, std::size_t limit)
{
    std::size_t appended = 0;
    while (appended < limit && !batch.full()) {
        if (blockRemaining_ == 0) {
            if (!nextBlock())
                break;
        }
        while (blockRemaining_ > 0 && appended < limit &&
               !batch.full()) {
            ByteReader r(blockData_ + decodePos_,
                         blockSize_ - decodePos_, path_,
                         "block payload");
            RowId row;
            Tick tick;
            if (first_) {
                const std::uint64_t raw_row = r.varint();
                const std::uint64_t raw_tick = r.varint();
                if (raw_row >= info().rowsPerBank)
                    corrupt(path_,
                            "row " + std::to_string(raw_row) +
                                " outside the declared geometry (" +
                                std::to_string(info().rowsPerBank) +
                                " rows)");
                if (raw_tick >
                    static_cast<std::uint64_t>(kTickMax))
                    corrupt(path_, "tick overflows");
                row = static_cast<RowId>(raw_row);
                tick = static_cast<Tick>(raw_tick);
                first_ = false;
            } else {
                const std::int64_t row_delta =
                    unzigzag(r.varint());
                const std::uint64_t tick_delta = r.varint();
                const std::int64_t next_row =
                    static_cast<std::int64_t>(prevRow_) + row_delta;
                if (next_row < 0 ||
                    next_row >=
                        static_cast<std::int64_t>(info().rowsPerBank))
                    corrupt(path_,
                            "row delta leaves the declared "
                            "geometry (row " +
                                std::to_string(next_row) + ")");
                if (tick_delta >
                    static_cast<std::uint64_t>(kTickMax) -
                        static_cast<std::uint64_t>(prevTick_))
                    corrupt(path_, "tick overflows");
                row = static_cast<RowId>(next_row);
                tick = prevTick_ + static_cast<Tick>(tick_delta);
            }
            decodePos_ += r.pos();
            prevRow_ = row;
            prevTick_ = tick;
            batch.push(blockBank_, row, tick);
            ++appended;
            --blockRemaining_;
        }
        // Trailing payload bytes after the last promised record are
        // corruption — unless the replay budget truncated the block,
        // in which case the undecoded tail is expected.
        if (blockRemaining_ == 0 && !blockTruncated_ &&
            decodePos_ != blockSize_)
            corrupt(path_, "block payload for bank " +
                               std::to_string(blockBank_) +
                               " has trailing bytes");
    }
    return appended;
}

// -------------------------------------------------- RecordingSource

RecordingSource::RecordingSource(std::unique_ptr<ActSource> inner,
                                 ActTraceWriter *writer)
    : inner_(std::move(inner)), writer_(writer)
{
    MITHRIL_ASSERT(inner_ != nullptr && writer_ != nullptr);
}

std::string
RecordingSource::name() const
{
    return "record:" + inner_->name();
}

std::size_t
RecordingSource::fill(ActBatch &batch, std::size_t limit)
{
    const std::size_t before = batch.size();
    const std::size_t n = inner_->fill(batch, limit);
    for (std::size_t i = before; i < before + n; ++i) {
        const ActRecord rec = batch.record(i);
        writer_->append(rec.bank, rec.row, rec.tick);
    }
    return n;
}

// ---------------------------------------------------- registration
//
// The replay entry: a captured raw ACT stream driven back through the
// engine. Distinct from "trace-file", which replays instruction-level
// Ramulator-style traces through the address map.

namespace
{

const registry::Registrar<registry::SourceTraits> kRegisterActTrace{{
    /*name=*/"act-trace",
    /*display=*/"act-trace",
    /*description=*/
    "replay a captured mithril.acttrace.v1 ACT stream (written by "
    "record= or composed by the trace-ops pipeline; see --list "
    "trace-ops), seeking per shard through its bank index",
    /*aliases=*/{"act_trace"},
    /*uses=*/"acts (replay budget), seed (ignored: the stream is "
             "already fixed)",
    /*params=*/
    {{"trace", registry::ParamDesc::Type::String, "", 0, 0,
      "path of the captured .acttrace file (required)"}},
    /*make=*/
    [](const ParamSet &params, const registry::SourceContext &ctx)
        -> std::unique_ptr<ActSource> {
        const std::string path = params.getString("trace", "");
        if (path.empty()) {
            throw registry::SpecError(
                "source 'act-trace' needs trace=<path> (capture one "
                "with record=<path> on any run, or compose one with "
                "trace_cli)");
        }
        auto source = std::make_unique<ActTraceSource>(path);
        const ActTraceInfo &info = source->info();
        if (!info.matches(ctx.geometry)) {
            throw registry::SpecError(
                "act-trace '" + path + "': geometry mismatch — "
                "trace was captured on " +
                geometryText(info.channels, info.ranksPerChannel,
                             info.banksPerRank, info.rowsPerBank) +
                ", this run has " +
                geometryText(ctx.geometry.channels,
                             ctx.geometry.ranksPerChannel,
                             ctx.geometry.banksPerRank,
                             ctx.geometry.rowsPerBank));
        }
        return source;
    },
}};

} // namespace

} // namespace mithril::engine
