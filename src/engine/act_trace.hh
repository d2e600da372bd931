/**
 * @file
 * The on-disk ACT-stream capture/replay format `mithril.acttrace.v1`
 * and its writer/reader sources.
 *
 * A trace is the activation stream a run fed its tracker — the
 * per-bank subsequences of (tick, bank, row) — captured once so every
 * protection scheme can replay it at engine speed, sharded. Layout:
 *
 *   header   20-byte magic "mithril.acttrace.v1\n", the geometry the
 *            stream aims at (channels/ranks/banks/rows), the run
 *            seed, and a free-form meta string (the capturing spec's
 *            describe() line).
 *   chunks   records buffered in arrival order and flushed as chunks
 *            of per-bank sub-blocks (ascending bank). Within a block,
 *            rows are zigzag-delta varints and ticks non-negative
 *            delta varints against the previous record of the SAME
 *            bank in the block (first record raw), so blocks are
 *            self-contained and seekable.
 *   index    one entry per chunk listing every block's (bank, count,
 *            payload bytes) — what lets a shard reader seek straight
 *            to its own banks without touching the rest of the file.
 *   footer   fixed 24-byte tail: index offset, total records, end
 *            marker.
 *
 * Chunking canonicalizes the *cross-bank* interleaving (a chunk
 * replays its blocks in ascending bank order) while preserving every
 * per-bank subsequence exactly. Engine results are invariant to
 * cross-bank order — each bank is an independent clock — so a replay
 * is byte-identical to the run the stream was captured from, at any
 * shard or pool count. A bounded replay (acts= below the record
 * count) takes a prefix of the canonical order, identically in the
 * linear and the seeking reader.
 *
 * Every structural defect — truncation, bad magic, out-of-range
 * bank/row, a payload that ends mid-record, index/footer mismatch —
 * raises registry::SpecError, so a corrupt trace fails its job
 * cleanly in the sweep sinks instead of corrupting a run.
 */

#ifndef MITHRIL_ENGINE_ACT_TRACE_HH
#define MITHRIL_ENGINE_ACT_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dram/timing.hh"
#include "engine/act_source.hh"

namespace mithril::engine
{

/** The 20-byte file magic (includes the format version). */
extern const char kActTraceMagic[21];

/** Parsed header + index summary of one trace file. */
struct ActTraceInfo
{
    std::uint32_t channels = 0;
    std::uint32_t ranksPerChannel = 0;
    std::uint32_t banksPerRank = 0;
    std::uint32_t rowsPerBank = 0;
    std::uint64_t seed = 0;
    std::string meta;
    std::uint64_t records = 0;
    std::uint64_t chunks = 0;
    /** Records per bank (flat index, length = total banks). */
    std::vector<std::uint64_t> perBank;

    std::uint32_t totalBanks() const
    {
        return channels * ranksPerChannel * banksPerRank;
    }

    /** True when the trace aims at exactly this run geometry. */
    bool matches(const dram::Geometry &geometry) const;

    /**
     * Deterministic multi-line dump (header line, then one
     * "bank N: count" line per non-empty bank) — the golden-file
     * surface that pins the format across PRs.
     */
    std::string describe() const;
};

/** One bank's tick extent, computed from the block index alone. */
struct ActTraceBankSpan
{
    std::uint64_t count = 0;
    Tick first = 0;
    Tick last = 0;
};

/**
 * Shim with nothing left to choose: every reader decodes from one
 * read-only mapping of the file, and the constructor that takes this
 * ignores it. It remains only because the benchmark driver under
 * perfbench/ constructs `ActTraceSource(path,
 * ActTraceReadOptions{true})`; no other code may use it.
 */
struct ActTraceReadOptions
{
    bool mmap = true; //!< Ignored.
};

/**
 * Streaming trace writer. append() validates eagerly (bank/row inside
 * the declared geometry, ticks non-decreasing per bank) and throws
 * registry::SpecError on violation or I/O failure; finalize() flushes
 * the last chunk, writes index + footer, and atomically renames the
 * file into place — all bytes land in `<path>.tmp` until then, so an
 * interrupted capture or compose never leaves a half-written trace
 * at the published path for a later sweep job to trip over. The
 * destructor only closes and removes the temporary (with a warning):
 * it mostly runs during exception unwind, and publishing a partial
 * capture would make a truncated trace indistinguishable from a
 * complete one. A capture that dies before finalize() leaves nothing
 * at `path`.
 */
class ActTraceWriter
{
  public:
    /** Records buffered before a chunk is flushed. */
    static constexpr std::size_t kChunkRecords = 8192;

    ActTraceWriter(const std::string &path,
                   const dram::Geometry &geometry, std::uint64_t seed,
                   const std::string &meta);
    ~ActTraceWriter();

    ActTraceWriter(const ActTraceWriter &) = delete;
    ActTraceWriter &operator=(const ActTraceWriter &) = delete;

    /** Append one activation (arrival order). */
    void append(BankId bank, RowId row, Tick tick);

    /** Flush, write index + footer, close, rename into place.
     *  Idempotent. */
    void finalize();

    std::uint64_t records() const { return records_; }
    const std::string &path() const { return path_; }

  private:
    struct BankBuffer
    {
        std::vector<RowId> rows;
        std::vector<Tick> ticks;
    };

    struct IndexBlock
    {
        std::uint32_t bank = 0;
        std::uint32_t count = 0;
        std::uint32_t payloadBytes = 0;
    };

    struct IndexChunk
    {
        std::uint64_t offset = 0; //!< Chunk header file offset.
        std::vector<IndexBlock> blocks;
    };

    void flushChunk();
    void writeRaw(const void *data, std::size_t n);

    std::string path_;
    std::string tmpPath_;   //!< Where bytes land until finalize().
    std::FILE *file_ = nullptr;
    std::uint32_t totalBanks_;
    std::uint32_t rowsPerBank_;

    std::vector<BankBuffer> buffers_;    //!< Per bank.
    std::vector<Tick> lastTick_;         //!< Per bank, monotonicity.
    std::size_t buffered_ = 0;
    std::uint64_t records_ = 0;
    std::uint64_t fileOffset_ = 0;
    std::vector<IndexChunk> index_;
    std::vector<std::uint8_t> scratch_;  //!< Encode buffer, reused.
    bool finalized_ = false;
};

/** Parse a trace's header + index; throws registry::SpecError. */
ActTraceInfo actTraceInfo(const std::string &path);

/**
 * Replay source over a trace file — the whole stream in canonical
 * order, or a bank-range slice [lo, hi) that *seeks*: blocks of other
 * banks are skipped via the index without reading their payloads.
 * `max_records` bounds the canonical global prefix the source will
 * replay (out-of-range blocks still consume budget), so a range
 * slice emits exactly the in-range records a BankFilterSource over
 * the bounded full stream would — the contract behind shardSlice().
 *
 * Opening a source maps the whole file read-only once and closes the
 * descriptor; the reader and all its slices decode straight from
 * that one shared mapping (the page cache is the buffer) and hold no
 * file handles, so per-shard readers can run on different threads
 * and per-(bank) cursors are cheap enough for k-way merges over many
 * inputs. A path that is not a regular file, or a file that cannot
 * be mapped, is a SpecError.
 */
class ActTraceSource : public ActSource
{
  public:
    explicit ActTraceSource(const std::string &path,
                            std::uint64_t max_records = ~0ull);
    /** The shim constructor (see ActTraceReadOptions). */
    ActTraceSource(const std::string &path, ActTraceReadOptions,
                   std::uint64_t max_records = ~0ull)
        : ActTraceSource(path, max_records)
    {
    }

    const ActTraceInfo &info() const { return parsed_->info; }

    std::string name() const override;

    std::size_t fill(ActBatch &batch, std::size_t limit) override;

    /** Native seeking slice of the same file, sharing this reader's
     *  parsed index and mapping. */
    std::unique_ptr<ActSource> shardSlice(
        BankId lo, BankId hi, std::uint64_t budget) override;

    /**
     * Per-bank (count, first tick, last tick), decoding only each
     * bank's first and last indexed block — O(banks) block decodes,
     * never a full-stream scan. Entries with count == 0 are banks the
     * trace never touches.
     */
    std::vector<ActTraceBankSpan> bankSpans();

  private:
    struct IndexBlock
    {
        std::uint32_t bank;
        std::uint32_t count;
        std::uint32_t payloadBytes;
        std::uint64_t payloadOffset;
    };

    /** A read-only mapping of a whole regular file; an empty file
     *  stays unmapped (null data, size 0). The descriptor is closed
     *  once the mapping exists. */
    struct Mapping
    {
        explicit Mapping(const std::string &path);
        ~Mapping();
        Mapping(const Mapping &) = delete;
        Mapping &operator=(const Mapping &) = delete;

        const std::uint8_t *data = nullptr;
        std::size_t size = 0;
    };

    /** The immutable parse result — header, flattened canonical
     *  block index, and the mapping every block decodes from —
     *  shared by a full reader and all its slices, so a sharded
     *  replay maps the file and parses its index exactly once. */
    struct Parsed
    {
        explicit Parsed(const std::string &path) : map(path) {}

        Mapping map;
        ActTraceInfo info;
        std::vector<IndexBlock> blocks;
    };

    /** Slice off an already-parsed source: shares the header/index
     *  state and the mapping. */
    ActTraceSource(const ActTraceSource &parsed, BankId lo, BankId hi,
                   std::uint64_t max_records);

    /** Map `path`, then structurally validate header, index, and
     *  footer over the mapped bytes. */
    static std::shared_ptr<const Parsed> parse(const std::string &path);

    /** Advance to the next in-range block; false when exhausted. */
    bool nextBlock();

    /** Point blockData_ at the current block's validated payload in
     *  the mapping. */
    void loadBlock(const IndexBlock &block);

    /** First and last tick of one indexed block (decodes it). */
    void blockTickSpan(const IndexBlock &block, Tick *first,
                       Tick *last);

    std::string path_;
    std::shared_ptr<const Parsed> parsed_;
    BankId lo_;
    BankId hi_;
    std::uint64_t budget_;            //!< Remaining canonical records.

    std::size_t blockCursor_ = 0;     //!< Next block to consider.
    std::uint64_t blockRemaining_ = 0; //!< Records left in cur block.
    bool blockTruncated_ = false;     //!< Budget cut the cur block.
    std::uint32_t blockBank_ = 0;
    const std::uint8_t *blockData_ = nullptr; //!< Cur block payload.
    std::size_t blockSize_ = 0;
    std::size_t decodePos_ = 0;
    RowId prevRow_ = 0;
    Tick prevTick_ = 0;
    bool first_ = true;               //!< First record of cur block.
};

/**
 * Tee: forwards the wrapped source unchanged while appending every
 * record that passes through to a writer. The writer is borrowed —
 * the caller finalizes it after the run.
 */
class RecordingSource : public ActSource
{
  public:
    RecordingSource(std::unique_ptr<ActSource> inner,
                    ActTraceWriter *writer);

    std::string name() const override;

    std::size_t fill(ActBatch &batch, std::size_t limit) override;

  private:
    std::unique_ptr<ActSource> inner_;
    ActTraceWriter *writer_;
};

} // namespace mithril::engine

#endif // MITHRIL_ENGINE_ACT_TRACE_HH
