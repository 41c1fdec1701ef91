/**
 * @file
 * The PyPIM host driver (paper §V-B).
 *
 * The driver translates ISA macro-instructions into micro-operation
 * streams. It is deliberately host software, not an on-chip
 * controller: the paper argues a software driver is both flexible
 * (updatable without replacing hardware) and fast enough not to
 * bottleneck the PIM chip — bench_driver reproduces that measurement.
 *
 * Two arithmetic modes select the algorithm family used for int
 * add/sub/mul (paper §II-B):
 *  - Serial: bit-serial element-parallel (ripple/schoolbook),
 *  - Parallel: bit-parallel element-parallel using partitions
 *    (carry-lookahead / carry-save).
 * Everything else (division, float, comparisons, bitwise, misc) uses
 * one implementation whose inner primitives already exploit partition
 * parallelism where profitable.
 */
#ifndef PYPIM_DRIVER_DRIVER_HPP
#define PYPIM_DRIVER_DRIVER_HPP

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "driver/bitvec.hpp"
#include "driver/gatebuilder.hpp"
#include "isa/instruction.hpp"
#include "sim/sink.hpp"

namespace pypim
{

/** Macro-instruction to micro-operation translator. */
class Driver
{
  public:
    /** Arithmetic algorithm family (paper Fig. 4). */
    enum class Mode
    {
        Serial,
        Parallel
    };

    Driver(OperationSink &sink, const Geometry &geo,
           Mode mode = Mode::Parallel);

    const Geometry &geometry() const { return *geo_; }
    GateBuilder &builder() { return builder_; }

    Mode mode() const { return mode_; }
    void setMode(Mode m) { mode_ = m; }

    /** Disable partition parallelism entirely (ablation baseline). */
    void setPartitionsEnabled(bool on);

    /**
     * Enable/disable the translation stream cache. Element-parallel
     * R-type streams are data-independent, so the driver memoises the
     * translated micro-op stream per instruction signature and replays
     * it with a single batch write — the software analogue of the
     * paper's specialised (constant-folded) driver routines, and the
     * reason the host can outpace the chip's 1-op/cycle consumption.
     */
    void setStreamCacheEnabled(bool on) { streamCacheOn_ = on; }
    bool streamCacheEnabled() const { return streamCacheOn_; }
    /** Cached distinct instruction signatures. */
    size_t streamCacheSize() const { return streamCache_.size(); }

    /**
     * Enable/disable the trace cache layered over the stream cache
     * (sim/batch_trace.hpp): per signature, the recorded stream is
     * decoded, validated and fusion-optimised ONCE into a shared
     * immutable BatchTrace, and every subsequent hit submits the
     * pre-built trace handle — the engine replays it with zero
     * decode work. Sinks without trace support (e.g. the
     * bench BufferSink) fall back to raw stream replay transparently.
     * Observability: Stats::traceCacheHits/Misses and the fusion*
     * counters on stats().
     */
    void setTraceCacheEnabled(bool on) { traceCacheOn_ = on; }
    bool traceCacheEnabled() const { return traceCacheOn_; }

    /**
     * Enable/disable the window fusion pass applied to freshly built
     * traces (ablation knob). Changing it drops the cached trace
     * handles — they were optimised under the old setting — while the
     * recorded streams stay cached; traces rebuild lazily on the next
     * hit. Captured move sequences are dropped whole (an entry with a
     * trace keeps no stream to rebuild it from).
     */
    void setTraceFusionEnabled(bool on);
    bool traceFusionEnabled() const { return traceFusionOn_; }

    /** Drop every memoised stream and trace handle (R-type streams
     *  and captured move sequences). */
    void
    clearStreamCache()
    {
        streamCache_.clear();
        moveCache_.clear();
    }

    /** Cached move sequences (execute(std::span<const MoveInstr>)). */
    size_t moveCacheSize() const { return moveCache_.size(); }

    /**
     * Serialize the stream cache's signatures and recorded micro-op
     * streams into an opaque blob (Device::checkpoint). Trace handles
     * are NOT serialized — they are derived state, rebuilt lazily on
     * the first post-restore hit.
     */
    std::vector<uint8_t> exportStreamCache() const;
    /** Inverse of exportStreamCache; replaces the current cache. An
     *  empty blob just clears it. */
    void importStreamCache(const std::vector<uint8_t> &blob);

    /**
     * Enable/disable the bulk block-transfer I/O path
     * (sim/bulk_io.hpp). When on (the default) readBulk/writeBulk
     * hand whole transfers to the sink's gather/scatter kernels with
     * one drain point per transfer; when off they fall back to the
     * element-wise oracle. Both settings are bit-identical in values
     * AND architectural Stats (test_bulk_io).
     */
    void setBulkIoEnabled(bool on) { bulkIoOn_ = on; }
    bool bulkIoEnabled() const { return bulkIoOn_; }

    /**
     * Bulk register readback: element i of the transfer is slot
     * @p reg of storage row rowStart + i*rowStep (warp warpStart +
     * row/rows, in-crossbar row row%rows), read into out[i]. Records
     * architectural Stats and driver instruction counts identical to
     * count execute(ReadInstr) calls. Returns false — with no ops
     * emitted and no stats recorded — when the transfer cannot take
     * the bulk path (knob off, builder masks unknown, or a sink
     * without bulk support); the caller then runs the element loop.
     */
    bool readBulk(uint8_t reg, uint32_t warpStart, uint64_t rowStart,
                  uint64_t rowStep, uint64_t count, uint32_t *out);

    /**
     * Bulk register upload: the write mirror of readBulk. Never
     * fails: when the bulk path is unavailable it EMITS the same
     * canonical coalesced run stream through the builder in one
     * submitted batch (the bulk-I/O-off fallback — still far
     * cheaper than per-element WriteInstr dispatch). Runs of equal
     * consecutive values coalesce into one masked Range write
     * (zeros/full cost O(runs), matching the constant-fill
     * factories); distinct values degenerate to the historical
     * per-element stream, bit-identical in Stats.
     */
    void writeBulk(uint8_t reg, uint32_t warpStart, uint64_t rowStart,
                   uint64_t rowStep, uint64_t count,
                   const uint32_t *values);

    /** Execute an R-type instruction (Table II). */
    void execute(const RTypeInstr &in);
    /** Execute a constant write. */
    void execute(const WriteInstr &in);
    /** Execute a read; returns the N-bit register value. */
    uint32_t execute(const ReadInstr &in);
    /** Execute an intra- or inter-warp move. */
    void execute(const MoveInstr &in);

    /**
     * Execute @p moves in order as one captured sequence — the
     * CUDA-Graphs capture/replay pattern applied to the ISA's
     * thread-serial moves. Equivalent to execute(const MoveInstr &)
     * on each move (same micro-ops, crossbar state, architectural
     * Stats and builder mask state), which stays the ISA instruction
     * and the oracle. The first run of a sequence records the
     * per-move lowering under the builder's live masks (keeping its
     * mask elision) and builds one fused, compiled trace from that
     * entry mask state; every later run with the same moves, partition
     * setting and entry masks submits the trace and assumes the
     * recorded exit masks. Sinks that cannot replay the trace get the
     * recorded stream as one raw batch. Runs move by move when the
     * stream or trace cache is off or exactly one builder mask is
     * known. Each hit adds moves.size() to Stats::traceCacheHits.
     */
    void execute(std::span<const MoveInstr> moves);

    /** Driver-side instruction counters. */
    Stats &stats() { return stats_; }
    const Stats &stats() const { return stats_; }

  private:
    void validate(const RTypeInstr &in) const;
    void dispatch(const RTypeInstr &in);

    /** Signature of a cacheable R-type translation. */
    struct StreamKey
    {
        uint64_t fields;  //!< op|dtype|rd|ra|rb|rc|mode|partitions
        Range warps;
        Range rows;
        bool operator==(const StreamKey &) const = default;
    };
    struct StreamKeyHash
    {
        size_t
        operator()(const StreamKey &k) const
        {
            uint64_t h = k.fields * 0x9E3779B97F4A7C15ull;
            h ^= (static_cast<uint64_t>(k.warps.start) << 32 |
                  k.warps.stop) * 0xC2B2AE3D27D4EB4Full;
            h ^= (static_cast<uint64_t>(k.rows.start) << 32 |
                  (static_cast<uint64_t>(k.rows.stop) ^
                   (static_cast<uint64_t>(k.warps.step) << 20) ^
                   (static_cast<uint64_t>(k.rows.step) << 40))) *
                 0x165667B19E3779F9ull;
            return static_cast<size_t>(h ^ (h >> 29));
        }
    };
    StreamKey makeKey(const RTypeInstr &in) const;

    /**
     * One memoised translation: the recorded self-contained micro-op
     * stream plus (lazily, when the trace cache is on and the sink
     * supports it) the decoded, fused, shared immutable trace built
     * from it.
     */
    struct StreamEntry
    {
        std::vector<Word> ops;
        std::shared_ptr<const BatchTrace> trace;
    };

    /** Replay one cache entry (trace handle fast path, else stream). */
    void replayEntry(StreamEntry &e);
    /** Account a freshly built trace (miss + fusion counters). */
    void noteTraceBuilt(const BatchTrace &t);

    /**
     * Signature of a captured move sequence: the moves, the partition
     * setting (lane NOTs lower differently without partitions) and
     * the builder's entry masks, or "both unknown". The cache owns
     * its keys' moves; a lookup borrows the caller's (MoveSeqRef), so
     * a hit copies nothing.
     */
    struct MoveSeqHead
    {
        bool partitions = true;
        bool masksKnown = false;
        Range warps, rows;  //!< entry masks iff masksKnown
        bool operator==(const MoveSeqHead &) const = default;
    };
    struct MoveSeqKey
    {
        MoveSeqHead head;
        std::vector<MoveInstr> moves;
    };
    struct MoveSeqRef
    {
        MoveSeqHead head;
        std::span<const MoveInstr> moves;
    };
    /** Hash and equality over both key forms (heterogeneous find). */
    struct MoveSeqKeyHash
    {
        using is_transparent = void;
        size_t operator()(const MoveSeqRef &k) const;
        size_t
        operator()(const MoveSeqKey &k) const
        {
            return (*this)(MoveSeqRef{k.head, k.moves});
        }
    };
    struct MoveSeqKeyEq
    {
        using is_transparent = void;
        template <typename A, typename B>
        bool
        operator()(const A &a, const B &b) const
        {
            return a.head == b.head &&
                   std::ranges::equal(a.moves, b.moves);
        }
    };
    /**
     * One captured sequence: its trace, or — when the sink builds no
     * trace (multi-device and socket groups, plain sinks) — the
     * recorded stream, plus the builder mask state it leaves.
     */
    struct MoveSeqEntry
    {
        std::shared_ptr<const BatchTrace> trace;
        std::vector<Word> ops;  //!< only when trace is null
        std::optional<Range> exitWarps, exitRows;
    };
    /**
     * Bound on cached move sequences; the cache is cleared when full.
     * A bitonic sort needs one per distinct (stage distance, register
     * pair, entry masks) — 15 for 256 elements — and a compacted
     * trace of 256 moves holds a few tens of KB.
     */
    static constexpr size_t kMoveCacheEntries = 256;

    const Geometry *geo_;
    OperationSink *sink_;
    GateBuilder builder_;
    BVOps bv_;
    Mode mode_;
    Stats stats_;
    bool streamCacheOn_ = true;
    bool traceCacheOn_ = true;
    bool traceFusionOn_ = true;
    bool bulkIoOn_ = true;
    std::unordered_map<StreamKey, StreamEntry, StreamKeyHash>
        streamCache_;
    std::unordered_map<MoveSeqKey, MoveSeqEntry, MoveSeqKeyHash,
                       MoveSeqKeyEq>
        moveCache_;
};

} // namespace pypim

#endif // PYPIM_DRIVER_DRIVER_HPP
