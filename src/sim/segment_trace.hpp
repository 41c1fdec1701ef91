/**
 * @file
 * Decode-once segment traces for loop-interchanged (crossbar-major)
 * replay.
 *
 * A batch of micro-ops splits into SEGMENTS at every cross-crossbar
 * barrier op (Read, H-tree Move). Within a segment every op is a
 * broadcast over independent crossbars, so the order of the loops
 * "for op / for crossbar" may be interchanged freely. Raw-stream
 * replay is op-major: each op sweeps the whole crossbar array before
 * the next op, streaming a multi-megabyte working set through the
 * cache once PER OP at large crossbar counts, and re-decoding (and
 * re-expanding every LogicH) once per batch replay even though the
 * decoded form is loop-invariant across crossbars.
 *
 * SegmentTrace is the loop-invariant part, computed exactly once per
 * segment by decodeSegment():
 *
 *  - decoded work ops (Write / LogicH / LogicV) with their LogicH
 *    half-gate expansions pre-computed, one per distinct LogicH word,
 *    in compact form: a small header per word and its ACTIVE sections
 *    only, back to back in one flat arena (the fixed-size HalfGates
 *    that expandLogicH validates into is never stored). The runs come
 *    from the decoder's ExpansionTable, which validates each distinct
 *    word once per owner, not once per segment;
 *  - mask ops ABSORBED: each work op carries a snapshot of the
 *    effective crossbar mask and a handle to the expanded row-mask
 *    bit-vector in force when it executed (snapshots are deduplicated
 *    while the mask is unchanged), so replay never re-tracks mask
 *    state;
 *  - the hull [xbLo, xbHi) of crossbars the segment can touch.
 *
 * A trace never replays as such: compileSegmentProgram
 * (sim/replay_program.hpp) lowers it into a ReplayProgram, and replay
 * runs that crossbar-major (Crossbar::replayProgram): for each
 * crossbar, apply the ENTIRE segment before moving on, keeping that
 * crossbar's condensed column-major state hot in L1/L2. The trace
 * holds one op per work op of the stream, rewritten by nothing: the
 * compiler's liveness scan is the one place the stateful-logic idiom
 * (INIT1 then the NOR/NOT that writes the column) is fused. Once
 * compiled, a frozen trace frees it.
 *
 * All storage is arena-style and reused across segments/batches via
 * clear(), so steady-state building is allocation-free.
 *
 * decodeSegment is also the scan: without a SegmentTrace it runs the
 * same loop, validating every op, recording Stats and advancing the
 * masks, but emits nothing (sim/batch_trace.hpp, scanBatchTrace).
 */
#ifndef PYPIM_SIM_SEGMENT_TRACE_HPP
#define PYPIM_SIM_SEGMENT_TRACE_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "uarch/microop.hpp"
#include "uarch/partition.hpp"
#include "uarch/range.hpp"

namespace pypim
{

/**
 * In-stream mask state (paper §III-B): the crossbar activation range
 * and the stored row mask, kept together with the row mask's expanded
 * bit-vector realisation so read/write/logic ops reuse it.
 */
struct MaskState
{
    Range xb;
    Range row;
    std::vector<uint64_t> rowWords;

    /** Power-on state: all crossbars and all rows selected. */
    void
    reset(const Geometry &geo)
    {
        xb = Range::all(geo.numCrossbars);
        setRow(Range::all(geo.rows), geo.rows);
    }

    /** Install a new row mask and (re)expand it, reusing rowWords. */
    void
    setRow(const Range &r, uint32_t rows)
    {
        row = r;
        row.expandInto(rows, rowWords);
    }
};

/** True iff the op must serialise the whole crossbar array. */
inline bool
isBarrierOp(OpType t)
{
    return t == OpType::Move || t == OpType::Read;
}

/**
 * One decoded work op of a segment with its effective masks. Only the
 * fields of the op's type are meaningful (as in MicroOp).
 */
struct TraceOp
{
    OpType type = OpType::Write;
    Gate gate = Gate::Init0;    //!< logicV gate
    uint32_t index = 0;         //!< write / logicV slot
    uint32_t value = 0;         //!< write payload
    uint32_t hg = 0;            //!< LogicH: SegmentTrace::halfGates index
    uint32_t rowMask = 0;       //!< write/logicH: row-snapshot id
    uint32_t rowIn = 0, rowOut = 0;  //!< logicV rows
    Range xb;                   //!< effective crossbar mask snapshot
};

/**
 * One active section of a LogicH expansion: its output column and
 * input columns. A gate with fewer than two inputs repeats its last
 * operand (inA = outCol for INIT, inB = inA for NOT), the shape of
 * ReplayProgram::PSection, so consumers visiting all three columns
 * stay exact. Columns fit 16 bits (cols <= 1024 by the op format).
 */
struct ActiveSection
{
    uint16_t outCol = 0;
    uint16_t inA = 0, inB = 0;
    bool operator==(const ActiveSection &) const = default;
};

/**
 * Header of one LogicH expansion: @ref count active sections at
 * SegmentTrace::sections[@ref off], in ascending partition order.
 */
struct HalfGateRun
{
    uint32_t off = 0;
    uint16_t count = 0;
    Gate gate = Gate::Nor;
    bool operator==(const HalfGateRun &) const = default;
};

/**
 * Half-open hull [lo, hi) of the crossbars a decoded stream can touch;
 * empty while lo >= hi.
 */
struct CrossbarHull
{
    uint32_t lo = UINT32_MAX, hi = 0;

    /** Widen the hull to cover crossbars [@p first, @p last]. */
    void
    add(uint32_t first, uint32_t last)
    {
        lo = std::min(lo, first);
        hi = std::max(hi, last + 1);
    }

    /** True iff some crossbar of [@p sliceLo, @p sliceHi) is in it. */
    bool
    meets(uint32_t sliceLo, uint32_t sliceHi) const
    {
        return lo < sliceHi && sliceLo < hi;
    }
};

/** One decoded, replay-ready barrier-free segment. */
struct SegmentTrace
{
    std::vector<TraceOp> ops;
    /**
     * LogicH expansions referenced by TraceOp::hg, interned: ops with
     * the same encoded word share one header, so a header and its
     * run may be referenced many times.
     */
    std::vector<HalfGateRun> halfGates;
    /** Section arena of the halfGates runs: active sections only. */
    std::vector<ActiveSection> sections;
    /** Row-mask snapshots, wordsPerMask words each, back to back. */
    std::vector<uint64_t> rowWords;
    /**
     * One flag per row-mask snapshot, set iff every realized word is
     * all-ones (the all-rows mask of a geometry with rows a multiple
     * of 64 — the overwhelmingly common case). Replay kernels then
     * skip the `& mask` blend entirely: out |= ~0 / out &= 0 collapse
     * to fills, gates drop the blend term. A full mask over fewer
     * than 64 rows realizes a partial tail word and is deliberately
     * NOT flagged — the blend is what keeps the padding bits clear.
     */
    std::vector<uint8_t> rowMaskFull;
    uint32_t wordsPerMask = 0;
    /** Hull of crossbars any op can touch: [xbLo, xbHi). */
    uint32_t xbLo = 0, xbHi = 0;

    /** Reset for a new segment, keeping all arena capacity. */
    void
    clear(uint32_t rows)
    {
        wordsPerMask = (rows + 63) / 64;
        ops.clear();
        halfGates.clear();
        sections.clear();
        rowWords.clear();
        rowMaskFull.clear();
        xbLo = 0;
        xbHi = 0;
    }

    /** Expanded row-mask bit vector of snapshot @p id. */
    std::span<const uint64_t>
    rowMask(uint32_t id) const
    {
        return {rowWords.data() +
                    static_cast<size_t>(id) * wordsPerMask,
                wordsPerMask};
    }

    /** Active sections of expansion @p hg. */
    std::span<const ActiveSection>
    run(const HalfGateRun &hg) const
    {
        return {sections.data() + hg.off, hg.count};
    }

    bool empty() const { return ops.empty(); }
};

/**
 * Expansion table of one decoder: LogicH word -> its validated compact
 * run (HalfGateRun gate and ActiveSections). The half-gates expansion
 * (expandLogicH) validates a word against the restricted partition
 * model; the table pays that once per distinct word for as long as
 * its owner lives, however many segments and traces use the word. A
 * hit copies the stored run into the segment arena. Only a word that
 * validated is stored, so a malformed word throws the same message
 * every time it is seen.
 *
 * The owner is the object that decodes: a Simulator (in process and
 * in each shard worker) or a socket SimulatorGroup's host mirror. The
 * table lives and dies with it and is never process-wide, so a fresh
 * Device starts cold. It is bound to one geometry, whose columns and
 * partitions shape every run.
 *
 * Storage is flat: one open-addressing slot array, with no heap node
 * per word, that doubles at three-quarter load, and one section
 * arena. Both start empty and grow on demand. A slot also records
 * the segment that last copied its run and that copy's header index,
 * so one probe serves both the table and the segment's own
 * one-header-per-word interning. Not thread-safe: its owner decodes
 * on one thread.
 */
class ExpansionTable
{
  public:
    explicit ExpansionTable(const Geometry &geo) : geo_(geo) {}

    const Geometry &geometry() const { return geo_; }

    /** Distinct words stored (each validated once). */
    size_t size() const { return used_; }

    /** Start a new segment: runs copied so far belong to the last. */
    void beginSegment();

    /**
     * Validate LogicH word @p w, expanding it only if the table has
     * never seen it (throws InternalError, storing nothing, if it is
     * malformed). With @p trace, also return the index of its header
     * in trace->halfGates, copying the run into @p trace on the
     * word's first use in the segment; without, return 0.
     */
    uint32_t intern(Word w, SegmentTrace *trace);

  private:
    struct Slot
    {
        Word word = 0;
        uint32_t off = 0;    //!< run at sections_[off]
        uint16_t count = 0;  //!< active sections; 0 = empty slot
        Gate gate = Gate::Nor;
        uint32_t segment = 0;  //!< stamp of the segment holding a copy
        uint32_t hg = 0;       //!< that copy's header index
    };

    /** The slot holding @p w, or the empty slot where it belongs. */
    Slot &find(Word w);
    /** Double the slot array (first use: allocate it). */
    void grow();

    Geometry geo_;
    std::vector<Slot> slots_;
    std::vector<ActiveSection> sections_;
    size_t used_ = 0;
    int shift_ = 64;
    uint32_t segment_ = 1;
};

/**
 * Decode the barrier-free segment @p ops[0..n) into @p trace, or,
 * with @p trace null, only scan it.
 *
 * Both validate every op exactly as the op-major reference would (so
 * a malformed op aborts BEFORE any crossbar is touched), record the
 * architectural @p stats, advance the authoritative @p mask state past
 * the segment and widen @p hull by every work op's crossbar mask.
 * LogicH words validate through @p table. Neither touches a crossbar:
 * O(n), not O(n * crossbars).
 *
 * Panics (InternalError) on a barrier op — callers split at
 * isBarrierOp() first.
 */
void decodeSegment(const Word *ops, size_t n, const Geometry &geo,
                   ExpansionTable &table, MaskState &mask, Stats &stats,
                   CrossbarHull &hull, SegmentTrace *trace);

} // namespace pypim

#endif // PYPIM_SIM_SEGMENT_TRACE_HPP
