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
 * segment by buildSegmentTrace():
 *
 *  - decoded work ops (Write / LogicH / LogicV) with their LogicH
 *    half-gate expansions pre-computed, one per distinct LogicH word,
 *    in compact form: a small header per word and its ACTIVE sections
 *    only, back to back in one flat arena (the fixed 64-section
 *    HalfGates that expandLogicH validates into is never stored);
 *  - mask ops ABSORBED: each work op carries a snapshot of the
 *    effective crossbar mask and a handle to the expanded row-mask
 *    bit-vector in force when it executed (snapshots are deduplicated
 *    while the mask is unchanged), so replay never re-tracks mask
 *    state;
 *  - consecutive INIT1 -> NOR/NOT pairs on the same output columns
 *    under identical masks fused into a single pass over the column
 *    words (the driver's canonical stateful-logic idiom);
 *  - the hull [xbLo, xbHi) of crossbars the segment can touch.
 *
 * A trace never replays as such: compileSegmentProgram
 * (sim/replay_program.hpp) lowers it into a ReplayProgram, and replay
 * runs that crossbar-major (Crossbar::replayProgram): for each
 * crossbar, apply the ENTIRE segment before moving on, keeping that
 * crossbar's condensed column-major state hot in L1/L2. The trace is
 * the compiler's input and the unit the window fusion pass rewrites
 * (sim/batch_trace.hpp); once compiled, a frozen trace frees it.
 *
 * All storage is arena-style and reused across segments/batches via
 * clear(), so steady-state building is allocation-free.
 */
#ifndef PYPIM_SIM_SEGMENT_TRACE_HPP
#define PYPIM_SIM_SEGMENT_TRACE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/crossbar.hpp"
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
    /** LogicH with a preceding INIT1 of the same outputs folded in. */
    bool fusedInit = false;
    uint32_t index = 0;         //!< write / logicV slot
    uint32_t value = 0;         //!< write payload
    uint32_t hg = 0;            //!< LogicH: SegmentTrace::halfGates index
    uint32_t rowMask = 0;       //!< write/logicH: row-snapshot id
    uint32_t rowIn = 0, rowOut = 0;  //!< logicV rows
    /**
     * Write only: number of adjacent Writes merged into this op by
     * the trace fuser's stripe pass (1 = a plain un-merged Write).
     * When > 1, @p wrun indexes the first of wn pairwise-distinct
     * {slot, value} pairs in SegmentTrace::writePairs, all applied
     * under this op's masks by Crossbar::writeStripe.
     */
    uint32_t wn = 1;
    uint32_t wrun = 0;          //!< SegmentTrace::writePairs offset
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
 * SegmentTrace::sections[@ref off], in ascending partition order for
 * an interned word (a merged INIT1 chain appends its peers' runs).
 */
struct HalfGateRun
{
    uint32_t off = 0;
    uint16_t count = 0;
    /**
     * Idle sections of the word's HalfGates expansion. The INIT1
     * chain merge caps a run at maxPartitions sections counting these
     * too, as the fixed HalfGates array would hold them, so its
     * decisions match that array's capacity rule.
     */
    uint8_t idle = 0;
    Gate gate = Gate::Nor;
    bool operator==(const HalfGateRun &) const = default;
};

/** One decoded, replay-ready barrier-free segment. */
struct SegmentTrace
{
    std::vector<TraceOp> ops;
    /**
     * LogicH expansions referenced by TraceOp::hg, interned: ops with
     * the same encoded word share one header, so a header and its
     * run may be referenced many times and are never mutated (the
     * INIT1 chain merge appends a new run, sim/batch_trace.cpp).
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
    /** Stripe arena: merged-Write pairs referenced by TraceOp::wrun. */
    std::vector<StripeWrite> writePairs;
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
        writePairs.clear();
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
 * True iff the INIT1 LogicH @p init of @p t may be folded into the
 * NOR/NOT @p nor: both must drive exactly the same set of output
 * columns, and no input column of the NOR/NOT may alias any of those
 * outputs (the gate must read pre-INIT state of nothing it
 * initialises). Shared between the builder's adjacent fusion and the
 * window fusion pass (sim/batch_trace.hpp).
 */
bool fusableInitNor(const SegmentTrace &t, const HalfGateRun &init,
                    const HalfGateRun &nor);

/**
 * Decode the barrier-free segment @p ops[0..n) into @p trace.
 *
 * This is the trace builder's pre-pass: it validates every op exactly
 * as the op-major reference would (so a malformed op aborts BEFORE any
 * crossbar is touched), records the architectural @p stats, and
 * advances the authoritative @p mask state past the segment. It
 * touches no crossbar: O(n), not O(n * crossbars).
 *
 * Panics (InternalError) on a barrier op — callers split at
 * isBarrierOp() first.
 */
void buildSegmentTrace(const Word *ops, size_t n, const Geometry &geo,
                       MaskState &mask, Stats &stats,
                       SegmentTrace &trace);

} // namespace pypim

#endif // PYPIM_SIM_SEGMENT_TRACE_HPP
