/**
 * @file
 * Compiled replay programs: the one form in which a segment replays.
 *
 * decodeSegment() lowers a barrier-free segment of micro-ops straight
 * into a flat SoA ReplayProgram whose instructions are fully
 * pre-resolved, in the same loop that validates the ops, records
 * their Stats, advances the masks and widens the crossbar hull.
 * Without a program that loop is the scan (sim/batch_trace.hpp). The
 * loop appends each work op, with its effective masks, as one record
 * to the program's own instruction array; at segment end the rewrites
 * below turn the records into the final instructions, in place:
 *
 *  - a row-masked op interns the live row mask (an immutable word
 *    array, shared by every program that holds equal words) and takes
 *    a program mask id by first appearance, so an equivalent Range
 *    reissue keeps its id; a per-instruction all-ones flag lets the
 *    executors drop the `& mask` blend from the inner word loops (the
 *    all-rows mask is the overwhelmingly common case);
 *  - a LogicH op reads its validated sections from the owner's
 *    ExpansionTable (sim/segment_trace.hpp), by offset;
 *  - a section-level liveness scan over the segment's ops, in stream
 *    order and before pass merging, makes two rewrites; it is the one
 *    place a stream is optimised between decode and replay.
 *    INIT1->NOR: an INIT1 section whose column is next driven by a
 *    NOR/NOT section with inputs distinct from its output, under the
 *    same row-mask id and crossbar range, with nothing touching the
 *    column in between, is dropped and the gate becomes a
 *    FusedNotNor. This is the driver's stateful-logic idiom (an INIT1
 *    of the output, then the gate that writes it), whether the INIT1
 *    sits right before its gate or opens a chain of INIT1s for
 *    several gates. Dead store: a section whose column is next
 *    written in full (an Init0, an Init1, or a FusedNotNor whose
 *    inputs differ from its output) with no touch in between is
 *    dropped, when that write's mask is all-ones or the same id and
 *    its range contains the earlier one. A touch is a gate input, a
 *    NotNor's own output (a stateful gate reads it), a Write's slot
 *    columns or a LogicV's partition columns. Dropped sections keep
 *    their op's applied work (one per op): an op left with no section
 *    charges its work to the open pass when that has the op's
 *    crossbar range, else to an empty pass of its own;
 *  - consecutive LogicH ops under an identical mask and crossbar
 *    range merge into ONE multi-section column pass — one mask load
 *    (and, paged, one mask-nonzero block scan) shared by all
 *    sections. Merging requires the sections to be pairwise
 *    independent (no op may read or write a column an earlier merged
 *    op wrote, or write one it read), so the merged pass is
 *    order-free — the generalisation of the INIT1->NOR fusion
 *    legality to whole passes, and the property a future data-
 *    parallel (GPU) executor needs;
 *  - passes whose section runs are equal field by field share ONE
 *    run in the sections arena (a captured move sequence repeats the
 *    same lane NOTs under a new row mask per move);
 *  - a Write arrives as one {slot, value} pair in a flat arena, and
 *    LogicV runs arrive pre-decoded (word index / bit mask forms in a
 *    flat arena), so replay never re-derives either per crossbar;
 *  - per-instruction applied-op counts are precomputed, so the
 *    work-stealing engine's load diagnostics charge Stats once per
 *    instruction — or, when every instruction shares one crossbar
 *    range (uniformXb), once per CROSSBAR — instead of once per op.
 *
 * Replay dispatches once per segment into Crossbar::replayProgram,
 * which selects a template-specialized executor over {Dense, Paged}
 * x {all masks full, some partial}; see crossbar.cpp. Programs are
 * flat arrays apart from their shared row masks — close to the shape
 * of an upload-once device-side object for the ROADMAP's GPU engine.
 *
 * Every segment is compiled where it replays: Simulator::prepareTrace
 * compiles a trace before freezing it, and a socket worker compiles a
 * trace it decodes from the wire only when the trace's crossbar hull
 * meets its slice. Raw micro-op batches never compile: the engine
 * applies them op-major, which is also the parity oracle
 * (tests/test_replay_program.cpp). Compiling each raw segment to
 * replay it once was slower than applying it op-major (4-vCPU Xeon,
 * Release perfbench, one thread, wall_s: fleet 0.059 against 0.043 s,
 * sort 0.026 against 0.020 s), so only traces, which replay many
 * times, pay for compiling.
 */
#ifndef PYPIM_SIM_REPLAY_PROGRAM_HPP
#define PYPIM_SIM_REPLAY_PROGRAM_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/crossbar.hpp"
#include "uarch/microop.hpp"
#include "uarch/range.hpp"

namespace pypim
{

class ExpansionTable;
struct CrossbarHull;
struct MaskState;

/** One segment lowered into flat, fully pre-resolved form. */
struct ReplayProgram
{
    /** What one section of a merged column pass computes. */
    enum class SecKind : uint8_t
    {
        Init0,      //!< out &= ~mask (full: out = 0)
        Init1,      //!< out |= mask (full: out = ~0)
        NotNor,     //!< out &= ~((a|b) & mask)
        FusedNotNor //!< out = (out & ~mask) | (~(a|b) & mask)
    };

    /** One column of a merged LogicH pass, fully resolved. */
    struct PSection
    {
        SecKind kind = SecKind::Init0;
        uint16_t outCol = 0;
        uint16_t inA = 0, inB = 0;  //!< NotNor/FusedNotNor only
    };

    /** One pre-decoded LogicV gate of a run (replay-ready form), in
     *  8 bytes: a column holds at most 1,024 words (rows <= 65536). */
    struct VGate
    {
        Gate gate = Gate::Init0;
        uint8_t inShift = 0, outShift = 0;
        uint16_t inWord = 0, outWord = 0;
    };

    /** One Write of a program: slot @p slot takes @p value. */
    struct WritePair
    {
        uint32_t slot = 0;
        uint32_t value = 0;
    };

    enum class Kind : uint8_t
    {
        HPass,  //!< count sections at sections[off] under one mask
        Write,  //!< the one {slot,value} pair at pairs[off]
        VRun    //!< count pre-decoded gates at vgates[off] on slot
    };

    /** Instr::passKind sentinel: the pass mixes section kinds. */
    static constexpr uint8_t kMixedPass = 0xFF;

    /** One replay instruction; all operands pre-resolved. */
    struct Instr
    {
        Kind kind = Kind::HPass;
        OpClass cls = OpClass::LogicH;  //!< applied-work class
        /** Realized row mask is all-ones words: blend-free kernels. */
        uint8_t maskFull = 0;
        /**
         * HPass only: the one SecKind every section of the pass
         * computes, or kMixedPass. One op's sections always share
         * their gate, and most merges chain the same gate (the
         * INIT1+NOR idiom fuses into all-FusedNotNor passes first),
         * so homogeneous passes are the common case — the executors
         * hoist the per-section kind switch out of the column loop
         * for them (crossbar.cpp).
         */
        uint8_t passKind = kMixedPass;
        uint32_t off = 0;      //!< first section / pair / vgate
        uint32_t count = 0;    //!< sections / vgates (a Write: 1)
        /**
         * HPass and Write: the program mask id (masks[operand]).
         * VRun: the intra-partition slot of its columns. A VRun
         * addresses rows directly, so it never has a mask.
         */
        uint32_t operand = 0;
        uint32_t work = 0;     //!< architectural ops this applies
        Range xb;              //!< crossbar-mask snapshot (uniform)
    };
    // Half a cache line: a frozen trace keeps every instruction.
    static_assert(sizeof(Instr) == 32);

    std::vector<Instr> instrs;
    /** HPass section runs; equal runs are stored once and shared. */
    std::vector<PSection> sections;
    std::vector<WritePair> pairs;
    std::vector<VGate> vgates;
    /** One row-mask snapshot of wordsPerMask words, immutable. */
    using Mask = std::shared_ptr<const uint64_t[]>;
    /**
     * Row masks by program mask id. Equal masks are stored once and
     * shared by every program compiled on the same thread
     * (replay_program.cpp): the only part of a program that is not
     * its own flat array.
     */
    std::vector<Mask> masks;
    uint32_t wordsPerMask = 0;
    /** Crossbar hull of the segment's work ops: [xbLo, xbHi). */
    uint32_t xbLo = 0, xbHi = 0;
    /** Every masked instruction's realized mask is all-ones: dispatch
     *  to the blend-free executor specialization. */
    bool allMasksFull = false;
    /**
     * Every instruction carries the SAME crossbar range @ref xb: the
     * executor tests containment once per crossbar and charges the
     * per-class totals below in three counter bumps, skipping every
     * per-instruction check.
     */
    bool uniformXb = false;
    Range xb;
    uint64_t workWrites = 0, workLogicH = 0, workLogicV = 0;

    /** Section counts of the liveness scan (see the file comment). */
    struct Liveness
    {
        /** LogicH sections the segment's ops carry, before the scan. */
        uint64_t sections = 0;
        /** INIT1 sections fused into the NOR/NOT that follows them. */
        uint64_t fused = 0;
        /** Dead sections dropped (overwritten in full before use). */
        uint64_t dead = 0;

        /** Sections one crossbar replays: those the scan kept. */
        uint64_t replayed() const { return sections - fused - dead; }

        Liveness &
        operator+=(const Liveness &o)
        {
            sections += o.sections;
            fused += o.fused;
            dead += o.dead;
            return *this;
        }
    };
    Liveness liveness;

    bool empty() const { return instrs.empty(); }
};

/**
 * Decode the barrier-free segment @p ops[0..n) into @p prog (reset
 * first, capacity kept), or, with @p prog null, only scan it.
 *
 * Both validate every op exactly as the op-major reference would (so
 * a malformed op aborts BEFORE any crossbar is touched), record the
 * architectural @p stats, advance the authoritative @p mask state past
 * the segment and widen @p hull by every work op's crossbar mask.
 * LogicH words validate through @p table. Neither touches a crossbar:
 * O(n), not O(n * crossbars).
 *
 * The compile is a pure function of the segment and its entry masks.
 * The merge pass is conservative — an op that cannot legally join the
 * open pass (mask or crossbar-range change, section capacity, column
 * aliasing) starts a new instruction, never changes semantics:
 * compiled replay is bit-identical to the serial op-major oracle on
 * every storage mode (tests/test_replay_program.cpp). A warm
 * recompile into a reused @p prog is allocation-free: the records
 * reuse @p prog's own arrays, and the liveness and run-sharing
 * scratch is kept per compiling thread and reset at every segment
 * (tests/test_no_alloc.cpp).
 *
 * Panics (InternalError) on a barrier op — callers split at
 * isBarrierOp() first.
 */
void decodeSegment(const Word *ops, size_t n, const Geometry &geo,
                   ExpansionTable &table, MaskState &mask, Stats &stats,
                   CrossbarHull &hull, ReplayProgram *prog);

} // namespace pypim

#endif // PYPIM_SIM_REPLAY_PROGRAM_HPP
