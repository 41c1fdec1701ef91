/**
 * @file
 * Compiled replay programs: the one form in which a segment replays.
 *
 * A SegmentTrace is decode-once, but its ops still carry per-op row-
 * mask handles, interned half-gate expansions and unmerged LogicH
 * sections. compileSegmentProgram() lowers a segment into a flat SoA
 * ReplayProgram whose instructions are fully pre-resolved:
 *
 *  - row-mask snapshot ids become direct word offsets into the
 *    program's own mask arena, resolved once at compile time, with a
 *    per-instruction all-ones flag so the executors can drop the
 *    `& mask` blend from the inner word loops (the all-rows mask is
 *    the overwhelmingly common case);
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
 *  - write stripes arrive pre-chunked ({slot, value} pairs in a flat
 *    arena; a plain Write is a stripe of one) and LogicV runs arrive
 *    pre-decoded (word index / bit mask forms in a flat arena), so
 *    replay never re-derives either per crossbar;
 *  - per-instruction applied-op counts are precomputed, so the
 *    work-stealing engine's load diagnostics charge Stats once per
 *    instruction — or, when every instruction shares one crossbar
 *    range (uniformXb), once per CROSSBAR — instead of once per op.
 *
 * Replay dispatches once per segment into Crossbar::replayProgram,
 * which selects a template-specialized executor over {Dense, Paged}
 * x {all masks full, some partial}; see crossbar.cpp. Programs are
 * pointer-free flat arrays — deliberately the shape of an
 * upload-once device-side object for the ROADMAP's GPU engine.
 *
 * Every segment is compiled where it replays: Simulator::prepareTrace
 * compiles a trace before freezing it, and a socket worker compiles
 * each trace it decodes from the wire. Raw micro-op batches never
 * compile: the engine applies them op-major, which is also the parity
 * oracle (tests/test_replay_program.cpp). Compiling each raw segment
 * to replay it once was slower than applying it op-major (4-vCPU
 * Xeon, Release perfbench, one thread, wall_s: fleet 0.059 against
 * 0.043 s, sort 0.026 against 0.020 s), so only traces, which replay
 * many times, pay for compiling.
 */
#ifndef PYPIM_SIM_REPLAY_PROGRAM_HPP
#define PYPIM_SIM_REPLAY_PROGRAM_HPP

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/crossbar.hpp"
#include "uarch/microop.hpp"
#include "uarch/range.hpp"

namespace pypim
{

struct BatchTrace;
struct SegmentTrace;

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

    /** One pre-decoded LogicV gate of a run (replay-ready form). */
    struct VGate
    {
        Gate gate = Gate::Init0;
        uint32_t inWord = 0, inShift = 0;
        uint32_t outWord = 0;
        uint64_t outBit = 0;
    };

    enum class Kind : uint8_t
    {
        HPass,   //!< count sections at sections[off] under one mask
        WStripe, //!< count {slot,value} pairs at pairs[off]
        VRun     //!< count pre-decoded gates at vgates[off] on slot
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
        uint32_t count = 0;    //!< sections / pairs / vgates
        uint32_t maskOff = 0;  //!< word offset into maskWords
        uint32_t slot = 0;     //!< VRun: intra-partition index
        uint32_t work = 0;     //!< architectural ops this applies
        Range xb;              //!< crossbar-mask snapshot (uniform)
    };

    std::vector<Instr> instrs;
    /** HPass section runs; equal runs are stored once and shared. */
    std::vector<PSection> sections;
    std::vector<StripeWrite> pairs;
    std::vector<VGate> vgates;
    /** Row-mask snapshots, wordsPerMask words each (own arena — the
     *  program is self-contained and pointer-free). */
    std::vector<uint64_t> maskWords;
    uint32_t wordsPerMask = 0;
    /** Crossbar hull, as SegmentTrace::xbLo/xbHi. */
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

    bool empty() const { return instrs.empty(); }
};

/**
 * Lower @p trace into @p prog (cleared first, capacity kept). Pure
 * function of the trace: never touches crossbar state. The merge pass
 * is conservative — an op that cannot legally join the open pass
 * (mask or crossbar-range change, section capacity, column aliasing)
 * starts a new instruction, never changes semantics: compiled replay
 * is bit-identical to the serial op-major oracle on every storage mode
 * (tests/test_replay_program.cpp). Steady-state compiling into a
 * reused @p prog is allocation-free.
 */
void compileSegmentProgram(const SegmentTrace &trace,
                           const Geometry &geo, ReplayProgram &prog);

/**
 * Compile every segment of @p batch into its program — called by
 * Simulator::prepareTrace after window fusion (just before the batch
 * is frozen behind shared_ptr<const>) and by the trace-wire decoder
 * on a socket worker.
 */
void compileBatchTrace(BatchTrace &batch, const Geometry &geo);

/**
 * Free the decode arenas (ops, halfGates, sections, rowWords,
 * rowMaskFull, writePairs) of every segment of @p batch, keeping each
 * segment's hull, and trim every compiled program's vectors to their
 * size. Replay reads only the compiled programs, so a frozen trace
 * keeps its programs, at their exact size, and nothing else per
 * segment. Only for traces that freeze: called after compiling one
 * (Simulator::prepareTrace, decodeTraceWire) and by the host's
 * wire-trace builder, whose traces only ship their source stream and
 * never replay on the host.
 */
void releaseSegmentArenas(BatchTrace &batch);

} // namespace pypim

#endif // PYPIM_SIM_REPLAY_PROGRAM_HPP
