/**
 * @file
 * Decoded, replay-ready batches: the hand-off unit between the
 * translation pre-pass and the execution engine.
 *
 * A BatchTrace is one submitted micro-op batch after the shared
 * pre-pass (sim/segment_trace.hpp): segment traces and pre-validated
 * barrier Moves in stream order, plus the architectural Stats the
 * batch records and the mask state it leaves behind. Every BatchTrace
 * is built once and then frozen: the trace cache (Driver stream cache
 * + Simulator::prepareTrace) builds one per instruction signature,
 * freezes it behind shared_ptr<const BatchTrace>, and replays the
 * same object forever — OperationSink::submitTrace is pure replay
 * with zero decode work. The shard wire builds and decodes frozen
 * traces the same way (sim/trace_wire.hpp).
 *
 * Because the expensive translation now runs once per signature, it
 * can afford a real optimisation pass: fuseBatchTrace() is a
 * window-based peephole over each segment that eliminates
 * Write-after-Write to the same slot, merges INIT1 chains across
 * independent columns into one op, and extends the builder's adjacent
 * INIT1->NOR/NOT fusion across intervening unrelated ops. Fused
 * traces replay bit-identically to unfused ones (see the legality
 * notes at fuseBatchTrace) but touch fewer column words per crossbar.
 */
#ifndef PYPIM_SIM_BATCH_TRACE_HPP
#define PYPIM_SIM_BATCH_TRACE_HPP

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/replay_program.hpp"
#include "sim/segment_trace.hpp"
#include "uarch/microop.hpp"
#include "uarch/range.hpp"

namespace pypim
{

class HTree;

/**
 * One decoded, replay-ready batch: segment traces and pre-validated
 * barrier Moves in stream order.
 */
struct BatchTrace
{
    /** One replay step of the batch. */
    struct Item
    {
        enum class Kind : uint8_t
        {
            Segment,  //!< replay segments[seg]
            Move      //!< apply op under the crossbar-mask snapshot xb
        };
        Kind kind = Kind::Segment;
        uint32_t seg = 0;
        MicroOp op;
        Range xb;
    };

    /** Ops eliminated by the window fusion pass (fuseBatchTrace). */
    struct Fusion
    {
        uint64_t waw = 0;        //!< dead Writes (Write-after-Write)
        uint64_t initChain = 0;  //!< INIT1 ops merged into a chain peer
        uint64_t window = 0;     //!< INIT1 ops window-fused into a gate
        uint64_t writeStripe = 0;  //!< Writes merged into a stripe peer
    };

    std::vector<Item> items;
    std::vector<SegmentTrace> segments;
    /**
     * Compiled form of segments (one program per segment), filled by
     * compileBatchTrace (sim/replay_program.hpp) before the batch
     * replays; the only form replay reads.
     */
    std::vector<ReplayProgram> programs;

    /**
     * Architectural Stats of the whole batch, recorded once by the
     * build pre-pass. Folded into the simulator's counters at every
     * submit (cached replays never re-decode), so fusion — which only
     * changes the applied work — cannot perturb the architectural
     * counters.
     */
    Stats stats;
    /** Mask state after the batch's last op (installed at submit). */
    Range finalXb, finalRow;
    /**
     * Set iff the batch was decoded from a given entry mask state
     * rather than from a self-contained stream (prepareTrace's entry
     * argument): it may then only replay while the live masks equal
     * entryXb/entryRow, which submitTrace checks.
     */
    bool hasEntry = false;
    Range entryXb, entryRow;
    Fusion fusion;
    /**
     * Section counts of the replay compiler's liveness scan, summed
     * over programs by compileBatchTrace. Kept apart from @ref fusion:
     * they count sections, not ops, and only a compiled trace has
     * them (a host-side wire trace is never compiled, so they are zero
     * there).
     */
    ReplayProgram::Liveness liveness;
    /** Geometry guard: a trace only replays on the array it was built
     *  for (decoded column/row/crossbar indices are layout-bound). */
    uint32_t geoRows = 0, geoCols = 0, geoPartitions = 0,
             geoCrossbars = 0;

    // --- shard-transport wire identity (sim/trace_wire.hpp) ----------
    // Filled only by the socket transport's prepareTrace path: the
    // content address under which this frozen trace is installed in
    // each shard worker's cache (FNV-1a of the source op words, the
    // fuse flag and the entry masks), and the source stream itself —
    // the wire image ships only the raw ops (and the entry masks), and
    // a worker rebuilds and compiles the trace on its own arenas,
    // cross-checked against the shipped stats/mask epilogue. A worker's
    // installed trace keeps wireSig but not the source stream, which
    // only the host's encoder reads. Empty/zero on inproc traces: the
    // in-process group shares the handle by pointer.
    uint64_t wireSig = 0;
    std::vector<Word> sourceOps;
    bool sourceFuse = false;
};

/**
 * True iff the stream sets both the crossbar and the row mask before
 * its first non-mask op. Such a stream is SELF-CONTAINED: every mask
 * snapshot the pre-pass takes derives from in-stream values, so the
 * decoded trace is independent of the mask state at build time and
 * may be replayed under any entry state. The driver's recorded
 * stream-cache entries have this shape by construction; prepareTrace
 * refuses (returns null for) anything else.
 */
bool leadsWithMasks(const Word *ops, size_t n);

/**
 * Decode the batch @p ops[0..n) into the fresh @p batch: segments
 * via buildSegmentTrace, barrier Moves validated and snapshotted,
 * data-less Reads validated and absorbed. Records
 * the architectural stats into batch.stats — including the valid
 * prefix when a malformed op throws — and advances @p mask past the
 * stream, capturing the final state in the batch.
 */
void buildBatchTrace(const Word *ops, size_t n, const Geometry &geo,
                     const HTree &htree, MaskState &mask,
                     BatchTrace &batch);

/**
 * Window-based peephole fusion over every segment of @p batch; run
 * once, before the trace is frozen and cached. Four rewrites, all
 * producing bit-identical replay:
 *
 *  - WAW elimination: a Write to slot s is dead when a later Write to
 *    the same slot covers it (crossbar-mask superset, row-mask
 *    superset) and no op in between touches any column of s.
 *  - INIT1 chain merging: an INIT1 is folded into a later INIT1 under
 *    identical masks by appending its half-gate sections (INIT
 *    sections are independent per column and INIT1 is idempotent), as
 *    long as nothing touches its output columns in between.
 *  - Windowed INIT1->NOR/NOT fusion: the builder's adjacent fusion
 *    generalised — the INIT may sit several ops back, provided masks
 *    match, the alias guard holds (fusableInitNor) and no intervening
 *    op reads or writes the INIT's output columns. Moving the INIT
 *    forward to the gate is then unobservable: stateful gates read
 *    their output (out_new = out_old & ...), so "touches" includes
 *    every gate output, and the guard is conservative at column
 *    granularity, ignoring row masks and crossbar masks of the
 *    intervening ops.
 *  - Write-stripe merging: a maximal run of CONSECUTIVE surviving
 *    Writes under identical crossbar and row masks with pairwise-
 *    distinct slots collapses into one stripe op (TraceOp::wn > 1)
 *    replayed partition-major by Crossbar::writeStripe. Distinct
 *    slots address disjoint strided column sets, so any application
 *    order is bit-identical; a repeated slot ends the run.
 *
 * Counters for the eliminated ops accumulate into batch.fusion;
 * batch.stats is untouched (fusion changes applied work only).
 */
void fuseBatchTrace(BatchTrace &batch, const Geometry &geo);

} // namespace pypim

#endif // PYPIM_SIM_BATCH_TRACE_HPP
