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
 * The one rewrite between decode and replay is the replay compiler's
 * section liveness scan (sim/replay_program.hpp), which runs on every
 * segment as it is compiled: a trace holds its ops exactly as the
 * stream issued them.
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
     * submit (cached replays never re-decode), so the compiler's
     * rewrites — which only change the applied work — cannot perturb
     * the architectural counters.
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
    /**
     * Section counts of the replay compiler's liveness scan, summed
     * over programs by compileBatchTrace. Only a compiled trace has
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
    // each shard worker's cache (FNV-1a of the source op words and
    // the entry masks), and the source stream itself — the wire image
    // ships only the raw ops (and the entry masks), and a worker
    // rebuilds and compiles the trace on its own arenas,
    // cross-checked against the shipped stats/mask epilogue. A worker's
    // installed trace keeps wireSig but not the source stream, which
    // only the host's encoder reads. Empty/zero on inproc traces: the
    // in-process group shares the handle by pointer.
    uint64_t wireSig = 0;
    std::vector<Word> sourceOps;
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

} // namespace pypim

#endif // PYPIM_SIM_BATCH_TRACE_HPP
