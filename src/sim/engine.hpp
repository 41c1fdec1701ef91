/**
 * @file
 * The simulator's execution engine.
 *
 * The simulator's job splits cleanly in two: *what* a micro-op does to
 * the crossbar state (bit-accurate semantics, paper §III) and *how*
 * the host machine replays it over the simulated memory. The engine
 * owns the "how", in two forms:
 *
 *  - Raw micro-op batches apply OP-MAJOR on the calling thread: each
 *    op is decoded, validated, recorded in the Stats and applied to
 *    every mask-selected crossbar before the next op. This is the
 *    reference semantics and the one oracle; a malformed op throws
 *    after its valid prefix has taken effect.
 *  - Compiled programs (sim/replay_program.hpp), which a prepared
 *    trace carries, replay CROSSBAR-MAJOR: one crossbar's state stays
 *    hot in cache for the whole segment. With several threads the
 *    crossbar hull fans out over a persistent work-stealing pool —
 *    the host-side analogue of the paper's observation (§VI) that
 *    crossbars are independent between the cross-crossbar ops (Read,
 *    H-tree Move), which serialise. With one thread the same loop
 *    runs inline.
 *
 * The engine operates on state OWNED BY the Simulator (crossbars,
 * H-tree, in-stream mask state, stats), so it can be rebuilt at a new
 * thread count without losing memory contents. Compiled replay at
 * every thread count is bit-identical to the op-major oracle
 * (tests/test_engine_parity.cpp, tests/test_replay_program.cpp).
 */
#ifndef PYPIM_SIM_ENGINE_HPP
#define PYPIM_SIM_ENGINE_HPP

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/crossbar.hpp"
#include "sim/htree.hpp"
#include "sim/thread_pool.hpp"
#include "uarch/microop.hpp"
#include "uarch/range.hpp"

namespace pypim
{

struct BatchTrace;
struct BulkIoSpec;
struct ReplayProgram;

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

/**
 * The one execution engine. Owns no simulated state; executes
 * encoded micro-op batches and compiled programs against the
 * Simulator's crossbars, mask state and statistics counters (all
 * passed in by reference).
 *
 * Crossbar slices: @p xbs may hold only a contiguous SLICE of the
 * geometry's crossbar space — xbs[0] is global crossbar @p xbBase —
 * when the simulator is one sub-device of a sharded logical device
 * (sim/device_group.hpp). The micro-op stream stays in GLOBAL
 * coordinates (masks, traces and stats are identical on every
 * sub-device); the engine clips every state application to the owned
 * slice: work ops iterate the mask intersected with the slice, Moves
 * apply only transfers with both endpoints owned (boundary transfers
 * are exchanged above the simulator), and Reads outside the slice
 * validate and count but return 0. A full-array engine has xbBase 0
 * and owns everything, so the monolithic path is unchanged.
 */
class ExecutionEngine
{
  public:
    /**
     * @p threads is the replay parallelism (resolved, >= 1); more
     * workers than owned crossbars never help, so the pool is clamped
     * to the slice size.
     */
    ExecutionEngine(const Geometry &geo, std::vector<Crossbar> &xbs,
                    uint32_t xbBase, const HTree &htree,
                    MaskState &mask, Stats &stats, uint32_t threads);

    ExecutionEngine(const ExecutionEngine &) = delete;
    ExecutionEngine &operator=(const ExecutionEngine &) = delete;

    /** Host threads that replay compiled programs. */
    uint32_t threads() const { return pool_.size(); }

    /** Execute @p n encoded micro-operations in order, op-major. */
    void execute(const Word *ops, size_t n);

    /**
     * Replay one compiled segment (sim/replay_program.hpp) over the
     * owned slice of its crossbar hull. The program was validated and
     * recorded in the architectural stats when its segment was built,
     * so the engine only applies state changes: crossbar-major inline
     * at one thread, work-stealing over the pool otherwise. The
     * per-crossbar work is Crossbar::replayProgram, whose executor is
     * specialized over storage mode and mask shape.
     */
    void replayProgram(const ReplayProgram &prog);

    /**
     * Replay one pre-built, compiled batch in stream order: Moves via
     * applyMove, segments via replayProgram. The batch was validated
     * and its stats recorded at build time, so this is pure state
     * application. Panics if a segment has no compiled program.
     */
    void replayBatch(const BatchTrace &batch);

    /**
     * Execute a Read micro-op and return the N-bit response. Reads
     * address exactly one (crossbar, row) and are inherently serial.
     */
    uint32_t executeRead(const MicroOp &op);

    /**
     * Gather the values addressed by a bulk transfer spec
     * (sim/bulk_io.hpp) into @p out: per owned crossbar one
     * gatherRows call when the elements are row-consecutive, scalar
     * reads otherwise. Elements outside the owned slice are left
     * untouched — on a sharded device every sub-device fills its
     * disjoint share of the common host buffer. Stats were applied by
     * the caller (the spec carries the pre-planned delta). Returns
     * 64-bit words transposed. The transfer runs between replays, so
     * the array is quiescent.
     */
    uint64_t executeReadBulk(const BulkIoSpec &spec, uint32_t *out);

    /** The scatter mirror of executeReadBulk: write @p values into
     *  the addressed rows of owned crossbars. */
    uint64_t applyWriteBulk(const BulkIoSpec &spec,
                            const uint32_t *values);

    /**
     * Per-worker applied-work counters of the pool path (one op
     * recorded per crossbar a worker touched): a load-balance
     * diagnostic, NOT the architectural stats. Which worker claims
     * which chunk is scheduling-dependent, but at more than one
     * thread the merged total (Stats::merged) equals architectural
     * work ops x touched crossbars. The one-thread path charges
     * nothing.
     */
    const std::vector<Stats> &shardWork() const { return work_; }

  private:
    /** Reference semantics: apply one op to the owned crossbars. */
    void serialPerform(const MicroOp &op);

    /**
     * Apply a pre-validated Move under the crossbar-mask snapshot
     * @p xb: pure data movement, no validation, no stats. replayBatch
     * calls this for a trace's Move items (validation and stats were
     * recorded at build time).
     */
    void applyMove(const MicroOp &op, const Range &xb);

    void doCrossbarMask(const MicroOp &op);
    void doRowMask(const MicroOp &op);
    void doWrite(const MicroOp &op);
    void doLogicH(const MicroOp &op);
    void doLogicV(const MicroOp &op);
    void doMove(const MicroOp &op);

    // --- owned-slice helpers (global crossbar coordinates) -------------

    /** First global crossbar id owned by this engine. */
    uint32_t sliceLo() const { return xbBase_; }
    /** One past the last owned global crossbar id. */
    uint32_t
    sliceHi() const
    {
        return xbBase_ + static_cast<uint32_t>(xbs_.size());
    }
    /** True iff global crossbar @p g lives in the owned slice. */
    bool
    owns(uint32_t g) const
    {
        return g >= xbBase_ && g < sliceHi();
    }
    /** Owned crossbar by GLOBAL id (callers check owns() first). */
    Crossbar &xbAt(uint32_t g) { return xbs_[g - xbBase_]; }

    /**
     * Invoke @p fn(g) for every element of @p r that falls inside the
     * owned slice, ascending — the masked-broadcast inner loop of the
     * work ops, clipped to this sub-device.
     */
    template <typename Fn>
    void
    forEachOwned(const Range &r, Fn &&fn)
    {
        const uint32_t hi = sliceHi();
        if (r.start >= hi)
            return;
        uint32_t first = r.start;
        if (first < xbBase_)
            first += (xbBase_ - r.start + r.step - 1) / r.step * r.step;
        const uint32_t last = std::min(r.stop, hi - 1);
        for (uint32_t g = first; g <= last; g += r.step)
            fn(g);
    }

    const Geometry &geo_;
    std::vector<Crossbar> &xbs_;
    const uint32_t xbBase_;
    const HTree &htree_;
    MaskState &mask_;
    Stats &stats_;

    /** doMove scratch (read-all-then-write-all staging), reused so
     *  the per-op hot path never allocates. */
    std::vector<uint32_t> moveValues_;
    std::vector<uint32_t> moveDsts_;

    ThreadPool pool_;
    std::vector<Stats> work_;
    std::atomic<uint32_t> next_{0};  //!< pool path's chunk claim counter
};

/**
 * Validate a Read against the mask state exactly as the serial
 * reference would, without touching any crossbar. Shared between
 * executeRead and the trace pre-pass (scanBatchTrace and
 * compileBatchTrace, which validate at build time so a malformed op is
 * reported by the call containing it).
 */
void validateRead(const MicroOp &op, const Range &xb, const Range &row,
                  const Geometry &geo);

/**
 * Validate a Move against the crossbar mask @p xb exactly as the
 * serial reference would, without touching any crossbar. Returns the
 * (signed) crossbar distance of the transfer.
 */
int64_t validateMove(const MicroOp &op, const Range &xb,
                     const Geometry &geo);

} // namespace pypim

#endif // PYPIM_SIM_ENGINE_HPP
