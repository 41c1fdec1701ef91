/**
 * @file
 * Pluggable micro-op execution engines for the simulator.
 *
 * The simulator's job splits cleanly in two: *what* a micro-op does to
 * the crossbar state (bit-accurate semantics, paper §III) and *how*
 * the host machine replays it over the simulated memory. ExecutionEngine
 * captures the "how" behind a narrow seam so the semantics are written
 * once (in this base class) and backends only choose a replay strategy:
 *
 *  - SerialEngine (serial_engine.hpp): the reference backend; every op
 *    is applied to all mask-selected crossbars on the calling thread,
 *    op-major.
 *  - ShardedEngine (sharded_engine.hpp): decodes each barrier-free
 *    segment once (sim/segment_trace.hpp), compiles it into a
 *    ReplayProgram (sim/replay_program.hpp) and replays that
 *    crossbar-major on a persistent thread pool, inline at one thread
 *    — the host-side analogue of the paper's observation (§VI) that
 *    crossbars are independent between the cross-crossbar ops (Read,
 *    H-tree Move), which serialise.
 *
 * A segment replays in exactly one form, the compiled program: every
 * engine replays prepared traces through replayBatch.
 * SerialEngine's op-major path is the one oracle.
 *
 * Engines operate on state OWNED BY the Simulator (crossbars, H-tree,
 * in-stream mask state, stats), so engines can be swapped at runtime
 * without losing memory contents, and all engines are guaranteed
 * bit-identical by the parity test suite (tests/test_engine_parity.cpp).
 */
#ifndef PYPIM_SIM_ENGINE_HPP
#define PYPIM_SIM_ENGINE_HPP

#include <algorithm>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/crossbar.hpp"
#include "sim/htree.hpp"
#include "sim/segment_trace.hpp"
#include "uarch/microop.hpp"

namespace pypim
{

struct BatchTrace;
struct BulkIoSpec;
struct ReplayProgram;

/**
 * One micro-op replay backend. Owns no simulated state; executes
 * encoded micro-op batches against the Simulator's crossbars, mask
 * state and statistics counters (all passed in by reference).
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
    ExecutionEngine(const Geometry &geo, std::vector<Crossbar> &xbs,
                    uint32_t xbBase, const HTree &htree,
                    MaskState &mask, Stats &stats)
        : geo_(geo), xbs_(xbs), xbBase_(xbBase), htree_(htree),
          mask_(mask), stats_(stats)
    {
    }

    virtual ~ExecutionEngine() = default;

    ExecutionEngine(const ExecutionEngine &) = delete;
    ExecutionEngine &operator=(const ExecutionEngine &) = delete;

    /** Backend name ("serial", "sharded") for reporting. */
    virtual const char *name() const = 0;

    /** Host threads participating in execution (1 for serial). */
    virtual uint32_t threads() const { return 1; }

    /** Execute @p n encoded micro-operations in order. */
    virtual void execute(const Word *ops, size_t n) = 0;

    /**
     * Replay one compiled segment (sim/replay_program.hpp) over the
     * owned slice of its crossbar hull. The program was validated and
     * recorded in the architectural stats when its segment was built,
     * so the engine only applies state changes. The default replays
     * crossbar-major inline on the calling thread; ShardedEngine fans
     * the hull out over its pool. The per-crossbar work is
     * Crossbar::replayProgram, whose executor is specialized over
     * storage mode and mask shape.
     */
    virtual void replayProgram(const ReplayProgram &prog);

    /**
     * Replay one pre-built, compiled batch in stream order: Moves via
     * applyMove, segments via replayProgram. The batch was validated
     * and its stats recorded at build time, so this is pure state
     * application on any backend. Panics if a segment has no compiled
     * program.
     */
    void replayBatch(const BatchTrace &batch);

    /**
     * Execute a Read micro-op and return the N-bit response. Reads
     * address exactly one (crossbar, row) and are inherently serial,
     * so all backends share this implementation.
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
     * 64-bit words transposed. Shared by all backends: the transfer
     * runs between replays, so the array is quiescent.
     */
    uint64_t executeReadBulk(const BulkIoSpec &spec, uint32_t *out);

    /** The scatter mirror of executeReadBulk: write @p values into
     *  the addressed rows of owned crossbars. */
    uint64_t applyWriteBulk(const BulkIoSpec &spec,
                            const uint32_t *values);

  protected:
    /** Reference semantics: apply one op to the full crossbar array. */
    void serialPerform(const MicroOp &op);

    /**
     * Apply a pre-validated Move under the crossbar-mask snapshot
     * @p xb: pure data movement, no validation, no stats. replayBatch
     * calls this for a trace's Move items (validation and stats were
     * recorded at build time).
     */
    void applyMove(const MicroOp &op, const Range &xb);

    /**
     * Split @p ops at the cross-crossbar barriers: barrier ops run
     * immediately via the reference semantics, and @p fn(seg, len) is
     * invoked for each maximal barrier-free segment in between — the
     * segmentation every trace-consuming backend shares.
     */
    template <typename Fn>
    void
    forEachSegment(const Word *ops, size_t n, Fn &&fn)
    {
        size_t i = 0;
        while (i < n) {
            if (isBarrierOp(enc::peekType(ops[i]))) {
                serialPerform(MicroOp::decode(ops[i]));
                ++i;
                continue;
            }
            size_t j = i + 1;
            while (j < n && !isBarrierOp(enc::peekType(ops[j])))
                ++j;
            fn(ops + i, j - i);
            i = j;
        }
    }

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

  private:
    /** doMove scratch (read-all-then-write-all staging), reused so
     *  the per-op hot path never allocates. */
    std::vector<uint32_t> moveValues_;
    std::vector<uint32_t> moveDsts_;
};

/** Instantiate the backend selected by @p cfg over the given state.
 *  Throws pypim::Error if @p cfg turns compiled replay off. */
std::unique_ptr<ExecutionEngine>
makeEngine(const EngineConfig &cfg, const Geometry &geo,
           std::vector<Crossbar> &xbs, uint32_t xbBase,
           const HTree &htree, MaskState &mask, Stats &stats);

/**
 * Validate a Read against the mask state exactly as the serial
 * reference would, without touching any crossbar. Shared between
 * executeRead and the trace pre-pass (buildBatchTrace, which
 * validates at build time so a malformed op is reported by the call
 * containing it).
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
