/**
 * @file
 * Micro-operation emission engine of the host driver.
 *
 * The GateBuilder turns logic-level intent (NOR/NOT gates between
 * cells, lane-wide parallel gates, mask changes) into encoded
 * micro-operations, batched and forwarded to an OperationSink — the
 * macro-to-micro translation core of paper §V-B.
 *
 * Two emission regimes:
 *  - cell gates: one stateful gate per micro-op, between arbitrary
 *    columns. The builder places allocated outputs so the half-gate
 *    span restriction holds, and falls back to a copy when a caller
 *    pins an output strictly between its inputs.
 *  - lane gates: the same intra-partition gate repeated across all
 *    (or a run of) partitions in ONE micro-op using the periodic
 *    half-gate pattern (paper §III-D3) — N gates per row per cycle.
 *
 * The ablation switch setPartitionsEnabled(false) lowers every lane
 * helper to per-cell serial gates, reproducing the partition-free
 * bit-serial baseline of AritPIM for bench_ablation.
 *
 * Every NOR/NOT output is pre-initialised to 1 (stateful logic can
 * only switch 1 -> 0); the *NoInit/init=false variants let routines
 * that bulk-initialise whole lanes skip the per-gate INIT.
 */
#ifndef PYPIM_DRIVER_GATEBUILDER_HPP
#define PYPIM_DRIVER_GATEBUILDER_HPP

#include <optional>
#include <vector>

#include "common/config.hpp"
#include "driver/scratch.hpp"
#include "sim/sink.hpp"
#include "uarch/microop.hpp"
#include "uarch/range.hpp"

namespace pypim
{

/** Batched micro-op emitter with stateful-logic primitives. */
class GateBuilder
{
  public:
    GateBuilder(OperationSink &sink, const Geometry &geo);

    const Geometry &geometry() const { return *geo_; }
    ScratchPool &pool() { return pool_; }

    /** Disable partition parallelism (pure bit-serial baseline). */
    void setPartitionsEnabled(bool on) { partitionsEnabled_ = on; }
    bool partitionsEnabled() const { return partitionsEnabled_; }

    // --- masks and batching ---------------------------------------------

    /** Emit mask ops if the requested masks differ from the current. */
    void setMasks(const Range &warps, const Range &rows);
    void setWarpMask(const Range &warps);
    void setRowMask(const Range &rows);
    const Range &warpMask() const { return warpMask_.value(); }
    const Range &rowMask() const { return rowMask_.value(); }

    /** True iff both cached masks are known (set or assumed since the
     *  last resetMaskState) — the precondition of the bulk-I/O
     *  planners, which replicate this builder's dedup decisions. */
    bool
    masksKnown() const
    {
        return warpMask_.has_value() && rowMask_.has_value();
    }
    /** Cached warp mask, unset if unknown (bulk-I/O planning). */
    const std::optional<Range> &knownWarpMask() const { return warpMask_; }
    /** Cached row mask, unset if unknown (bulk-I/O planning). */
    const std::optional<Range> &knownRowMask() const { return rowMask_; }

    /** Push the batched micro-ops to the sink. */
    void flush();

    /** Swap the output sink (stream recording); returns the old one. */
    OperationSink *swapSink(OperationSink *s);

    /** Forget the cached mask state (forces re-emission). */
    void
    resetMaskState()
    {
        warpMask_.reset();
        rowMask_.reset();
    }

    /** Drop any batched micro-ops without submitting them (checkpoint
     *  restore: pending ops were translated against the timeline the
     *  restore is discarding). */
    void discardBatch() { buf_.clear(); }

    /**
     * Declare the chip's mask state without emitting ops (used after
     * replaying a recorded stream that ends in these masks). An unset
     * mask is unknown (a replayed move sequence may leave one so).
     */
    void
    assumeMasks(const std::optional<Range> &warps,
                const std::optional<Range> &rows)
    {
        warpMask_ = warps;
        rowMask_ = rows;
    }

    /** Append one encoded micro-op to the batch. */
    void
    emit(Word w)
    {
        buf_.push_back(w);
        if (buf_.size() >= flushThreshold)
            flush();
    }

    /** Write an N-bit constant to @p slot of all masked rows/warps. */
    void writeWord(uint32_t slot, uint32_t value);

    /**
     * Read @p slot of (@p warp, @p row): narrows the masks, flushes,
     * performs the read, and restores the previous masks.
     */
    uint32_t readWord(uint32_t warp, uint32_t row, uint32_t slot);

    // --- cell addressing --------------------------------------------------

    uint32_t partOf(uint32_t cell) const
    {
        return cell / geo_->partitionWidth();
    }
    uint32_t cell(uint32_t slot, uint32_t bit) const
    {
        return geo_->column(slot, bit);
    }

    // --- single stateful gates (one micro-op per gate + optional INIT) ---

    void initCell(uint32_t c, bool v);
    void notInto(uint32_t a, uint32_t out, bool init = true);
    void norInto(uint32_t a, uint32_t b, uint32_t out, bool init = true);

    /** NOR into a freshly-allocated, span-legal cell. */
    uint32_t nor(uint32_t a, uint32_t b);
    uint32_t not_(uint32_t a);
    uint32_t or_(uint32_t a, uint32_t b);    //!< 2 gates
    uint32_t and_(uint32_t a, uint32_t b);   //!< 3 gates
    uint32_t xnor_(uint32_t a, uint32_t b);  //!< 4 gates
    uint32_t xor_(uint32_t a, uint32_t b);   //!< 5 gates
    /** s ? a : b (4 gates). */
    uint32_t mux(uint32_t s, uint32_t a, uint32_t b);
    /** s ? a : b given both s and ~s (3 gates). */
    uint32_t muxN(uint32_t s, uint32_t ns, uint32_t a, uint32_t b);

    /**
     * 9-gate NOR full adder: {sumOut, coutOut} <- a + b + c. Outputs
     * go to caller-chosen cells (INIT included).
     */
    void fullAdder(uint32_t a, uint32_t b, uint32_t c,
                   uint32_t sumOut, uint32_t coutOut);

    /** Copy src into dst (two NOT gates through a temporary). */
    void copyCell(uint32_t src, uint32_t dst);

    // --- lane operations (one cell per partition, same slot) --------------

    /** INIT the whole lane in one periodic micro-op. */
    void initLane(uint32_t slot, bool v);
    /** INIT partitions [p0, p1] of a lane. */
    void runInit(uint32_t slot, uint32_t p0, uint32_t p1, bool v);
    /** dst[p] <- NOT src[p] for p in [p0, p1]. */
    void runNot(uint32_t srcSlot, uint32_t dstSlot,
                uint32_t p0, uint32_t p1, bool init = true);
    /** dst[p] <- NOR(a[p], b[p]) for p in [p0, p1]. */
    void runNor(uint32_t aSlot, uint32_t bSlot, uint32_t dstSlot,
                uint32_t p0, uint32_t p1, bool init = true);
    void laneNot(uint32_t srcSlot, uint32_t dstSlot, bool init = true);
    void laneNor(uint32_t aSlot, uint32_t bSlot, uint32_t dstSlot,
                 bool init = true);
    /** Copy a whole lane (two lane NOTs through a temporary). */
    void laneCopy(uint32_t srcSlot, uint32_t dstSlot);

    /**
     * Replicate one cell into every partition of @p dstSlot
     * (linear-cost partition broadcast: ~N+3 micro-ops).
     */
    void broadcastToLane(uint32_t srcCell, uint32_t dstSlot);

    /**
     * Raw periodic horizontal op for partition-parallel algorithms
     * (Brent-Kung sweeps, partition shifts). No INIT is emitted.
     */
    void periodic(Gate g, uint32_t inA, uint32_t inB, uint32_t out,
                  uint32_t pEnd, uint32_t pStep);

  private:
    static constexpr size_t flushThreshold = 1 << 15;

    OperationSink *sink_;
    const Geometry *geo_;
    ScratchPool pool_;
    std::vector<Word> buf_;
    std::optional<Range> warpMask_;
    std::optional<Range> rowMask_;
    bool partitionsEnabled_ = true;
};

} // namespace pypim

#endif // PYPIM_DRIVER_GATEBUILDER_HPP
