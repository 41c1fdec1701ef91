/**
 * @file
 * Cycle-accurate bit-level digital PIM simulator (paper §VI).
 *
 * The simulator is a drop-in replacement for a physical PIM chip: its
 * only interface with the libraries above it is the encoded micro-op
 * stream (OperationSink), it models every micro-operation bit-by-bit
 * exactly as the crossbar periphery would, and it keeps per-op-type
 * profiling counters from which the evaluation derives throughput via
 * the paper's Eq. (1).
 *
 * The simulator owns the simulated state — crossbar arrays, H-tree,
 * the in-stream mask state (the volatile crossbar activation bit and
 * the stored row mask of §III-B, expanded once per row-mask op), and
 * statistics — while HOW a micro-op stream is replayed over that
 * state is delegated to the ExecutionEngine (sim/engine.hpp): raw
 * batches apply op-major, and prepared traces replay their compiled
 * programs crossbar-major, over a thread pool when configured with
 * more than one thread — scaling with host cores like real PIM
 * scales with crossbars. The engine can be rebuilt at another thread
 * count without losing memory contents.
 *
 * Execution is synchronous: every batch, trace and bulk transfer has
 * taken effect (or thrown) when its call returns, so reads, direct
 * state access and stats queries need no synchronisation.
 */
#ifndef PYPIM_SIM_SIMULATOR_HPP
#define PYPIM_SIM_SIMULATOR_HPP

#include <memory>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/crossbar.hpp"
#include "sim/engine.hpp"
#include "sim/htree.hpp"
#include "sim/segment_trace.hpp"
#include "sim/sink.hpp"
#include "uarch/microop.hpp"

namespace pypim
{

class FaultInjector;

/** One landing write of a boundary exchange: @p value into register
 *  @p slot, row @p row of GLOBAL crossbar @p xb. */
struct CellWrite
{
    uint32_t xb = 0, slot = 0, value = 0, row = 0;
};

/** Full-memory digital PIM simulator. */
class Simulator : public OperationSink
{
  public:
    /** @p ec sets the replay threads (default: one). */
    explicit Simulator(const Geometry &geo,
                       const EngineConfig &ec = {});

    /**
     * Sub-device simulator owning only the crossbar slice
     * [@p sliceLo, @p sliceLo + @p sliceCount) of @p geo's crossbar
     * space (sim/device_group.hpp). The micro-op interface stays in
     * GLOBAL coordinates — masks, traces, the H-tree cost model and
     * all architectural statistics are identical to a full-array
     * simulator fed the same stream — but crossbar STATE is allocated
     * and mutated only for the owned slice: work ops clip their
     * broadcast to it, Moves apply only intra-slice transfers, and
     * Reads outside the slice validate, count and return 0. Cached
     * BatchTrace handles built by any same-geometry simulator replay
     * unchanged on every slice.
     */
    Simulator(const Geometry &geo, const EngineConfig &ec,
              uint32_t sliceLo, uint32_t sliceCount);

    // The engine holds references into the simulator's state.
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    // OperationSink interface. submitBatch keeps the default forward
    // to performBatch; flush is the drain-point checksum verify.
    void performBatch(const Word *ops, size_t n) override;
    void flush() override;
    uint32_t performRead(Word op) override;

    /**
     * Build a shared immutable replay-ready trace: the pre-pass
     * decodes, validates and records stats once, compiling every
     * segment straight into a ReplayProgram
     * (sim/replay_program.hpp) before the trace is frozen. Without
     * @p entry the stream must be self-contained (set both masks
     * before its first non-mask op; returns null otherwise) and is
     * decoded from power-on; with @p entry it is decoded from that
     * mask state, which the trace records. Does not execute and does
     * not advance the mask state; replay it (any number of times)
     * through submitTrace.
     */
    std::shared_ptr<const BatchTrace>
    prepareTrace(const Word *ops, size_t n,
                 const EntryMasks *entry = nullptr) override;

    /**
     * Execute a trace built by prepareTrace on this simulator:
     * equivalent to performBatch of the original stream (stats, final
     * mask state and replay) but with zero decode work. Panics if the
     * trace has an entry mask state and the live masks differ from it.
     */
    void submitTrace(std::shared_ptr<const BatchTrace> trace) override;

    /**
     * Bulk block-transfer read: verify the checksums ONCE (one drain
     * point per transfer, not one per element), apply the spec's
     * pre-planned stats delta and final mask state exactly as a
     * submitTrace would, then gather via the engine's transpose
     * kernels. Elements outside the owned slice are left untouched in
     * @p out (the device group assembles the full buffer from its
     * sub-devices). Always returns true.
     */
    bool readBulk(const BulkIoSpec &spec, uint32_t *out,
                  BulkIoTelemetry &tel) override;

    /** Bulk block-transfer write: the scatter mirror of readBulk. */
    bool writeBulk(const BulkIoSpec &spec, const uint32_t *values,
                   BulkIoTelemetry &tel) override;

    /** Execute one decoded micro-op (test convenience). */
    void perform(const MicroOp &op);

    /** Execute a Read micro-op and return the N-bit response. */
    uint32_t read(const MicroOp &op);

    const Geometry &geometry() const { return geo_; }
    const HTree &htree() const { return htree_; }

    /**
     * The expansion table this simulator decodes through
     * (sim/segment_trace.hpp): prepareTrace, and a shard worker's
     * trace installs. Empty until the first LogicH word is decoded.
     */
    ExpansionTable &expansions() { return expansions_; }

    /** First GLOBAL crossbar id this simulator owns (0 unless it is a
     *  sub-device slice). */
    uint32_t sliceLo() const { return sliceLo_; }
    /** Owned crossbars (geometry().numCrossbars unless sliced). */
    uint32_t
    sliceCount() const
    {
        return static_cast<uint32_t>(xbs_.size());
    }
    /** True iff global crossbar @p i is simulated by this instance. */
    bool
    ownsCrossbar(uint32_t i) const
    {
        return i >= sliceLo_ && i - sliceLo_ < xbs_.size();
    }

    /**
     * Direct crossbar state access by GLOBAL id (tests and host-side
     * loaders); throws pypim::Error for crossbars outside the owned
     * slice.
     */
    Crossbar &
    crossbar(uint32_t i)
    {
        checkOwned(i);
        // The caller may mutate state the checksum machinery never
        // sees (direct test writes, checkpoint restore): the next
        // verify point re-blesses instead of comparing.
        checksumsStale_ = true;
        return xbs_[i - sliceLo_];
    }
    const Crossbar &
    crossbar(uint32_t i) const
    {
        checkOwned(i);
        return xbs_[i - sliceLo_];
    }

    /**
     * Land boundary-exchange values into owned crossbars: verify the
     * checksums (a fault injected since the last bless surfaces
     * here instead of being adopted), write every cell, then re-bless.
     * Throws pypim::Error for a crossbar outside the owned slice. Stage
     * the matching reads through the const crossbar(), which leaves
     * the checksum baseline alone.
     */
    void writeCells(std::span<const CellWrite> cells);

    const Range &crossbarMask() const { return mask_.xb; }
    const Range &rowMask() const { return mask_.row; }

    /**
     * Aggregate storage footprint of every owned crossbar. Pure
     * observability: never part of the
     * architectural Stats the parity suites compare exactly.
     */
    StorageGauges storageGauges() const;

    /**
     * Re-elide every materialised block that has decayed to all-zero
     * across the owned slice (paged storage; no-op for dense).
     * Returns the number of blocks returned to the pool.
     */
    uint64_t compactStorage();

    Stats &stats() { return stats_; }
    const Stats &stats() const { return stats_; }

    /** The execution engine. */
    ExecutionEngine &engine() { return *engine_; }
    const ExecutionEngine &engine() const { return *engine_; }

    /**
     * Rebuild the execution engine at @p ec's thread count. Crossbar
     * contents, mask state and statistics are owned by the simulator
     * and survive the swap. Throws pypim::Error if @p ec sets a
     * retired field.
     */
    void setEngine(const EngineConfig &ec);

    // --- fault tolerance (sim/fault.hpp, sim/checkpoint.hpp) --------

    /**
     * Enable per-crossbar state checksums (PYPIM_VERIFY_STATE):
     * verified before every batch replay and at every drain point,
     * re-blessed after every legitimate mutation. A mismatch throws
     * StateCorruption — the signal the RecoverySink's retry-with-
     * restore policy acts on. Blesses the current state.
     */
    void setVerifyState(bool on);
    bool verifyState() const { return verifyState_; }

    /** Install the deterministic fault injector. */
    void setFaultInjector(std::shared_ptr<FaultInjector> inj);

    /**
     * Checkpoint-restore of the non-crossbar architectural state:
     * mask ranges and the Stats block. Crossbar state
     * is restored separately via resetState + loadBlock.
     */
    void restoreArchState(const Range &maskXb, const Range &maskRow,
                          const Stats &stats);

    /** Re-bless the checksums after an external state rewrite (the
     *  restore path's last step). */
    void rebaselineChecksums();

  private:
    void checkOwned(uint32_t i) const;

    /**
     * Pre-replay hook (and drain-point verify): compare every owned
     * crossbar's checksum against the blessed set, throwing
     * StateCorruption on mismatch. A stale baseline (direct host
     * mutation through non-const crossbar()) blesses instead.
     */
    void verifyChecksums();
    /** Recompute and store the blessed per-crossbar checksums. */
    void blessChecksums();
    /**
     * Post-replay hook: bless the legitimate post-batch state, then
     * let the injector fail the batch and/or corrupt state WITHOUT
     * re-blessing (sim/fault.hpp) — so the next verify detects it.
     */
    void postReplayHook();
    /** Run @p fn between the verify and post-replay hooks. */
    template <typename Fn> void replayGuarded(Fn &&fn);

    Geometry geo_;
    uint32_t sliceLo_ = 0;
    std::vector<Crossbar> xbs_;
    HTree htree_;
    ExpansionTable expansions_;
    MaskState mask_;
    Stats stats_;
    std::unique_ptr<ExecutionEngine> engine_;
    bool verifyState_ = false;
    /** Blessed per-crossbar state digests (empty until enabled). */
    std::vector<uint64_t> checksums_;
    /** Host mutated state directly: next verify blesses, not compares. */
    bool checksumsStale_ = false;
    std::shared_ptr<FaultInjector> injector_;
};

} // namespace pypim

#endif // PYPIM_SIM_SIMULATOR_HPP
