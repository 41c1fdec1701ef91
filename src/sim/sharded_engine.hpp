/**
 * @file
 * Shard-parallel execution engine.
 *
 * Crossbars are independent for every broadcast micro-op except the
 * cross-crossbar ones (Read and the H-tree Move) — the same structural
 * property the paper's GPU simulator exploits (§VI). The engine
 * replays whole batches crossbar-parallel on a persistent thread pool:
 *
 *  1. The batch is split into SEGMENTS at each Move/Read op.
 *  2. The coordinator decodes each segment exactly once into a
 *     SegmentTrace via the shared pre-pass (sim/segment_trace.hpp):
 *     decoded ops with pre-expanded LogicH half-gates, mask ops
 *     absorbed into per-op crossbar-mask and row-mask snapshots,
 *     INIT+gate pairs fused. The pre-pass validates everything exactly
 *     as the serial engine would, records the architectural statistics
 *     and advances the authoritative mask state; it touches no
 *     crossbar, so it is O(segment), not O(segment * crossbars).
 *  3. The coordinator compiles the trace into a ReplayProgram
 *     (sim/replay_program.hpp). Trace, program and the compiler's
 *     dedup table are arenas reused across segments and batches, so
 *     steady-state execution never reaches the heap
 *     (tests/test_no_alloc.cpp).
 *  4. The workers replay the program CROSSBAR-MAJOR under a
 *     WORK-STEALING schedule: the segment's crossbar hull is carved
 *     into small chunks claimed from a shared atomic counter, so a
 *     strided crossbar mask (where fixed contiguous blocks would give
 *     some workers mostly masked-out crossbars) still load-balances —
 *     each crossbar's entire segment is applied while its condensed
 *     column-major state is hot in cache (Crossbar::replayProgram),
 *     with no shared mutable state, no locks, no mask tracking on the
 *     hot path. With one worker the same crossbar-major loop runs
 *     inline on the coordinator.
 *  5. Move/Read ops form a barrier: they run on the coordinator over
 *     the full array via the shared base-class implementation.
 *
 * Guarantees for well-formed streams: crossbar state is bit-identical
 * to SerialEngine at any thread count (each crossbar sees the same
 * ops under the same mask snapshots, in segment order), and Stats
 * are identical by construction (only the pre-pass records them).
 * Error streams differ intentionally: the pre-pass rejects a bad op
 * BEFORE the segment touches any crossbar, whereas the serial engine
 * applies the prefix first.
 */
#ifndef PYPIM_SIM_SHARDED_ENGINE_HPP
#define PYPIM_SIM_SHARDED_ENGINE_HPP

#include <atomic>
#include <vector>

#include "sim/engine.hpp"
#include "sim/replay_program.hpp"
#include "sim/thread_pool.hpp"

namespace pypim
{

/** Multi-threaded backend executing batches crossbar-parallel. */
class ShardedEngine : public ExecutionEngine
{
  public:
    /**
     * @p pinWorkers pins the spawned pool workers to distinct host
     * cores (EngineConfig::affinity); a no-op on platforms without
     * thread-affinity support.
     */
    ShardedEngine(const Geometry &geo, std::vector<Crossbar> &xbs,
                  uint32_t xbBase, const HTree &htree, MaskState &mask,
                  Stats &stats, uint32_t threads,
                  bool pinWorkers = false);

    const char *name() const override { return "sharded"; }
    uint32_t threads() const override { return pool_.size(); }
    /** Workers actually pinned to a core (0 unless requested and
     *  supported). */
    uint32_t pinnedWorkers() const { return pool_.pinnedWorkers(); }

    void execute(const Word *ops, size_t n) override;

    /** Work-stealing crossbar-major replay over the worker pool;
     *  per-crossbar work charges through ReplayProgram's precomputed
     *  counts (once per crossbar, not once per op). */
    void replayProgram(const ReplayProgram &prog) override;

    /**
     * Per-worker applied-work counters (one op recorded per crossbar
     * actually touched by that worker): a load-balance diagnostic, NOT
     * the architectural stats. Which worker claims which chunk is
     * scheduling-dependent, but the merged total (Stats::merged)
     * always equals architectural work ops x touched crossbars.
     */
    const std::vector<Stats> &shardWork() const { return work_; }

  private:
    ThreadPool pool_;
    std::vector<Stats> work_;
    std::atomic<uint32_t> next_{0};  //!< chunk claim counter
    SegmentTrace trace_;    //!< decode arena reused across segments
    ReplayProgram prog_;    //!< compile arena reused across segments
};

} // namespace pypim

#endif // PYPIM_SIM_SHARDED_ENGINE_HPP
