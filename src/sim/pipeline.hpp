/**
 * @file
 * Double-buffered asynchronous execution pipeline (driver/replay
 * overlap).
 *
 * The evaluation of the paper (§VII, reproduced by bench_driver) shows
 * the host driver's translation rate competing with the chip's
 * 1-op/cycle consumption; running the two strictly in sequence leaves
 * one side of a multi-core host idle at all times. The pipeline splits
 * the sink into two stages connected by a bounded hand-off queue of
 * decoded batch buffers:
 *
 *   caller thread (producer)             consumer thread
 *   ------------------------             -----------------------------
 *   submitBatch(ops, n)
 *     acquire a free BatchTrace   ---.
 *     buildSegmentTrace per segment   \   dequeue BatchTrace k
 *     (validate, record stats,         `> compileBatchTrace (arena
 *      advance the mask state)            batches only)
 *     enqueue; return immediately        replay items in order:
 *                                         - ReplayProgram -> engine->
 *   ... translate batch k+1 ...             replayProgram (sharded:
 *                                           fan out over the pool)
 *                                         - Move -> engine->applyMove
 *                                        release the buffer
 *
 * One-shot arena batches are compiled on the CONSUMER, just before
 * replay: the compile then overlaps the producer's translation of the
 * next batch instead of lengthening the producer's critical path. The
 * programs live in the arena batch, so steady-state compiling reuses
 * their capacity.
 *
 * Double buffering: kBuffers (two) independent SegmentTrace arenas
 * cycle through the queue, so the pre-pass for batch k+1 runs while
 * the engine replays trace k; the producer blocks only when both
 * buffers are in flight. Trace-cache hits bypass the arenas entirely:
 * submitShared enqueues a shared immutable pre-built, pre-compiled
 * BatchTrace (sim/batch_trace.hpp) in FIFO order with the arena
 * batches, with its own backpressure bound — the consumer replays it
 * with zero decode or compile work and the shared_ptr keeps it alive
 * even if the owning cache is cleared mid-flight. All validation and
 * architectural Stats recording happen on the producer inside
 * submitBatch — a malformed op therefore throws at the submitBatch
 * that contained it, before the batch touches any crossbar (the same
 * error-stream semantics as the sharded engine), and the consumer
 * compiles and applies pre-validated state changes only, so the two
 * threads share no mutable state outside the queue.
 *
 * Reads have no architectural state effect on the data-less path
 * (validate + count, response dropped), so they are absorbed at
 * submit time and never queued; performRead and every other
 * synchronous access drain the pipeline first (Simulator::flush).
 */
#ifndef PYPIM_SIM_PIPELINE_HPP
#define PYPIM_SIM_PIPELINE_HPP

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/batch_trace.hpp"
#include "sim/segment_trace.hpp"
#include "uarch/microop.hpp"

namespace pypim
{

class ExecutionEngine;
class HTree;
class Crossbar;

/**
 * The Simulator's asynchronous execution stage: owns the bounded
 * hand-off queue, the double-buffered trace arenas and the consumer
 * thread. Producer-side methods (submit, drain) must be called from
 * one thread at a time — the same contract as OperationSink itself.
 */
class SimulatorPipeline
{
  public:
    /**
     * @p preReplay / @p postReplay (either may be null) run on the
     * consumer thread around every engine replayBatch, inside the
     * same try whose failure becomes the sticky error — the
     * fault-tolerance hook points (sim/simulator.hpp): verify the
     * pre-batch state checksums, then bless the post-batch state and
     * let the fault injector corrupt it.
     */
    SimulatorPipeline(const Geometry &geo, const HTree &htree,
                      MaskState &mask, Stats &stats,
                      std::unique_ptr<ExecutionEngine> &engine,
                      std::function<void()> preReplay = nullptr,
                      std::function<void()> postReplay = nullptr);

    /** Drains remaining batches, then joins the consumer. */
    ~SimulatorPipeline();

    SimulatorPipeline(const SimulatorPipeline &) = delete;
    SimulatorPipeline &operator=(const SimulatorPipeline &) = delete;

    /**
     * Decode @p ops into the next free batch buffer and enqueue it for
     * asynchronous replay. Blocks only while both buffers are in
     * flight. Throws (on this thread) if any op is malformed — before
     * the batch touches any crossbar — or if a previous batch failed
     * on the consumer.
     */
    void submit(const Word *ops, size_t n);

    /**
     * Enqueue a pre-built shared immutable trace (the trace-cache hit
     * path, sim/batch_trace.hpp) for asynchronous replay: the batch's
     * stats and final mask state apply here on the producer, the
     * consumer replays with zero decode work, and the shared_ptr
     * keeps the trace alive even if the owning cache is cleared while
     * the batch is in flight. Ordered FIFO with submit()ed batches;
     * blocks only when kMaxQueued traces are already pending.
     */
    void submitShared(std::shared_ptr<const BatchTrace> trace);

    /**
     * Block until every queued batch has been replayed; rethrows any
     * pending consumer-side error. The synchronisation point behind
     * performRead, host readback, stats queries and setEngine.
     */
    void drain();

    /**
     * Clear the sticky consumer-side error after the queue has gone
     * idle (remaining batches are skipped, not replayed — the state
     * is being rolled back anyway). The recovery path's first step:
     * without it, every subsequent sync point rethrows and a fresh
     * Device is the only way out (tests/test_fault.cpp asserts both
     * behaviours).
     */
    void clearError();

    /** True while the consumer is inside engine replay — the flag
     *  Crossbar::setBusyFlag points snapshot/restore asserts at. */
    const std::atomic<bool> &busyFlag() const { return busy_; }

  private:
    static constexpr uint32_t kBuffers = 2;   // double buffering
    static constexpr uint32_t kNoBuffer = UINT32_MAX;
    /** Backpressure bound for decode-free (shared-trace) submits. */
    static constexpr size_t kMaxQueued = 8;

    /** One hand-off queue entry: a cycling arena or a shared trace. */
    struct Pending
    {
        uint32_t buf = kNoBuffer;
        std::shared_ptr<const BatchTrace> shared;
    };

    void consumerLoop();

    const Geometry &geo_;
    const HTree &htree_;
    MaskState &mask_;
    Stats &stats_;
    /** Owned by the Simulator; swapped only while the queue is idle. */
    std::unique_ptr<ExecutionEngine> &engine_;

    std::array<BatchTrace, kBuffers> buffers_;

    std::mutex mu_;
    std::condition_variable cvProducer_;  //!< buffer freed / idle
    std::condition_variable cvConsumer_;  //!< batch queued / stop
    std::vector<uint32_t> free_;          //!< buffers ready for reuse
    std::deque<Pending> queued_;          //!< FIFO of submitted batches
    bool replaying_ = false;
    bool stop_ = false;
    std::exception_ptr error_;  //!< first consumer-side failure (sticky)
    std::atomic<bool> busy_{false};  //!< consumer inside engine replay
    std::function<void()> preReplay_;
    std::function<void()> postReplay_;

    std::thread consumer_;
};

} // namespace pypim

#endif // PYPIM_SIM_PIPELINE_HPP
