/**
 * @file
 * Micro-operation sinks.
 *
 * The host driver emits encoded micro-operations into an
 * OperationSink. The cycle-accurate Simulator is the drop-in
 * replacement for a physical PIM chip (paper §VI); BufferSink models
 * the "ideal chip" used to measure the host driver's maximal
 * throughput (artifact appendix E: micro-ops are rerouted to a memory
 * buffer); CountingSink merely classifies ops for quick profiling.
 *
 * Batching: the driver accumulates the micro-ops of one
 * macro-instruction and forwards them in one performBatch call,
 * mirroring the paper's batching optimisation (§VI "the
 * micro-operations are performed in batches"). Batches are also the
 * unit of parallelism below this seam: the Simulator hands each batch
 * to a pluggable ExecutionEngine (sim/engine.hpp), which may replay
 * it shard-parallel across host threads.
 */
#ifndef PYPIM_SIM_SINK_HPP
#define PYPIM_SIM_SINK_HPP

#include <cstddef>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "uarch/microop.hpp"

namespace pypim
{

struct BatchTrace;
struct BulkIoSpec;
struct BulkIoTelemetry;

/**
 * The mask state a stream that is not self-contained starts from:
 * the crossbar and row masks the chip holds when the stream is
 * submitted (OperationSink::prepareTrace).
 */
struct EntryMasks
{
    Range xb;
    Range row;
};

/** Abstract consumer of encoded micro-operations. */
class OperationSink
{
  public:
    virtual ~OperationSink() = default;

    /** Execute @p n encoded micro-operations in order. */
    virtual void performBatch(const Word *ops, size_t n) = 0;

    /**
     * Submit @p n encoded micro-operations for (possibly asynchronous)
     * execution. The ops buffer is only read during the call; the
     * call may return before the ops have taken effect. Effects become
     * observable in submission order, at the latest after flush().
     * performRead is an implicit flush. The default forwards to the
     * synchronous performBatch, so plain sinks (the Simulator among
     * them) need not care. SimulatorGroup overrides it; under the
     * socket transport it streams the batch to its workers without a
     * round trip and reports their errors at the next sync point
     * (sim/device_group.hpp).
     */
    virtual void
    submitBatch(const Word *ops, size_t n)
    {
        performBatch(ops, n);
    }

    /** Drain any pending submitted work (no-op for synchronous sinks). */
    virtual void flush() {}

    /**
     * Build a shared, immutable, replay-ready trace of @p n micro-ops
     * (the trace-cache entry behind the driver's stream cache,
     * sim/batch_trace.hpp): decoded, validated and compiled once,
     * then replayed forever through submitTrace with zero decode work.
     * Does NOT execute anything and leaves the sink's architectural
     * state untouched. Without @p entry the stream must be
     * self-contained (set both masks before its first non-mask op, so
     * the decoded snapshots are independent of the sink's mask state
     * — see leadsWithMasks). With @p entry it is decoded from that
     * mask state, and the trace may only be submitted while the sink
     * holds exactly those masks (submitTrace panics otherwise; a
     * socket worker holds the error for the next sync point).
     * Returns null when the sink does not support trace replay (plain
     * sinks keep consuming raw streams), when a stream without
     * @p entry is not self-contained, or when a multi-device group
     * finds a Move that crosses a slice boundary (judged from
     * @p entry's crossbar mask when given), which needs the group's
     * scanning exchange.
     */
    virtual std::shared_ptr<const BatchTrace>
    prepareTrace(const Word *ops, size_t n,
                 const EntryMasks *entry = nullptr)
    {
        (void)ops;
        (void)n;
        (void)entry;
        return nullptr;
    }

    /**
     * Submit a trace previously built by prepareTrace ON THIS SINK
     * for (possibly asynchronous) execution, equivalent to
     * submitBatch of the stream it was built from: the batch's
     * architectural stats and final mask state apply at the submit,
     * replay is ordered against surrounding submitBatch calls, and
     * flush()/performRead drain it. Panics on sinks whose
     * prepareTrace returned null (the caller holds no valid handle),
     * and when a trace built with entry masks is submitted under any
     * other mask state.
     */
    virtual void submitTrace(std::shared_ptr<const BatchTrace> trace);

    /**
     * Bulk block-transfer read (sim/bulk_io.hpp): drain pending work
     * ONCE, apply the spec's pre-planned architectural stats delta and
     * final mask state, then gather the addressed values into @p out
     * via the crossbars' tile-transpose kernels — equivalent to the
     * per-element performRead loop the spec was planned from, at a
     * fraction of the host cost. Returns false when the sink has no
     * bulk path (the default): the caller falls back to the
     * element-wise stream, which stays the parity oracle.
     */
    virtual bool
    readBulk(const BulkIoSpec &spec, uint32_t *out, BulkIoTelemetry &tel)
    {
        (void)spec;
        (void)out;
        (void)tel;
        return false;
    }

    /**
     * Bulk block-transfer write: the scatter mirror of readBulk,
     * equivalent to submitting the spec's canonical run stream.
     * Returns false when unsupported (caller emits the stream).
     */
    virtual bool
    writeBulk(const BulkIoSpec &spec, const uint32_t *values,
              BulkIoTelemetry &tel)
    {
        (void)spec;
        (void)values;
        (void)tel;
        return false;
    }

    /**
     * Execute a Read micro-op and return its N-bit response.
     * Non-simulating sinks return 0.
     */
    virtual uint32_t performRead(Word op) = 0;

    /** Convenience single-op path. */
    void perform(Word op) { performBatch(&op, 1); }
};

/**
 * Stores micro-ops into a fixed ring buffer without executing them.
 * Used by bench_driver to measure the generation rate of the host
 * driver against the chip's consumption rate (1 op/cycle at clockHz).
 */
class BufferSink : public OperationSink
{
  public:
    explicit BufferSink(size_t capacity = 1 << 16);

    void performBatch(const Word *ops, size_t n) override;
    uint32_t performRead(Word op) override;

    /** Total micro-ops received (including wrapped-over ones). */
    uint64_t total() const { return total_; }
    /** Ring buffer contents (most recent ops). */
    const std::vector<Word> &buffer() const { return buf_; }

  private:
    std::vector<Word> buf_;
    size_t pos_ = 0;
    uint64_t total_ = 0;
};

/**
 * Appends every op it is handed, executing nothing: the driver
 * records instruction streams through it, and benches and tests
 * capture a driver's stream with it.
 */
struct StreamRecorder : OperationSink
{
    std::vector<Word> ops;
    void
    performBatch(const Word *p, size_t n) override
    {
        ops.insert(ops.end(), p, p + n);
    }
    uint32_t performRead(Word) override { return 0; }
};

/** Counts micro-ops by class without executing them. */
class CountingSink : public OperationSink
{
  public:
    void performBatch(const Word *ops, size_t n) override;
    uint32_t performRead(Word op) override;

    const Stats &stats() const { return stats_; }
    void clear() { stats_.clear(); }

  private:
    Stats stats_;
};

} // namespace pypim

#endif // PYPIM_SIM_SINK_HPP
