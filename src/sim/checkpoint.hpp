/**
 * @file
 * Crash-consistent checkpoint/restore and journaled recovery.
 *
 * Three pieces sit here, all in global crossbar coordinates (any
 * PYPIM_DEVICES count):
 *
 *  - captureSlice / restoreSlice: the one capture and the one restore
 *    of a Simulator's owned slice. Capture walks the live crossbars
 *    canonically (sim/crossbar.hpp) into a CheckpointImage
 *    (sim/serialize.hpp) with the slice's masks and Stats, which are
 *    replicated across sub-devices, so any slice's view is the
 *    device's. Restore rewrites mask + Stats, resets every owned
 *    crossbar, reloads the image's owned non-zero blocks and re-blesses
 *    the state checksums. The Simulator is synchronous, so both run
 *    between its calls with no replay in flight.
 *
 *  - buildGroupImage / restoreGroupImage: the group's image. In
 *    process they loop over the sub-devices with the slice functions;
 *    a socket worker runs the same functions on its own slice, ships
 *    its slice image as an encoded checkpoint, and the host merges
 *    the replies (restore also drops a worker's sticky error). Because
 *    the image is global-coordinate and canonical, a checkpoint taken
 *    at one device count restores into any other, and dense/paged
 *    sources are interchangeable.
 *
 *  - RecoverySink: the retry-with-restore policy behind the
 *    OperationSink seam, sitting between the Device's driver and its
 *    SimulatorGroup. When EngineConfig::verifyState is on it keeps a
 *    rollback baseline (group-state-only CheckpointImage) plus a
 *    journal of every state-affecting call since, and wraps each
 *    forwarded call in a bounded retry loop: a DeviceFault
 *    (sim/fault.hpp — a failed checksum verify or an injected replay
 *    abort, including one a socket worker reports at sync)
 *    triggers restore-baseline + re-replay-journal, then the call
 *    retries; both run with the injector's one-shot/transient classes
 *    suppressed. Unrecoverable damage (stuck-at pins re-corrupting every
 *    re-replay) exhausts kRetryCap and becomes a STICKY terminal
 *    error rethrown at this and every later call — the PR 3
 *    report-at-sync contract, never silent corruption. When
 *    verifyState is off the sink is a zero-overhead forwarder: faults
 *    are injected but undetected: a failed replay throws at the call
 *    that replayed it, or, on a socket worker, surfaces as the
 *    worker's sticky error until Device::restore clears it.
 */
#ifndef PYPIM_SIM_CHECKPOINT_HPP
#define PYPIM_SIM_CHECKPOINT_HPP

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/bulk_io.hpp"
#include "sim/serialize.hpp"
#include "sim/sink.hpp"

namespace pypim
{

class Simulator;
class SimulatorGroup;

/**
 * Append @p sim's owned crossbars (ascending id, non-zero blocks
 * only) to @p img and set its geometry, storage, masks and Stats from
 * @p sim. deviceCount and the host-layer blobs are left alone.
 */
void captureSlice(const Simulator &sim, CheckpointImage &img);

/**
 * Rewrite @p sim's architectural state and owned crossbars from
 * @p img, skipping records of crossbars it does not own. Throws
 * pypim::Error, before changing anything, if the geometry differs or
 * a record names a crossbar outside it.
 */
void restoreSlice(Simulator &sim, const CheckpointImage &img);

/**
 * Capture the group's architectural state (crossbars, mask, Stats)
 * into a canonical global-coordinate image. The opaque host-layer
 * blobs (allocator, driver cache) stay empty — Device::checkpoint
 * fills them.
 */
CheckpointImage buildGroupImage(const SimulatorGroup &group);

/**
 * Rewrite the group's architectural state from @p img (which must
 * match the group's geometry; device count and storage mode of the
 * source are free). Clears socket workers' sticky errors — restoring
 * IS the recovery from whatever made them sticky.
 */
void restoreGroupImage(SimulatorGroup &group,
                       const CheckpointImage &img);

/**
 * Journaling retry-with-restore sink wrapping a SimulatorGroup (see
 * file header). Active only when ec.verifyState is set; otherwise a
 * transparent forwarder.
 */
class RecoverySink : public OperationSink
{
  public:
    /** Recovery attempts per forwarded call before the failure goes
     *  terminal. */
    static constexpr uint32_t kRetryCap = 3;

    RecoverySink(SimulatorGroup &group, const EngineConfig &ec);

    bool enabled() const { return enabled_; }

    /**
     * Adopt the CURRENT group state as the rollback baseline (called
     * after Device::checkpoint and Device::restore): empties the
     * journal and clears any terminal error — a restored device is a
     * healthy device.
     */
    void rebaseline();

    /** Host-side fault counters: faultsDetected / recoveries /
     *  checkpointBytes (injected counts live with the injectors —
     *  SimulatorGroup::faultsInjected). */
    Stats &recoveryStats() { return stats_; }
    const Stats &recoveryStats() const { return stats_; }

    /** Journaled state-affecting calls since the last baseline. */
    uint64_t journaledCalls() const { return journal_.size(); }

    // --- OperationSink -----------------------------------------------
    void performBatch(const Word *ops, size_t n) override;
    void submitBatch(const Word *ops, size_t n) override;
    void flush() override;
    uint32_t performRead(Word op) override;
    std::shared_ptr<const BatchTrace>
    prepareTrace(const Word *ops, size_t n,
                 const EntryMasks *entry = nullptr) override;
    void submitTrace(std::shared_ptr<const BatchTrace> trace) override;
    bool readBulk(const BulkIoSpec &spec, uint32_t *out,
                  BulkIoTelemetry &tel) override;
    bool writeBulk(const BulkIoSpec &spec, const uint32_t *values,
                   BulkIoTelemetry &tel) override;

  private:
    /** One journaled call, replayed verbatim during recovery. Reads
     *  are journaled too: they carry architectural stats/mask effects
     *  that the restored baseline no longer contains. */
    struct Call
    {
        enum class Kind : uint8_t
        {
            Batch,     //!< raw micro-op stream
            Trace,     //!< shared pre-built trace handle
            Read,      //!< single Read op (response discarded)
            BulkRead,  //!< bulk gather (into scratch)
            BulkWrite  //!< bulk scatter
        };
        Kind kind = Kind::Batch;
        std::vector<Word> ops;
        std::shared_ptr<const BatchTrace> trace;
        Word readOp = 0;
        BulkIoSpec spec;
        std::vector<uint32_t> values;
    };

    /** Run @p fn under the bounded retry-with-restore policy. */
    template <typename Fn> auto runRecovered(Fn &&fn);
    /** Restore baseline + re-replay the journal; runRecovered holds
     *  the injector's one-shot classes suppressed around it and the
     *  retried call. Throws if the re-replay itself faults. */
    void recover();
    /** Apply one journaled call directly to the group. */
    void applyCall(const Call &c);
    void setSuppressed(bool on);

    SimulatorGroup &group_;
    bool enabled_ = false;
    CheckpointImage baseline_;
    std::vector<Call> journal_;
    bool needRecover_ = false;
    std::exception_ptr terminal_;  //!< sticky: retry cap exhausted
    Stats stats_;
};

} // namespace pypim

#endif // PYPIM_SIM_CHECKPOINT_HPP
