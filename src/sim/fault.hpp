/**
 * @file
 * Seeded deterministic fault injection (PYPIM_FAULTS).
 *
 * Real PIM deployments are host runtimes feeding thousands of
 * accelerator arrays where bit errors and unit loss are operational
 * facts; this injector models them INSIDE the simulator stack, behind
 * the OperationSink seam, so every thread x storage x device
 * combination is injectable with no code path of its own:
 *
 *  - flip=P   : with probability P% after each replayed batch, toggle
 *               one stored bit of a random owned crossbar (transient
 *               upset; recoverable by restore + journal replay);
 *  - stuck=K  : pin K bits stuck at a fixed value, re-applied after
 *               every batch (persistent device damage: re-appears
 *               even after a successful recovery, so a workload that
 *               keeps writing the opposing value exhausts the retry
 *               budget and surfaces the sticky terminal error);
 *  - fail=N   : abort the N-th replayed batch with an InjectedFault
 *               (a sub-device dying mid-batch; one-shot, so the
 *               journaled re-replay succeeds);
 *  - poison=N : silently scribble a multi-bit pattern over the state
 *               after the N-th batch (a corrupted batch hand-off;
 *               one-shot, caught by the next checksum verify);
 *  - dev=K    : restrict injection to sub-device K (default: all);
 *  - seed=S   : base RNG seed; each sub-device derives its own stream
 *               from (S, deviceIndex), so runs are reproducible at
 *               any device count.
 *
 * Injection happens AFTER the simulator blesses its per-crossbar
 * checksums (sim/simulator.hpp), through the same setBit mutation API
 * replay uses but WITHOUT blessing — exactly how silent
 * hardware corruption differs from legitimate work, and exactly what
 * the PYPIM_VERIFY_STATE checksum verify detects on the next batch or
 * drain point.
 *
 * Error taxonomy: DeviceFault (a recoverable pypim::Error) is the
 * base the RecoverySink's retry-with-restore policy catches;
 * StateCorruption is a failed checksum verify, InjectedFault an
 * injector-triggered replay abort. Everything else (user Error,
 * InternalError) passes through recovery untouched.
 */
#ifndef PYPIM_SIM_FAULT_HPP
#define PYPIM_SIM_FAULT_HPP

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"

namespace pypim
{

class Crossbar;

/** Base of the recoverable fault family (retry-with-restore target). */
class DeviceFault : public Error
{
  public:
    explicit DeviceFault(const std::string &msg) : Error(msg) {}
};

/** A checksum verify found state no legitimate path produced. */
class StateCorruption : public DeviceFault
{
  public:
    explicit StateCorruption(const std::string &msg) : DeviceFault(msg)
    {
    }
};

/** The injector aborted a replay (simulated sub-device failure). */
class InjectedFault : public DeviceFault
{
  public:
    explicit InjectedFault(const std::string &msg) : DeviceFault(msg)
    {
    }
};

/** Parsed PYPIM_FAULTS specification (see file header). */
struct FaultSpec
{
    uint64_t seed = 1;
    uint32_t flipPct = 0;       //!< per-batch transient-flip chance [%]
    uint32_t stuckBits = 0;     //!< persistent stuck-at pins
    uint64_t failAtBatch = 0;   //!< 1-based batch to abort (0 = never)
    uint64_t poisonAtBatch = 0; //!< 1-based batch to poison (0 = never)
    int32_t device = -1;        //!< target sub-device (-1 = all)

    bool
    any() const
    {
        return flipPct || stuckBits || failAtBatch || poisonAtBatch;
    }

    /**
     * Parse a colon-separated "key=value" list, e.g.
     * "seed=7:flip=25:fail=3:dev=1". Unknown keys, malformed values
     * and out-of-range numbers throw pypim::Error — a typo must never
     * silently run an un-faulted soak.
     */
    static FaultSpec parse(const std::string &s);
};

/**
 * Per-sub-device deterministic injector. Owned by the SimulatorGroup,
 * driven by the Simulator's post-replay hook; all methods run on the
 * thread that calls into the Simulator, never concurrently with each
 * other.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultSpec &spec, uint32_t deviceIndex,
                  uint32_t sliceLo, uint32_t sliceCount,
                  const Geometry &geo);

    /** True iff this sub-device is targeted by the spec. */
    bool active() const { return active_; }

    /**
     * Count the batch and throw InjectedFault at the configured
     * fail point. Called before the batch's checksums are blessed;
     * one-shot, so the journaled re-replay of the same batch
     * succeeds.
     */
    void maybeFail();

    /**
     * Apply the corrupting fault classes (flip / poison / stuck) to
     * the owned crossbars — after blessing, without blessing, so the
     * next verify sees them. @p xbs is the owning simulator's slice.
     */
    void corrupt(std::vector<Crossbar> &xbs);

    /**
     * Suppress one-shot/random classes during recovery replay and the
     * retried call (the retry models a re-run that does not hit the
     * same transient).
     * Stuck pins stay applied either way: persistent damage does not
     * heal because the host retried.
     */
    void
    setSuppressed(bool on)
    {
        suppressed_ = on;
    }

    /** Faults injected so far (flips + poisons + fails + stuck-at
     *  applications that changed a bit). */
    uint64_t injected() const { return injected_; }

  private:
    struct StuckPin
    {
        uint32_t xb;   //!< slice-local crossbar index
        uint32_t row;
        uint32_t col;
        bool value;
    };

    FaultSpec spec_;
    bool active_ = false;
    uint32_t sliceCount_;
    const Geometry *geo_;
    std::mt19937_64 rng_;
    uint64_t batch_ = 0;
    bool failFired_ = false;
    bool poisonFired_ = false;
    /** Set by the recovery path (RecoverySink) around its re-replay. */
    bool suppressed_ = false;
    std::vector<StuckPin> stuck_;  //!< chosen lazily on first corrupt
    uint64_t injected_ = 0;
};

} // namespace pypim

#endif // PYPIM_SIM_FAULT_HPP
