/**
 * @file
 * A PIM device: the bundle of simulator (standing in for the physical
 * chip), host driver and dynamic memory manager that the tensor
 * library programs against (paper Fig. 2, runtime dependencies).
 *
 * Since the multi-device refactor the "chip" is a SimulatorGroup
 * (sim/device_group.hpp): EngineConfig::devices shards the crossbar
 * space across N independent sub-device Simulators at H-tree group
 * boundaries, with boundary-crossing Moves as the only inter-device
 * traffic. One sub-device (the default) is the classic monolithic
 * simulator; results, readback and architectural statistics are
 * bit-identical at any device count (tests/test_multi_device.cpp).
 */
#ifndef PYPIM_PIM_DEVICE_HPP
#define PYPIM_PIM_DEVICE_HPP

#include <memory>
#include <string>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "driver/driver.hpp"
#include "pim/alloc.hpp"
#include "sim/checkpoint.hpp"
#include "sim/device_group.hpp"

namespace pypim
{

/** One logical digital PIM chip (simulated) plus its host software. */
class Device
{
  public:
    /**
     * Create a device with its own simulator instance(s).
     * @param geo memory geometry (validated)
     * @param mode driver arithmetic mode (paper Fig. 4)
     * @param ec simulator execution backend; the default honours the
     *           PYPIM_* environment knobs (EngineConfig::fromEnv) and
     *           falls back to one serial sub-device with the driver
     *           trace cache enabled (ec.traceCache is forwarded to the
     *           Driver)
     */
    explicit Device(const Geometry &geo,
                    Driver::Mode mode = Driver::Mode::Parallel,
                    const EngineConfig &ec = EngineConfig::fromEnv());

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    /**
     * Process-wide default device (created on first use): 16 crossbars
     * of the Table III geometry — large enough for the examples, small
     * enough to simulate instantly.
     */
    static Device &defaultDevice();

    const Geometry &geometry() const { return geo_; }

    /** The sharded simulator fan-out the driver programs against. */
    SimulatorGroup &group() { return group_; }
    const SimulatorGroup &group() const { return group_; }

    /** Sub-devices sharding this logical device (1 = monolithic). */
    uint32_t deviceCount() const { return group_.devices(); }

    /**
     * Sub-device 0's simulator. With one sub-device (the default)
     * this is the whole chip, exactly as before the refactor. With
     * more, it owns only the first crossbar slice — but its mask
     * state and architectural statistics are still those of the whole
     * logical device (replicated by construction); use
     * group().crossbar(i) for state outside the first slice.
     */
    Simulator &simulator() { return group_.sub(0); }
    /** Simulator of sub-device @p d. */
    Simulator &simulator(uint32_t d) { return group_.sub(d); }

    Driver &driver() { return drv_; }
    MemoryManager &allocator() { return mm_; }

    /**
     * Push any micro-ops still batched in the driver to the simulator
     * and take a sync point on every sub-device (checksum verify;
     * socket workers report held errors). Reads and stats queries
     * synchronise implicitly; call this before inspecting simulator
     * state directly.
     */
    void flush();

    /**
     * Simulator-side micro-op statistics (covering every submitted
     * batch). Replicated across
     * sub-devices, so one view is the logical device's truth —
     * deliberately read-only: mutating one replica would break the
     * invariant. Reset with clearStats().
     */
    const Stats &stats() const { return group_.stats(); }

    /** Reset the architectural counters on every sub-device. */
    void clearStats() { group_.clearStats(); }

    // --- checkpoint / restore / fault tolerance ----------------------

    /**
     * Write a crash-consistent checkpoint of the whole device to
     * @p path: quiesce at the drain contract (flush), walk every
     * sub-device's owned crossbars (sim/checkpoint.hpp), and stream
     * the canonical image out (sim/serialize.hpp) together with the
     * allocator state and the driver's stream-cache signatures.
     * Also resets the recovery baseline — the journal restarts here.
     * Returns bytes written.
     */
    uint64_t checkpoint(const std::string &path);

    /**
     * Rebuild this device's full state from a checkpoint written by
     * ANY device of the same geometry — the sub-device count and
     * storage mode of the writer are free (the image is global-
     * coordinate and canonical). Clears socket workers' sticky errors and
     * any terminal recovery error: a restored device is a healthy
     * device. Crossbar state, mask state and architectural Stats are
     * bit-identical to the checkpointed device's.
     */
    void restore(const std::string &path);

    /**
     * Fault-tolerance observability: faultsInjected (from the
     * PYPIM_FAULTS injectors), faultsDetected / recoveries (from the
     * retry-with-restore policy) and checkpointBytes. Host-side
     * counters — never part of the architectural stats().
     */
    Stats faultStats() const;

    /** The retry-with-restore sink between driver and simulator
     *  group (active only under PYPIM_VERIFY_STATE). */
    RecoverySink &recovery() { return recovery_; }

  private:
    Geometry geo_;
    SimulatorGroup group_;
    /** Between drv_ and group_: journals state-affecting calls and
     *  retries-with-restore on detected faults (sim/checkpoint.hpp).
     *  Declaration order matters — drv_ holds a reference to it. */
    RecoverySink recovery_;
    Driver drv_;
    MemoryManager mm_;
};

} // namespace pypim

#endif // PYPIM_PIM_DEVICE_HPP
