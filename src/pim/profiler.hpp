/**
 * @file
 * Profiling window over a device's micro-op statistics — the
 * counterpart of the paper's `with pim.Profiler():` context (artifact
 * §F): captures the simulator counters at construction and reports the
 * delta, including the derived PIM execution time at the configured
 * clock. Every stats query covers every submitted batch, so windows
 * always cover whole batches. The driver's host-side counters (trace
 * cache, replay liveness) have a window of their own,
 * driverDelta(), apart from the architectural one.
 */
#ifndef PYPIM_PIM_PROFILER_HPP
#define PYPIM_PIM_PROFILER_HPP

#include "common/stats.hpp"
#include "pim/device.hpp"

namespace pypim
{

/** Captures device statistics over a scope. */
class Profiler
{
  public:
    explicit Profiler(Device &dev);

    /** Restart the window. */
    void reset();

    /** Counters accumulated since construction/reset. */
    Stats delta() const;
    /** Driver counters (Device::driver().stats()) accumulated since
     *  construction/reset: trace cache, replay liveness. */
    Stats driverDelta() const;

    /** PIM cycles consumed in the window. */
    uint64_t cycles() const;
    /** Micro-operations issued in the window. */
    uint64_t microOps() const;
    /** PIM wall-clock time of the window at the device clock. */
    double pimSeconds() const;

  private:
    Device *dev_;
    Stats start_;
    Stats driverStart_;
};

} // namespace pypim

#endif // PYPIM_PIM_PROFILER_HPP
