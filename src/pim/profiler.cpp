#include "pim/profiler.hpp"

namespace pypim
{

Profiler::Profiler(Device &dev)
    : dev_(&dev),
      start_(dev.stats()),
      driverStart_(dev.driver().stats())
{
}

void
Profiler::reset()
{
    start_ = dev_->stats();
    driverStart_ = dev_->driver().stats();
}

Stats
Profiler::delta() const
{
    return dev_->stats() - start_;
}

Stats
Profiler::driverDelta() const
{
    return dev_->driver().stats() - driverStart_;
}

uint64_t
Profiler::cycles() const
{
    return delta().totalCycles();
}

uint64_t
Profiler::microOps() const
{
    return delta().totalOps();
}

double
Profiler::pimSeconds() const
{
    return static_cast<double>(cycles()) /
           static_cast<double>(dev_->geometry().clockHz);
}

} // namespace pypim
