#include "pim/device.hpp"

#include "sim/serialize.hpp"

namespace pypim
{

Device::Device(const Geometry &geo, Driver::Mode mode,
               const EngineConfig &ec)
    : geo_(geo),
      group_(geo_, ec),
      recovery_(group_, ec),
      drv_(recovery_, geo_, mode),
      mm_(geo_, group_.devices())
{
    drv_.setTraceCacheEnabled(ec.traceCache);
    drv_.setBulkIoEnabled(ec.bulkIo);
}

void
Device::flush()
{
    drv_.builder().flush();
    // Through the recovery seam, not straight to the group: the drain
    // is a detection point, and a corruption surfacing here must take
    // the retry-with-restore path like any other guarded call.
    recovery_.flush();
}

uint64_t
Device::checkpoint(const std::string &path)
{
    // Quiesce at the drain contract: pending driver batches land and
    // every sub-device takes a sync point (any held error rethrows
    // HERE, not into the checkpoint — a checkpoint of a faulted
    // device would be a checkpoint of corruption).
    flush();
    CheckpointImage img = buildGroupImage(group_);
    img.allocState = mm_.exportState();
    img.driverCache = drv_.exportStreamCache();
    ByteWriter w;
    writeStats(w, drv_.stats());
    img.driverStats = w.take();
    const uint64_t bytes = saveCheckpoint(img, path);
    recovery_.recoveryStats().checkpointBytes += bytes;
    // The journal restarts at this durable point: recovery never
    // replays further back than the newest checkpoint.
    recovery_.rebaseline();
    return bytes;
}

void
Device::restore(const std::string &path)
{
    const CheckpointImage img = loadCheckpoint(path);
    restoreGroupImage(group_, img);
    mm_.importState(img.allocState);
    drv_.importStreamCache(img.driverCache);
    if (img.driverStats.empty()) {
        drv_.stats().clear();
    } else {
        ByteReader r(img.driverStats.data(), img.driverStats.size());
        drv_.stats() = readStats(r);
    }
    // Pending batched micro-ops were translated against the timeline
    // this restore discards — drop them (a flush would submit them,
    // and could rethrow the very sticky error restore is clearing).
    drv_.builder().discardBatch();
    // The chip's mask state changed under the builder: force the next
    // mask op to re-emit instead of trusting a stale dedup cache.
    drv_.builder().resetMaskState();
    recovery_.rebaseline();
}

Stats
Device::faultStats() const
{
    Stats s = recovery_.recoveryStats();
    s.faultsInjected = group_.faultsInjected();
    // Shard-transport wire counters ride along (zero under inproc):
    // one query surfaces recovery, fault and transport observability.
    group_.foldWireStats(s);
    return s;
}

Device &
Device::defaultDevice()
{
    static const Geometry g = [] {
        Geometry x;  // Table III crossbar geometry
        x.numCrossbars = 16;
        return x;
    }();
    static Device dev(g);
    return dev;
}

} // namespace pypim
