#include "pim/device.hpp"

#include "sim/serialize.hpp"

namespace pypim
{

namespace
{

/** One builder mask of the checkpoint's driver-mask section: a known
 *  flag, then the range when known. */
void
writeKnownMask(ByteWriter &w, const std::optional<Range> &mask)
{
    w.u8(mask.has_value());
    if (mask)
        writeRange(w, *mask);
}

std::optional<Range>
readKnownMask(ByteReader &r, uint32_t limit, const char *what)
{
    if (r.u8() == 0)
        return std::nullopt;
    const Range mask = readRange(r);
    mask.validate(limit, what);
    return mask;
}

} // namespace

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
    // The builder's known masks decide which mask ops it emits next;
    // the restored builder must make the same decisions.
    ByteWriter m;
    writeKnownMask(m, drv_.builder().knownWarpMask());
    writeKnownMask(m, drv_.builder().knownRowMask());
    img.driverMasks = m.take();
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
    // The chip's mask state changed under the builder: adopt the
    // source builder's known masks (each unknown if it was), so the
    // restored driver emits exactly the mask ops the source would.
    if (img.driverMasks.empty()) {
        drv_.builder().resetMaskState();
    } else {
        ByteReader r(img.driverMasks.data(), img.driverMasks.size());
        const std::optional<Range> warps =
            readKnownMask(r, geo_.numCrossbars, "checkpoint warp mask");
        const std::optional<Range> rows =
            readKnownMask(r, geo_.rows, "checkpoint row mask");
        r.expectEnd("driver masks");
        drv_.builder().assumeMasks(warps, rows);
    }
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
