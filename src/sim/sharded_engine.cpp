#include "sim/sharded_engine.hpp"

#include <algorithm>

namespace pypim
{

namespace
{

/** More workers than OWNED crossbars can never help: a sub-device
 *  engine shards only its slice. */
uint32_t
clampWorkers(uint32_t threads, size_t owned)
{
    return std::min(std::max(1u, threads),
                    std::max(1u, static_cast<uint32_t>(owned)));
}

/** Stagger sibling sub-device pools onto disjoint cores: sub-device
 *  d (slice index xbBase / sliceSize) starts after the d * width
 *  cores of the pools before it. 0 for a monolithic engine. */
uint32_t
pinBaseOf(uint32_t xbBase, size_t owned, uint32_t width)
{
    return owned == 0
               ? 0
               : xbBase / static_cast<uint32_t>(owned) * width;
}

} // namespace

ShardedEngine::ShardedEngine(const Geometry &geo,
                             std::vector<Crossbar> &xbs,
                             uint32_t xbBase, const HTree &htree,
                             MaskState &mask, Stats &stats,
                             uint32_t threads, bool pinWorkers)
    : ExecutionEngine(geo, xbs, xbBase, htree, mask, stats),
      pool_(clampWorkers(threads, xbs.size()), pinWorkers,
            pinBaseOf(xbBase, xbs.size(),
                      clampWorkers(threads, xbs.size()))),
      work_(pool_.size())
{
}

void
ShardedEngine::execute(const Word *ops, size_t n)
{
    forEachSegment(ops, n, [&](const Word *seg, size_t len) {
        buildSegmentTrace(seg, len, geo_, mask_, stats_, trace_);
        compileSegmentProgram(trace_, geo_, prog_);
        replayProgram(prog_);
    });
}

void
ShardedEngine::replayProgram(const ReplayProgram &prog)
{
    if (prog.empty())
        return;  // mask-only segment: fully absorbed by the pre-pass
    const uint32_t lo = std::max(prog.xbLo, sliceLo());
    const uint32_t hi = std::min(prog.xbHi, sliceHi());
    if (lo >= hi)
        return;  // hull entirely outside this sub-device's slice
    const uint32_t workers = pool_.size();
    if (workers == 1 || hi - lo <= 1) {
        Stats local;
        for (uint32_t xb = lo; xb < hi; ++xb)
            xbAt(xb).replayProgram(prog, xb, &local);
        work_[0] += local;
        return;
    }
    // Work-stealing schedule over the segment's crossbar hull: chunks
    // are claimed from a shared atomic counter instead of fixed
    // contiguous per-worker blocks, so a strided crossbar mask (which
    // leaves some blocks mostly masked-out) cannot load-imbalance the
    // workers. The chunk is kept a few crossbars wide: small enough
    // that expensive crossbars spread over the pool, large enough to
    // amortise the atomic claim and preserve block locality.
    const uint32_t chunk = std::max(1u, (hi - lo) / (workers * 8));
    next_.store(lo, std::memory_order_relaxed);
    pool_.parallelFor(workers, [&](uint32_t w) {
        // Accumulate the applied-work diagnostics on the stack and
        // flush once per segment: work_ entries are adjacent in
        // memory, and per-application increments there would
        // ping-pong cache lines between workers.
        Stats local;
        for (;;) {
            const uint32_t start =
                next_.fetch_add(chunk, std::memory_order_relaxed);
            if (start >= hi)
                break;
            const uint32_t end = std::min(start + chunk, hi);
            for (uint32_t xb = start; xb < end; ++xb)
                xbAt(xb).replayProgram(prog, xb, &local);
        }
        work_[w] += local;
    });
}

} // namespace pypim
