#include "sim/engine.hpp"

#include <string>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "sim/batch_trace.hpp"
#include "sim/bulk_io.hpp"
#include "sim/replay_program.hpp"
#include "uarch/partition.hpp"

namespace pypim
{

ExecutionEngine::ExecutionEngine(const Geometry &geo,
                                 std::vector<Crossbar> &xbs,
                                 uint32_t xbBase, const HTree &htree,
                                 MaskState &mask, Stats &stats,
                                 uint32_t threads)
    : geo_(geo), xbs_(xbs), xbBase_(xbBase), htree_(htree),
      mask_(mask), stats_(stats),
      pool_(std::min(std::max(1u, threads),
                     std::max(1u, static_cast<uint32_t>(xbs.size())))),
      work_(pool_.size())
{
}

void
ExecutionEngine::execute(const Word *ops, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        serialPerform(MicroOp::decode(ops[i]));
}

void
ExecutionEngine::serialPerform(const MicroOp &op)
{
    switch (op.type) {
      case OpType::CrossbarMask:
        doCrossbarMask(op);
        break;
      case OpType::RowMask:
        doRowMask(op);
        break;
      case OpType::Read:
        // A read issued through the data-less path: execute it for its
        // cycle cost and drop the response.
        executeRead(op);
        return;
      case OpType::Write:
        doWrite(op);
        break;
      case OpType::LogicH:
        doLogicH(op);
        break;
      case OpType::LogicV:
        doLogicV(op);
        break;
      case OpType::Move:
        doMove(op);
        break;
    }
}

void
ExecutionEngine::doCrossbarMask(const MicroOp &op)
{
    op.range.validate(geo_.numCrossbars, "crossbar");
    mask_.xb = op.range;
    stats_.record(OpClass::CrossbarMask);
}

void
ExecutionEngine::doRowMask(const MicroOp &op)
{
    op.range.validate(geo_.rows, "row");
    mask_.setRow(op.range, geo_.rows);
    stats_.record(OpClass::RowMask);
}

void
validateRead(const MicroOp &op, const Range &xb, const Range &row,
             const Geometry &geo)
{
    panicIf(op.type != OpType::Read, "read: wrong op type");
    fatalIf(op.index >= geo.slots(), "read: slot index out of range");
    if (xb.count() != 1)
        fatal("read: crossbar mask must select exactly one crossbar "
              "(paper III-C), selects " + std::to_string(xb.count()));
    if (row.count() != 1)
        fatal("read: row mask must select exactly one row (paper III-C), "
              "selects " + std::to_string(row.count()));
}

int64_t
validateMove(const MicroOp &op, const Range &xb, const Geometry &geo)
{
    fatalIf(!isPow4(xb.step),
            "move: crossbar mask step must be a power of four "
            "(paper III-F)");
    fatalIf(op.srcIdx >= geo.slots() || op.dstIdx >= geo.slots(),
            "move: slot index out of range");
    fatalIf(op.srcRow >= geo.rows || op.dstRow >= geo.rows,
            "move: row out of range");
    const int64_t dist = static_cast<int64_t>(op.dstStart) -
                         static_cast<int64_t>(xb.start);
    // The destination set is the source Range shifted by dist, so the
    // endpoints bound every element.
    const int64_t lastDst = static_cast<int64_t>(xb.stop) + dist;
    fatalIf(lastDst < 0 || lastDst >= geo.numCrossbars,
            "move: destination crossbar out of range");
    return dist;
}

uint32_t
ExecutionEngine::executeRead(const MicroOp &op)
{
    validateRead(op, mask_.xb, mask_.row, geo_);
    stats_.record(OpClass::Read);
    // A sub-device engine validates and counts reads outside its
    // slice (keeping the architectural stats replicated across
    // sub-devices) but has no data for them; the device group routes
    // the response from the owning sub-device.
    if (!owns(mask_.xb.start))
        return 0;
    return xbAt(mask_.xb.start).read(op.index, mask_.row.start);
}

uint64_t
ExecutionEngine::executeReadBulk(const BulkIoSpec &spec, uint32_t *out)
{
    fatalIf(spec.slot >= geo_.slots(),
            "bulk read: slot index out of range");
    uint64_t transposed = 0;
    forEachBulkChunk(geo_, spec, [&](uint64_t i, uint32_t g, uint32_t r0,
                                     uint64_t k) {
        fatalIf(g >= geo_.numCrossbars,
                "bulk read: crossbar out of range");
        if (!owns(g))
            return;
        Crossbar &xb = xbAt(g);
        if (spec.rowStep == 1) {
            transposed += xb.gatherRows(
                spec.slot, r0, static_cast<uint32_t>(k), out + i);
        } else {
            for (uint64_t e = 0; e < k; ++e)
                out[i + e] = xb.read(
                    spec.slot, r0 + static_cast<uint32_t>(e * spec.rowStep));
        }
    });
    return transposed;
}

uint64_t
ExecutionEngine::applyWriteBulk(const BulkIoSpec &spec,
                                const uint32_t *values)
{
    fatalIf(spec.slot >= geo_.slots(),
            "bulk write: slot index out of range");
    uint64_t transposed = 0;
    forEachBulkChunk(geo_, spec, [&](uint64_t i, uint32_t g, uint32_t r0,
                                     uint64_t k) {
        fatalIf(g >= geo_.numCrossbars,
                "bulk write: crossbar out of range");
        if (!owns(g))
            return;
        Crossbar &xb = xbAt(g);
        if (spec.rowStep == 1) {
            transposed += xb.scatterRows(
                spec.slot, r0, static_cast<uint32_t>(k), values + i);
        } else {
            for (uint64_t e = 0; e < k; ++e)
                xb.writeRow(spec.slot, values[i + e],
                            r0 + static_cast<uint32_t>(e * spec.rowStep));
        }
    });
    return transposed;
}

void
ExecutionEngine::replayProgram(const ReplayProgram &prog)
{
    const uint32_t lo = std::max(prog.xbLo, sliceLo());
    const uint32_t hi = std::min(prog.xbHi, sliceHi());
    const uint32_t workers = pool_.size();
    if (workers == 1) {
        for (uint32_t xb = lo; xb < hi; ++xb)
            xbAt(xb).replayProgram(prog, xb, nullptr);
        return;
    }
    if (lo >= hi)
        return;  // hull entirely outside this sub-device's slice
    // Work-stealing schedule over the segment's crossbar hull: chunks
    // are claimed from a shared atomic counter instead of fixed
    // contiguous per-worker blocks, so a strided crossbar mask (which
    // leaves some blocks mostly masked-out) cannot load-imbalance the
    // workers. The chunk is kept a few crossbars wide: small enough
    // that expensive crossbars spread over the pool, large enough to
    // amortise the atomic claim and preserve block locality. A hull
    // narrower than the pool wakes only as many tasks as it has
    // crossbars; a one-crossbar hull runs inline.
    const uint32_t chunk = std::max(1u, (hi - lo) / (workers * 8));
    next_.store(lo, std::memory_order_relaxed);
    pool_.parallelFor(std::min(workers, hi - lo), [&](uint32_t w) {
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

void
ExecutionEngine::replayBatch(const BatchTrace &batch)
{
    for (const BatchTrace::Item &item : batch.items) {
        if (item.kind == BatchTrace::Item::Kind::Segment) {
            panicIf(item.seg >= batch.programs.size(),
                    "replayBatch: segment was never compiled");
            replayProgram(batch.programs[item.seg]);
        } else {
            applyMove(item.op, item.xb);
        }
    }
}

void
ExecutionEngine::doWrite(const MicroOp &op)
{
    fatalIf(op.index >= geo_.slots(), "write: slot index out of range");
    forEachOwned(mask_.xb, [&](uint32_t xb) {
        xbAt(xb).write(op.index, op.value, mask_.rowWords);
    });
    stats_.record(OpClass::Write);
}

void
ExecutionEngine::doLogicH(const MicroOp &op)
{
    const HalfGates hg = expandLogicH(op, geo_);
    forEachOwned(mask_.xb, [&](uint32_t xb) {
        xbAt(xb).logicH(hg, mask_.rowWords);
    });
    stats_.record(OpClass::LogicH);
    if (op.gate == Gate::Nor || op.gate == Gate::Not)
        ++stats_.logicGates;
    else
        ++stats_.logicInits;
}

void
ExecutionEngine::doLogicV(const MicroOp &op)
{
    fatalIf(op.index >= geo_.slots(), "logicV: slot index out of range");
    fatalIf(op.rowIn >= geo_.rows || op.rowOut >= geo_.rows,
            "logicV: row out of range");
    forEachOwned(mask_.xb, [&](uint32_t xb) {
        xbAt(xb).logicV(op.gate, op.rowIn, op.rowOut, op.index);
    });
    stats_.record(OpClass::LogicV);
    if (op.gate == Gate::Not)
        ++stats_.logicGates;
    else
        ++stats_.logicInits;
}

void
ExecutionEngine::doMove(const MicroOp &op)
{
    const int64_t dist = validateMove(op, mask_.xb, geo_);
    applyMove(op, mask_.xb);
    stats_.record(OpClass::Move, htree_.moveCycles(mask_.xb, dist));
}

void
ExecutionEngine::applyMove(const MicroOp &op, const Range &xb)
{
    const int64_t dist = static_cast<int64_t>(op.dstStart) -
                         static_cast<int64_t>(xb.start);
    // Read-all-then-write-all semantics: overlapping source and
    // destination sets (shift chains) behave as a parallel transfer.
    // A sub-device engine applies only the transfers with BOTH
    // endpoints in its slice; boundary-crossing transfers are the
    // device group's explicit exchange step (sim/device_group.hpp),
    // which stages its reads before this runs and lands its writes
    // after. The staging buffers are reused members: clear() keeps
    // capacity, so steady-state moves never allocate.
    moveValues_.clear();
    moveDsts_.clear();
    forEachOwned(xb, [&](uint32_t src) {
        const int64_t dst = static_cast<int64_t>(src) + dist;
        if (dst < sliceLo() || dst >= sliceHi())
            return;
        moveValues_.push_back(xbAt(src).read(op.srcIdx, op.srcRow));
        moveDsts_.push_back(static_cast<uint32_t>(dst));
    });
    for (size_t i = 0; i < moveDsts_.size(); ++i)
        xbAt(moveDsts_[i]).writeRow(op.dstIdx, moveValues_[i],
                                    op.dstRow);
}

} // namespace pypim
