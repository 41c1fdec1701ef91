#include "driver/gatebuilder.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pypim
{

GateBuilder::GateBuilder(OperationSink &sink, const Geometry &geo)
    : sink_(&sink),
      geo_(&geo),
      pool_(geo)
{
    buf_.reserve(flushThreshold);
}

void
GateBuilder::setWarpMask(const Range &warps)
{
    if (warpMask_ && *warpMask_ == warps)
        return;
    warpMask_ = warps;
    emit(enc::crossbarMask(warps));
}

void
GateBuilder::setRowMask(const Range &rows)
{
    if (rowMask_ && *rowMask_ == rows)
        return;
    rowMask_ = rows;
    emit(enc::rowMask(rows));
}

void
GateBuilder::setMasks(const Range &warps, const Range &rows)
{
    setWarpMask(warps);
    setRowMask(rows);
}

void
GateBuilder::flush()
{
    if (buf_.empty())
        return;
    // Submit rather than perform: a socket group streams the batch
    // without a round trip; the buffer is only read during the call,
    // so reusing it immediately is safe.
    sink_->submitBatch(buf_.data(), buf_.size());
    buf_.clear();
}

OperationSink *
GateBuilder::swapSink(OperationSink *s)
{
    flush();
    OperationSink *old = sink_;
    sink_ = s;
    return old;
}

void
GateBuilder::writeWord(uint32_t slot, uint32_t value)
{
    emit(enc::write(slot, value));
}

uint32_t
GateBuilder::readWord(uint32_t warp, uint32_t row, uint32_t slot)
{
    const Range savedWarps = warpMask();
    const Range savedRows = rowMask();
    setMasks(Range::single(warp), Range::single(row));
    flush();
    const uint32_t value = sink_->performRead(enc::read(slot));
    setMasks(savedWarps, savedRows);
    return value;
}

// --- single stateful gates ---------------------------------------------

void
GateBuilder::initCell(uint32_t c, bool v)
{
    emit(enc::logicH(v ? Gate::Init1 : Gate::Init0, 0, 0, c,
                     partOf(c), 0));
}

void
GateBuilder::notInto(uint32_t a, uint32_t out, bool init)
{
    if (init)
        initCell(out, true);
    emit(enc::logicH(Gate::Not, a, a, out, partOf(out), 0));
}

void
GateBuilder::norInto(uint32_t a, uint32_t b, uint32_t out, bool init)
{
    const uint32_t pa = partOf(a);
    const uint32_t pb = partOf(b);
    const uint32_t po = partOf(out);
    const uint32_t lo = std::min(pa, pb);
    const uint32_t hi = std::max(pa, pb);
    if (po > lo && po < hi) {
        // The caller pinned the output strictly between the inputs,
        // which the half-gate span restriction cannot express: route
        // through a legally-placed cell and copy (NOT twice).
        const uint32_t tmp = nor(a, b);
        const uint32_t t2 = not_(tmp);
        notInto(t2, out, init);
        pool_.freeBit(tmp);
        pool_.freeBit(t2);
        return;
    }
    if (init)
        initCell(out, true);
    // inA must be the extreme input so that the deduced section
    // [min(pA, pOut), max(pA, pOut)] contains the inner input.
    uint32_t inA = a, inB = b;
    if (po >= hi) {
        if (pb < pa)
            std::swap(inA, inB);
    } else {  // po <= lo
        if (pb > pa)
            std::swap(inA, inB);
    }
    emit(enc::logicH(Gate::Nor, inA, inB, out, po, 0));
}

uint32_t
GateBuilder::nor(uint32_t a, uint32_t b)
{
    const uint32_t pa = partOf(a);
    const uint32_t pb = partOf(b);
    const uint32_t out =
        pool_.allocBitOutside(std::min(pa, pb), std::max(pa, pb));
    norInto(a, b, out);
    return out;
}

uint32_t
GateBuilder::not_(uint32_t a)
{
    const uint32_t p = partOf(a);
    const uint32_t out = pool_.allocBitOutside(p, p);
    notInto(a, out);
    return out;
}

uint32_t
GateBuilder::or_(uint32_t a, uint32_t b)
{
    const uint32_t t = nor(a, b);
    const uint32_t r = not_(t);
    pool_.freeBit(t);
    return r;
}

uint32_t
GateBuilder::and_(uint32_t a, uint32_t b)
{
    const uint32_t na = not_(a);
    const uint32_t nb = not_(b);
    const uint32_t r = nor(na, nb);
    pool_.freeBit(na);
    pool_.freeBit(nb);
    return r;
}

uint32_t
GateBuilder::xnor_(uint32_t a, uint32_t b)
{
    const uint32_t x1 = nor(a, b);
    const uint32_t x2 = nor(a, x1);
    const uint32_t x3 = nor(b, x1);
    const uint32_t r = nor(x2, x3);
    pool_.freeBit(x1);
    pool_.freeBit(x2);
    pool_.freeBit(x3);
    return r;
}

uint32_t
GateBuilder::xor_(uint32_t a, uint32_t b)
{
    const uint32_t t = xnor_(a, b);
    const uint32_t r = not_(t);
    pool_.freeBit(t);
    return r;
}

uint32_t
GateBuilder::mux(uint32_t s, uint32_t a, uint32_t b)
{
    const uint32_t ns = not_(s);
    const uint32_t r = muxN(s, ns, a, b);
    pool_.freeBit(ns);
    return r;
}

uint32_t
GateBuilder::muxN(uint32_t s, uint32_t ns, uint32_t a, uint32_t b)
{
    const uint32_t t1 = nor(a, ns);
    const uint32_t t2 = nor(b, s);
    const uint32_t r = nor(t1, t2);
    pool_.freeBit(t1);
    pool_.freeBit(t2);
    return r;
}

void
GateBuilder::fullAdder(uint32_t a, uint32_t b, uint32_t c,
                       uint32_t sumOut, uint32_t coutOut)
{
    const uint32_t x1 = nor(a, b);
    const uint32_t x2 = nor(a, x1);
    const uint32_t x3 = nor(b, x1);
    const uint32_t x4 = nor(x2, x3);  // a XNOR b
    pool_.freeBit(x2);
    pool_.freeBit(x3);
    const uint32_t y1 = nor(x4, c);
    const uint32_t y2 = nor(x4, y1);
    const uint32_t y3 = nor(c, y1);
    norInto(y2, y3, sumOut);          // a ^ b ^ c
    norInto(x1, y1, coutOut);         // majority(a, b, c)
    pool_.freeBit(x1);
    pool_.freeBit(x4);
    pool_.freeBit(y1);
    pool_.freeBit(y2);
    pool_.freeBit(y3);
}

void
GateBuilder::copyCell(uint32_t src, uint32_t dst)
{
    const uint32_t t = not_(src);
    notInto(t, dst);
    pool_.freeBit(t);
}

// --- lane operations ----------------------------------------------------

void
GateBuilder::initLane(uint32_t slot, bool v)
{
    runInit(slot, 0, geo_->partitions - 1, v);
}

void
GateBuilder::runInit(uint32_t slot, uint32_t p0, uint32_t p1, bool v)
{
    if (!partitionsEnabled_) {
        for (uint32_t p = p0; p <= p1; ++p)
            initCell(cell(slot, p), v);
        return;
    }
    emit(enc::logicH(v ? Gate::Init1 : Gate::Init0, 0, 0,
                     cell(slot, p0), p1, p0 == p1 ? 0 : 1));
}

void
GateBuilder::runNot(uint32_t srcSlot, uint32_t dstSlot,
                    uint32_t p0, uint32_t p1, bool init)
{
    if (init)
        runInit(dstSlot, p0, p1, true);
    if (!partitionsEnabled_) {
        for (uint32_t p = p0; p <= p1; ++p)
            notInto(cell(srcSlot, p), cell(dstSlot, p), false);
        return;
    }
    emit(enc::logicH(Gate::Not, cell(srcSlot, p0), cell(srcSlot, p0),
                     cell(dstSlot, p0), p1, p0 == p1 ? 0 : 1));
}

void
GateBuilder::runNor(uint32_t aSlot, uint32_t bSlot, uint32_t dstSlot,
                    uint32_t p0, uint32_t p1, bool init)
{
    if (init)
        runInit(dstSlot, p0, p1, true);
    if (!partitionsEnabled_) {
        for (uint32_t p = p0; p <= p1; ++p)
            norInto(cell(aSlot, p), cell(bSlot, p), cell(dstSlot, p),
                    false);
        return;
    }
    emit(enc::logicH(Gate::Nor, cell(aSlot, p0), cell(bSlot, p0),
                     cell(dstSlot, p0), p1, p0 == p1 ? 0 : 1));
}

void
GateBuilder::laneNot(uint32_t srcSlot, uint32_t dstSlot, bool init)
{
    runNot(srcSlot, dstSlot, 0, geo_->partitions - 1, init);
}

void
GateBuilder::laneNor(uint32_t aSlot, uint32_t bSlot, uint32_t dstSlot,
                     bool init)
{
    runNor(aSlot, bSlot, dstSlot, 0, geo_->partitions - 1, init);
}

void
GateBuilder::laneCopy(uint32_t srcSlot, uint32_t dstSlot)
{
    const uint32_t tmp = pool_.allocLane();
    laneNot(srcSlot, tmp);
    laneNot(tmp, dstSlot);
    pool_.freeLane(tmp);
}

void
GateBuilder::broadcastToLane(uint32_t srcCell, uint32_t dstSlot)
{
    // tmp[p] <- NOT(src) for every partition p (N single gates), then
    // dst <- lane NOT of tmp; total ~N+3 micro-ops.
    const uint32_t tmp = pool_.allocLane();
    initLane(tmp, true);
    for (uint32_t p = 0; p < geo_->partitions; ++p)
        notInto(srcCell, cell(tmp, p), false);
    laneNot(tmp, dstSlot);
    pool_.freeLane(tmp);
}

void
GateBuilder::periodic(Gate g, uint32_t inA, uint32_t inB, uint32_t out,
                      uint32_t pEnd, uint32_t pStep)
{
    if (!partitionsEnabled_ && pStep != 0) {
        // Partition-free baseline: issue every repeated gate as its
        // own single-gate micro-op.
        const uint32_t pw = geo_->partitionWidth();
        const uint32_t pOut = out / pw;
        const bool isInit = g == Gate::Init0 || g == Gate::Init1;
        for (uint32_t p = pOut; p <= pEnd; p += pStep) {
            const uint32_t d = (p - pOut) * pw;
            emit(enc::logicH(g, isInit ? 0 : inA + d,
                             isInit ? 0 : inB + d, out + d, p, 0));
        }
        return;
    }
    emit(enc::logicH(g, inA, inB, out, pEnd, pStep));
}

} // namespace pypim
