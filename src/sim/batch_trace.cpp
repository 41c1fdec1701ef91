#include "sim/batch_trace.hpp"

#include "common/error.hpp"
#include "sim/engine.hpp"
#include "sim/htree.hpp"

namespace pypim
{

bool
leadsWithMasks(const Word *ops, size_t n)
{
    bool xb = false, row = false;
    for (size_t i = 0; i < n; ++i) {
        const OpType t = enc::peekType(ops[i]);
        if (t == OpType::CrossbarMask)
            xb = true;
        else if (t == OpType::RowMask)
            row = true;
        else
            return xb && row;
        if (xb && row)
            return true;
    }
    return xb && row;
}

void
buildBatchTrace(const Word *ops, size_t n, const Geometry &geo,
                const HTree &htree, MaskState &mask, BatchTrace &batch)
{
    batch.geoRows = geo.rows;
    batch.geoCols = geo.cols;
    batch.geoPartitions = geo.partitions;
    batch.geoCrossbars = geo.numCrossbars;
    size_t i = 0;
    while (i < n) {
        const OpType type = enc::peekType(ops[i]);
        if (isBarrierOp(type)) {
            const MicroOp op = MicroOp::decode(ops[i]);
            if (type == OpType::Read) {
                // Data-less read: the response is dropped and no state
                // changes, so validating and counting it here absorbs
                // the op entirely — nothing to queue.
                validateRead(op, mask.xb, mask.row, geo);
                batch.stats.record(OpClass::Read);
            } else {
                const int64_t dist = validateMove(op, mask.xb, geo);
                batch.stats.record(OpClass::Move,
                                   htree.moveCycles(mask.xb, dist));
                BatchTrace::Item item;
                item.kind = BatchTrace::Item::Kind::Move;
                item.op = op;
                item.xb = mask.xb;
                batch.items.push_back(item);
            }
            ++i;
            continue;
        }
        size_t j = i + 1;
        while (j < n && !isBarrierOp(enc::peekType(ops[j])))
            ++j;
        SegmentTrace &trace = batch.segments.emplace_back();
        buildSegmentTrace(ops + i, j - i, geo, mask, batch.stats,
                          trace);
        if (trace.empty()) {
            batch.segments.pop_back();  // mask-only segment
        } else {
            BatchTrace::Item item;
            item.kind = BatchTrace::Item::Kind::Segment;
            item.seg =
                static_cast<uint32_t>(batch.segments.size() - 1);
            batch.items.push_back(item);
        }
        i = j;
    }
    batch.finalXb = mask.xb;
    batch.finalRow = mask.row;
}

} // namespace pypim
