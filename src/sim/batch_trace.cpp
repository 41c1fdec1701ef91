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

namespace
{

/** The one decode loop of scanBatchTrace and buildBatchTrace: the
 *  build (@p build) also emits the segments. */
void
decodeBatch(const Word *ops, size_t n, const Geometry &geo,
            const HTree &htree, ExpansionTable &table, MaskState &mask,
            BatchTrace &batch, bool build)
{
    panicIf(!(table.geometry() == geo),
            "batch trace: expansion table was built for another "
            "geometry");
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
                // Sources and destinations both belong to the hull.
                batch.hull.add(mask.xb.start, mask.xb.stop);
                batch.hull.add(
                    static_cast<uint32_t>(mask.xb.start + dist),
                    static_cast<uint32_t>(mask.xb.stop + dist));
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
        if (!build) {
            decodeSegment(ops + i, j - i, geo, table, mask, batch.stats,
                          batch.hull, nullptr);
            i = j;
            continue;
        }
        SegmentTrace &trace = batch.segments.emplace_back();
        decodeSegment(ops + i, j - i, geo, table, mask, batch.stats,
                      batch.hull, &trace);
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

} // namespace

void
scanBatchTrace(const Word *ops, size_t n, const Geometry &geo,
               const HTree &htree, ExpansionTable &table,
               MaskState &mask, BatchTrace &batch)
{
    decodeBatch(ops, n, geo, htree, table, mask, batch, false);
}

void
buildBatchTrace(const Word *ops, size_t n, const Geometry &geo,
                const HTree &htree, ExpansionTable &table,
                MaskState &mask, BatchTrace &batch)
{
    decodeBatch(ops, n, geo, htree, table, mask, batch, true);
}

} // namespace pypim
