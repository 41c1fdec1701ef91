#include "sim/bulk_io.hpp"

namespace pypim
{

void
planBulkRead(const Geometry &geo, const Range &entryXb,
             const Range &entryRow, BulkIoSpec &spec)
{
    // The oracle narrows to Range::single(r) — its masks only ever
    // match the entry mask when the entry mask is itself a
    // single-element step-1 Range (exact equality, the GateBuilder
    // dedup rule).
    const bool rowIsSingle =
        entryRow.start == entryRow.stop && entryRow.step == 1;

    uint64_t cm = 0, rm = 0;
    forEachBulkChunk(geo, spec, [&](uint64_t, uint32_t warp, uint32_t r0,
                                    uint64_t k) {
        // Narrow + restore, each element compared against the ENTRY
        // masks: readWord restores them after every element, so the
        // cached state the next element sees is always the entry
        // state.
        if (!(entryXb == Range::single(warp)))
            cm += 2 * k;
        uint64_t rowMiss = k;
        if (rowIsSingle && entryRow.start >= r0 &&
            (entryRow.start - r0) % spec.rowStep == 0) {
            // At most one element of this chunk lands exactly on the
            // entry row mask and skips the narrow/restore pair.
            const uint64_t e = (entryRow.start - r0) / spec.rowStep;
            if (e < k)
                rowMiss -= 1;
        }
        rm += 2 * rowMiss;
    });

    spec.stats.recordN(OpClass::CrossbarMask, cm);
    spec.stats.recordN(OpClass::RowMask, rm);
    spec.stats.recordN(OpClass::Read, spec.count);
    spec.finalXb = entryXb;
    spec.finalRow = entryRow;
}

uint64_t
planBulkWrite(const Geometry &geo, const std::optional<Range> &entryXb,
              const std::optional<Range> &entryRow,
              const uint32_t *values, BulkIoSpec &spec)
{
    std::optional<Range> xb = entryXb;
    std::optional<Range> row = entryRow;
    uint64_t runs = 0, cm = 0, rm = 0;
    forEachBulkChunk(geo, spec, [&](uint64_t i, uint32_t warp,
                                    uint32_t r0, uint64_t k) {
        const uint32_t *v = values + i;
        // Runs in the chunk: one plus its value changes (a loop the
        // compiler vectorises).
        uint64_t changes = 0;
        for (uint64_t e = 1; e < k; ++e)
            changes += v[e] != v[e - 1];
        runs += changes + 1;
        // Every run of the chunk has the same crossbar mask, so only
        // its first run can change it.
        const Range w = Range::single(warp);
        if (!xb || !(*xb == w)) {
            xb = w;
            ++cm;
        }
        // Runs of one chunk cover disjoint rows, so every run after
        // the first changes the row mask. The first run is compared
        // exactly: with rowStep == rows every chunk repeats one Range.
        uint64_t head = 1;
        while (head < k && v[head] == v[0])
            ++head;
        if (!row || !(*row == bulkRunRows(r0, head, spec.rowStep)))
            ++rm;
        rm += changes;
        uint64_t tail = 1;
        while (tail < k && v[k - 1 - tail] == v[k - 1])
            ++tail;
        row = bulkRunRows(
            r0 + static_cast<uint32_t>((k - tail) * spec.rowStep), tail,
            spec.rowStep);
    });
    spec.stats.recordN(OpClass::CrossbarMask, cm);
    spec.stats.recordN(OpClass::RowMask, rm);
    spec.stats.recordN(OpClass::Write, runs);
    // count > 0 is a precondition, so at least one run engaged both.
    spec.finalXb = *xb;
    spec.finalRow = *row;
    return runs;
}

} // namespace pypim
