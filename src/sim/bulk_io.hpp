/**
 * @file
 * Bulk host I/O: the block-transfer seam between the driver and the
 * simulator stack.
 *
 * The PIM architecture keeps the standard memory read/write interface
 * as the host's window into the arrays (paper §III-C). The scalar
 * path models it one element at a time: every element costs a drain
 * point (performRead) plus 32 single-bit column probes. A bulk
 * transfer moves the same values with ONE drain point per transfer
 * and one tile transpose per 64 rows (Crossbar::gatherRows /
 * scatterRows: 64 rows of 32-bit host words <-> 32 bit-plane words,
 * on the AVX-512BW body when the host runs the x86-64-v4 build and
 * on a portable pair of 32x32 transposes otherwise, picked through
 * Crossbar::replayBuilds), while recording architectural
 * Stats identical to the element-wise instruction loop — the cost
 * model is unchanged, only the host-side simulation of it is faster.
 *
 * Split of responsibilities:
 *  - the DRIVER plans the transfer (this header's planBulkRead /
 *    planBulkWrite): it owns the GateBuilder's cached mask state, so
 *    only it can compute which mask micro-ops the element-wise oracle
 *    would have emitted. The plan is a BulkIoSpec: addressing plus
 *    the architectural stats delta and final mask state.
 *  - the SINK applies it (OperationSink::readBulk / writeBulk): the
 *    Simulator verifies its checksums once, adds the delta, installs
 *    the final masks (exactly the submitTrace pattern) and hands the
 *    gather/scatter to its ExecutionEngine, which clips to its owned
 *    crossbar slice. A SimulatorGroup broadcasts the spec to every
 *    sub-device — stats and mask state stay replicated bit-identically
 *    while each sub-device fills only its owned warps of the shared
 *    host buffer.
 *
 * Stats-identity contract (asserted by tests/test_bulk_io.cpp):
 *  - READS replicate the per-element GateBuilder::readWord loop
 *    exactly: per element, 2 CrossbarMask ops when the element's warp
 *    mask differs from the entry mask (narrow + restore), 2 RowMask
 *    ops likewise, and 1 Read; the entry masks are restored at the
 *    end. Mask comparisons are exact Range equality — the
 *    GateBuilder's dedup rule.
 *  - WRITES replicate the canonical coalesced stream that the
 *    bulk-I/O-off fallback actually emits: maximal runs of
 *    consecutive same-warp equal-value elements become one
 *    setMasks+Write (runs of length 1 — the general case of distinct
 *    values — degenerate to exactly the historical per-element
 *    WriteInstr stream, masks evolving with GateBuilder dedup).
 *    Equal-value runs (zeros/full uploads) deliberately cost one
 *    masked broadcast Write instead of k writes — the architecture's
 *    native strength (paper Fig. 6), and precisely what the
 *    constant-fill factories already emit.
 */
#ifndef PYPIM_SIM_BULK_IO_HPP
#define PYPIM_SIM_BULK_IO_HPP

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "uarch/range.hpp"

namespace pypim
{

/**
 * One planned bulk transfer. Addressing is in storage coordinates:
 * element i lives at storage row rowStart + i*rowStep of the
 * allocation starting at global crossbar warpStart — warp
 * warpStart + row/geo.rows, in-crossbar row row%geo.rows (the tensor
 * layout, pim/tensor.hpp).
 */
struct BulkIoSpec
{
    uint32_t slot = 0;       //!< register slot holding the values
    uint32_t warpStart = 0;  //!< first global crossbar of the allocation
    uint64_t rowStart = 0;   //!< storage row of element 0
    uint64_t rowStep = 1;    //!< storage rows between elements (>= 1)
    uint64_t count = 0;      //!< elements to transfer (> 0)

    // Architectural effect, computed by the planner and applied
    // verbatim by every (sub-)device sink — the replication invariant
    // of the multi-device group holds by construction.
    Stats stats;     //!< delta the transfer adds to the counters
    Range finalXb;   //!< crossbar mask state after the transfer
    Range finalRow;  //!< row mask state after the transfer
};

/** Host-side observability of one bulk transfer (driver Stats). */
struct BulkIoTelemetry
{
    /** 64-bit words through the tile transposes: 64 per transposed
     *  64-row window (an all-zero window is skipped). */
    uint64_t wordsTransposed = 0;
    uint64_t drains = 0;  //!< drain points taken
};

/** One coalesced write run: consecutive same-warp equal-value
 *  elements, lowered to one setMasks + Write. */
struct BulkWriteRun
{
    uint32_t warp = 0;         //!< global crossbar
    Range rows;                //!< in-crossbar row mask of the run
    uint32_t value = 0;        //!< word written to every masked row
    uint64_t firstElement = 0; //!< index of the run's first element
    uint64_t count = 0;        //!< elements in the run
};

/**
 * Walk @p spec's elements one crossbar at a time, in element order:
 * fn(first, warp, r0, k) for the k elements [first, first + k) whose
 * storage rows r0, r0 + rowStep, ... lie in global crossbar @p warp.
 * The one chunking rule of the planners, the bulk-I/O-off emission
 * and the engine's gather/scatter, so none of them can chunk a
 * transfer differently.
 */
template <typename Fn>
void
forEachBulkChunk(const Geometry &geo, const BulkIoSpec &spec, Fn &&fn)
{
    const uint32_t rows = geo.rows;
    uint64_t i = 0;
    while (i < spec.count) {
        const uint64_t s = spec.rowStart + i * spec.rowStep;
        const uint32_t warp =
            spec.warpStart + static_cast<uint32_t>(s / rows);
        const uint32_t r0 = static_cast<uint32_t>(s % rows);
        // Elements whose storage row stays inside this crossbar.
        const uint64_t k = std::min<uint64_t>(
            spec.count - i,
            (rows - r0 + spec.rowStep - 1) / spec.rowStep);
        fn(i, warp, r0, k);
        i += k;
    }
}

/**
 * Canonical row mask of a write run of @p len elements from row
 * @p first: a 1-element run is Range::single — the exact Range the
 * per-element oracle emits, so the GateBuilder dedup (exact equality)
 * behaves identically.
 */
inline Range
bulkRunRows(uint32_t first, uint64_t len, uint64_t rowStep)
{
    return len == 1 ? Range::single(first)
                    : Range(first,
                            first + static_cast<uint32_t>((len - 1) *
                                                          rowStep),
                            static_cast<uint32_t>(rowStep));
}

/**
 * Enumerate the canonical write runs of @p spec over @p values in
 * element order: maximal runs of consecutive elements sharing one
 * warp and one value. The bulk-I/O-off emission path walks them;
 * planBulkWrite counts the same runs without enumerating them, and
 * tests/test_bulk_io.cpp checks the two agree.
 */
template <typename Fn>
void
forEachBulkWriteRun(const Geometry &geo, const BulkIoSpec &spec,
                    const uint32_t *values, Fn &&fn)
{
    forEachBulkChunk(geo, spec, [&](uint64_t i, uint32_t warp,
                                    uint32_t r0, uint64_t k) {
        uint64_t e = 0;
        while (e < k) {
            const uint32_t v = values[i + e];
            uint64_t run = 1;
            while (e + run < k && values[i + e + run] == v)
                ++run;
            BulkWriteRun w;
            w.warp = warp;
            w.value = v;
            w.firstElement = i + e;
            w.count = run;
            w.rows = bulkRunRows(
                r0 + static_cast<uint32_t>(e * spec.rowStep), run,
                spec.rowStep);
            fn(w);
            e += run;
        }
    });
}

/**
 * Fill @p spec's stats delta and final mask state for a bulk READ
 * entered with builder mask state (@p entryXb, @p entryRow) — the
 * exact per-element narrow/flush/read/restore accounting of
 * GateBuilder::readWord, summed without executing anything. The entry
 * masks are also the final masks (the oracle restores them).
 */
void planBulkRead(const Geometry &geo, const Range &entryXb,
                  const Range &entryRow, BulkIoSpec &spec);

/**
 * Fill @p spec's stats delta and final mask state for a bulk WRITE of
 * @p values entered with (possibly unknown) builder mask state: the
 * GateBuilder dedup of the canonical run stream, counted per crossbar
 * chunk rather than per run. Returns the number of runs (the
 * macro-instruction count both knob paths record).
 */
uint64_t planBulkWrite(const Geometry &geo,
                       const std::optional<Range> &entryXb,
                       const std::optional<Range> &entryRow,
                       const uint32_t *values, BulkIoSpec &spec);

} // namespace pypim

#endif // PYPIM_SIM_BULK_IO_HPP
