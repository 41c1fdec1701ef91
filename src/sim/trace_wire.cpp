#include "sim/trace_wire.hpp"

#include <string>

#include "common/error.hpp"
#include "sim/batch_trace.hpp"
#include "sim/replay_program.hpp"
#include "sim/serialize.hpp"
#include "sim/sink.hpp"

namespace pypim
{

namespace
{

constexpr uint32_t kTraceMagic = 0x50575452;  // "PWTR"
/** 2: the image carries no compiled programs (workers compile).
 *  3: an entry flag and, when set, the entry crossbar and row masks.
 *  4: no fusion flag (a trace has one build, decode then compile). */
constexpr uint32_t kTraceVersion = 4;

/** Decode @p ops from @p entry (or, without one, from power-on: the
 *  stream then sets both masks itself): the one rebuild both ends of
 *  the wire run, so they cannot decode differently. */
std::shared_ptr<BatchTrace>
rebuild(const Word *ops, size_t n, const EntryMasks *entry,
        const Geometry &geo, const HTree &htree)
{
    auto batch = std::make_shared<BatchTrace>();
    MaskState local;
    local.reset(geo);
    if (entry) {
        local.xb = entry->xb;
        local.setRow(entry->row, geo.rows);
        batch->hasEntry = true;
        batch->entryXb = entry->xb;
        batch->entryRow = entry->row;
    }
    buildBatchTrace(ops, n, geo, htree, local, *batch);
    return batch;
}

} // namespace

uint64_t
traceSignature(const Word *ops, size_t n, const EntryMasks *entry)
{
    // FNV-1a, the stream-cache convention: cheap, deterministic and
    // stable across processes (no pointer or seed dependence).
    uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    };
    for (size_t i = 0; i < n; ++i)
        mix(ops[i]);
    mix(entry ? 1 : 0);
    if (entry)
        for (const Range &r : {entry->xb, entry->row}) {
            mix(r.start);
            mix(r.stop);
            mix(r.step);
        }
    return h;
}

std::shared_ptr<const BatchTrace>
buildWireTrace(const Word *ops, size_t n, const Geometry &geo,
               const HTree &htree, const EntryMasks *entry)
{
    if (!entry && !leadsWithMasks(ops, n))
        return nullptr;
    if (entry) {
        entry->xb.validate(geo.numCrossbars, "crossbar");
        entry->row.validate(geo.rows, "row");
    }
    auto batch = rebuild(ops, n, entry, geo, htree);
    // The host never replays a wire trace: it ships the source stream
    // and walks the Move items, so the decode arenas go now.
    releaseSegmentArenas(*batch);
    batch->wireSig = traceSignature(ops, n, entry);
    batch->sourceOps.assign(ops, ops + n);
    return batch;
}

std::vector<uint8_t>
encodeTraceWire(const BatchTrace &trace)
{
    panicIf(trace.sourceOps.empty(),
            "encodeTraceWire: trace carries no source stream (not a "
            "wire-built trace)");
    ByteWriter w;
    w.u32(kTraceMagic);
    w.u32(kTraceVersion);
    w.u64(trace.wireSig);
    w.u32(trace.geoRows);
    w.u32(trace.geoCols);
    w.u32(trace.geoPartitions);
    w.u32(trace.geoCrossbars);
    w.u8(trace.hasEntry ? 1 : 0);
    if (trace.hasEntry) {
        writeRange(w, trace.entryXb);
        writeRange(w, trace.entryRow);
    }
    // The architectural epilogue — shipped as a decode cross-check.
    writeStats(w, trace.stats);
    writeRange(w, trace.finalXb);
    writeRange(w, trace.finalRow);
    w.u64(trace.sourceOps.size());
    for (Word op : trace.sourceOps)
        w.u64(op);
    return w.take();
}

std::shared_ptr<const BatchTrace>
decodeTraceWire(const uint8_t *bytes, size_t n, const Geometry &geo,
                const HTree &htree)
{
    ByteReader r(bytes, n);
    fatalIf(r.u32() != kTraceMagic,
            "trace wire: bad magic (not a trace image)");
    const uint32_t version = r.u32();
    if (version != kTraceVersion)
        fatal("trace wire: unsupported version " +
                  std::to_string(version));
    const uint64_t sig = r.u64();
    fatalIf(r.u32() != geo.rows || r.u32() != geo.cols ||
                r.u32() != geo.partitions ||
                r.u32() != geo.numCrossbars,
            "trace wire: image was built for a different geometry");
    const uint8_t entryByte = r.u8();
    // Canonical encoding only: a non-0/1 flag byte is damage even
    // when its truthiness would decode to the same trace.
    fatalIf(entryByte > 1, "trace wire: malformed entry flag");
    EntryMasks entryMasks;
    const EntryMasks *entry = nullptr;
    if (entryByte == 1) {
        entryMasks.xb = readRange(r);
        entryMasks.row = readRange(r);
        // The rebuild decodes from these masks: a Range the geometry
        // cannot hold would index outside the crossbar or row space.
        fatalIf(!entryMasks.xb.valid(geo.numCrossbars) ||
                    !entryMasks.row.valid(geo.rows),
                "trace wire: entry mask outside the geometry");
        entry = &entryMasks;
    }
    const Stats wireStats = readStats(r);
    const Range wireXb = readRange(r);
    const Range wireRow = readRange(r);
    const uint64_t nOps = r.u64();
    // Divide, don't multiply: nOps * 8 can wrap for a damaged count
    // and slip a huge allocation past the bound.
    if (nOps == 0 || nOps > r.remaining() / 8)
        fatal("trace wire: implausible op count " + std::to_string(nOps));
    std::vector<Word> ops(nOps);
    for (Word &op : ops)
        op = r.u64();

    fatalIf(traceSignature(ops.data(), ops.size(), entry) != sig,
            "trace wire: signature does not match the source stream");
    fatalIf(!entry && !leadsWithMasks(ops.data(), ops.size()),
            "trace wire: source stream is not self-contained");

    r.expectEnd("trace image");

    // Rebuild deterministically on local arenas, from the entry state
    // when there is one.
    auto batch = rebuild(ops.data(), ops.size(), entry, geo, htree);

    // The cross-check: a rebuilt trace that does not reproduce the
    // sender's architectural epilogue would silently break the
    // replicated-stats invariant — fail loudly instead.
    fatalIf(!(batch->stats == wireStats),
            "trace wire: rebuilt trace diverges from the sender's "
            "architectural stats");
    fatalIf(!(batch->finalXb == wireXb) || !(batch->finalRow == wireRow),
            "trace wire: rebuilt trace diverges from the sender's "
            "final mask state");

    // Compile where the trace replays, from the cross-checked rebuild.
    compileBatchTrace(*batch, geo);
    releaseSegmentArenas(*batch);

    // Only the host's encoder reads the source stream; an installed
    // trace replays by signature and keeps just its programs.
    batch->wireSig = sig;
    return batch;
}

} // namespace pypim
