#include "sim/trace_wire.hpp"

#include <string>

#include "common/error.hpp"
#include "sim/batch_trace.hpp"
#include "sim/serialize.hpp"

namespace pypim
{

namespace
{

constexpr uint32_t kTraceMagic = 0x50575452;  // "PWTR"
constexpr uint32_t kTraceVersion = 1;

void
writeProgram(ByteWriter &w, const ReplayProgram &p)
{
    w.u32(static_cast<uint32_t>(p.instrs.size()));
    for (const ReplayProgram::Instr &in : p.instrs) {
        w.u8(static_cast<uint8_t>(in.kind));
        w.u8(static_cast<uint8_t>(in.cls));
        w.u8(in.maskFull);
        w.u8(in.passKind);
        w.u32(in.off);
        w.u32(in.count);
        w.u32(in.maskOff);
        w.u32(in.slot);
        w.u32(in.work);
        writeRange(w, in.xb);
    }
    w.u32(static_cast<uint32_t>(p.sections.size()));
    for (const ReplayProgram::PSection &s : p.sections) {
        w.u8(static_cast<uint8_t>(s.kind));
        w.u32(s.outCol);
        w.u32(s.inA);
        w.u32(s.inB);
    }
    w.u32(static_cast<uint32_t>(p.pairs.size()));
    for (const StripeWrite &sw : p.pairs) {
        w.u32(sw.slot);
        w.u32(sw.value);
    }
    w.u32(static_cast<uint32_t>(p.vgates.size()));
    for (const ReplayProgram::VGate &g : p.vgates) {
        w.u8(static_cast<uint8_t>(g.gate));
        w.u32(g.inWord);
        w.u32(g.inShift);
        w.u32(g.outWord);
        w.u64(g.outBit);
    }
    w.u32(static_cast<uint32_t>(p.maskWords.size()));
    for (uint64_t word : p.maskWords)
        w.u64(word);
    w.u32(p.wordsPerMask);
    w.u32(p.xbLo);
    w.u32(p.xbHi);
    w.u8(p.allMasksFull ? 1 : 0);
    w.u8(p.uniformXb ? 1 : 0);
    writeRange(w, p.xb);
    w.u64(p.workWrites);
    w.u64(p.workLogicH);
    w.u64(p.workLogicV);
}

/** Read an element count and bound it by the bytes actually left in
 *  the image (each element costs at least @p minBytes on the wire):
 *  a damaged count must throw, not drive a huge allocation. */
uint32_t
wireCount(ByteReader &r, uint32_t minBytes, const char *what)
{
    const uint32_t n = r.u32();
    if (n > r.remaining() / minBytes)
        fatal(std::string("trace wire: implausible ") + what +
                  " count " + std::to_string(n));
    return n;
}

ReplayProgram
readProgram(ByteReader &r)
{
    ReplayProgram p;
    const uint32_t nInstrs = wireCount(r, 36, "instruction");
    p.instrs.reserve(nInstrs);
    for (uint32_t i = 0; i < nInstrs; ++i) {
        ReplayProgram::Instr in;
        const uint8_t kind = r.u8();
        if (kind > static_cast<uint8_t>(ReplayProgram::Kind::VRun))
            fatal("trace wire: bad replay instruction kind " +
                      std::to_string(kind));
        in.kind = static_cast<ReplayProgram::Kind>(kind);
        const uint8_t cls = r.u8();
        if (cls >= static_cast<uint8_t>(OpClass::NumClasses))
            fatal("trace wire: bad op class " + std::to_string(cls));
        in.cls = static_cast<OpClass>(cls);
        in.maskFull = r.u8();
        in.passKind = r.u8();
        in.off = r.u32();
        in.count = r.u32();
        in.maskOff = r.u32();
        in.slot = r.u32();
        in.work = r.u32();
        in.xb = readRange(r);
        p.instrs.push_back(in);
    }
    const uint32_t nSections = wireCount(r, 13, "pass-section");
    p.sections.reserve(nSections);
    for (uint32_t i = 0; i < nSections; ++i) {
        ReplayProgram::PSection s;
        const uint8_t kind = r.u8();
        if (kind > static_cast<uint8_t>(
                       ReplayProgram::SecKind::FusedNotNor))
            fatal("trace wire: bad pass-section kind " +
                      std::to_string(kind));
        s.kind = static_cast<ReplayProgram::SecKind>(kind);
        s.outCol = static_cast<uint16_t>(r.u32());
        s.inA = static_cast<uint16_t>(r.u32());
        s.inB = static_cast<uint16_t>(r.u32());
        p.sections.push_back(s);
    }
    const uint32_t nPairs = wireCount(r, 8, "write-stripe");
    p.pairs.reserve(nPairs);
    for (uint32_t i = 0; i < nPairs; ++i) {
        StripeWrite sw;
        sw.slot = r.u32();
        sw.value = r.u32();
        p.pairs.push_back(sw);
    }
    const uint32_t nVgates = wireCount(r, 21, "LogicV gate");
    p.vgates.reserve(nVgates);
    for (uint32_t i = 0; i < nVgates; ++i) {
        ReplayProgram::VGate g;
        const uint8_t gate = r.u8();
        if (gate > static_cast<uint8_t>(Gate::Nor))
            fatal("trace wire: bad LogicV gate " + std::to_string(gate));
        g.gate = static_cast<Gate>(gate);
        g.inWord = r.u32();
        g.inShift = r.u32();
        g.outWord = r.u32();
        g.outBit = r.u64();
        p.vgates.push_back(g);
    }
    const uint32_t nMaskWords = wireCount(r, 8, "mask-word");
    p.maskWords.resize(nMaskWords);
    for (uint64_t &word : p.maskWords)
        word = r.u64();
    p.wordsPerMask = r.u32();
    p.xbLo = r.u32();
    p.xbHi = r.u32();
    p.allMasksFull = r.u8() != 0;
    p.uniformXb = r.u8() != 0;
    p.xb = readRange(r);
    p.workWrites = r.u64();
    p.workLogicH = r.u64();
    p.workLogicV = r.u64();
    return p;
}

} // namespace

uint64_t
traceSignature(const Word *ops, size_t n, bool fuse)
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
    mix(fuse ? 1 : 0);
    return h;
}

std::shared_ptr<const BatchTrace>
buildWireTrace(const Word *ops, size_t n, bool fuse, bool compiled,
               const Geometry &geo, const HTree &htree)
{
    if (!leadsWithMasks(ops, n))
        return nullptr;
    auto batch = std::make_shared<BatchTrace>();
    // A self-contained stream decodes identically from the power-on
    // mask state (Simulator::prepareTrace's local-MaskState mirror).
    MaskState local;
    local.reset(geo);
    buildBatchTrace(ops, n, geo, htree, local, *batch);
    if (fuse)
        fuseBatchTrace(*batch, geo);
    if (compiled)
        compileBatchTrace(*batch, geo);
    batch->wireSig = traceSignature(ops, n, fuse);
    batch->sourceOps.assign(ops, ops + n);
    batch->sourceFuse = fuse;
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
    w.u8(trace.sourceFuse ? 1 : 0);
    // The architectural epilogue — shipped as a decode cross-check.
    writeStats(w, trace.stats);
    writeRange(w, trace.finalXb);
    writeRange(w, trace.finalRow);
    w.u64(trace.sourceOps.size());
    for (Word op : trace.sourceOps)
        w.u64(op);
    w.u32(static_cast<uint32_t>(trace.programs.size()));
    for (const ReplayProgram &p : trace.programs)
        writeProgram(w, p);
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
    const uint8_t fuseByte = r.u8();
    // Canonical encoding only: a non-0/1 flag byte is damage even
    // when its truthiness would decode to the same trace.
    fatalIf(fuseByte > 1, "trace wire: malformed fusion flag");
    const bool fuse = fuseByte == 1;
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

    fatalIf(traceSignature(ops.data(), ops.size(), fuse) != sig,
            "trace wire: signature does not match the source stream");
    fatalIf(!leadsWithMasks(ops.data(), ops.size()),
            "trace wire: source stream is not self-contained");

    // Rebuild deterministically on local arenas (fusion included; the
    // compiled programs, when shipped, are installed verbatim below).
    auto batch = std::make_shared<BatchTrace>();
    MaskState local;
    local.reset(geo);
    buildBatchTrace(ops.data(), ops.size(), geo, htree, local, *batch);
    if (fuse)
        fuseBatchTrace(*batch, geo);

    // The cross-check: a rebuilt trace that does not reproduce the
    // sender's architectural epilogue would silently break the
    // replicated-stats invariant — fail loudly instead.
    fatalIf(!(batch->stats == wireStats),
            "trace wire: rebuilt trace diverges from the sender's "
            "architectural stats");
    fatalIf(!(batch->finalXb == wireXb) || !(batch->finalRow == wireRow),
            "trace wire: rebuilt trace diverges from the sender's "
            "final mask state");

    const uint32_t nPrograms = r.u32();
    if (nPrograms != 0 && nPrograms != batch->used)
        fatal("trace wire: program count " + std::to_string(nPrograms) +
                  " does not match " + std::to_string(batch->used) +
                  " segments");
    batch->programs.clear();
    batch->programs.reserve(nPrograms);
    for (uint32_t i = 0; i < nPrograms; ++i)
        batch->programs.push_back(readProgram(r));
    r.expectEnd("trace image");
    releaseInterpreterArenas(*batch);

    batch->wireSig = sig;
    batch->sourceOps = std::move(ops);
    batch->sourceFuse = fuse;
    return batch;
}

} // namespace pypim
