#include "driver/driver.hpp"

#include <string>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "driver/emit.hpp"
#include "sim/batch_trace.hpp"
#include "sim/bulk_io.hpp"
#include "sim/serialize.hpp"

#include <algorithm>

namespace pypim
{

Driver::Driver(OperationSink &sink, const Geometry &geo, Mode mode)
    : geo_(&geo),
      sink_(&sink),
      builder_(sink, geo),
      bv_(builder_),
      mode_(mode)
{
    geo.validate();
}

Driver::StreamKey
Driver::makeKey(const RTypeInstr &in) const
{
    StreamKey k;
    k.fields = static_cast<uint64_t>(in.op) |
               (static_cast<uint64_t>(in.dtype) << 8) |
               (static_cast<uint64_t>(in.rd) << 16) |
               (static_cast<uint64_t>(in.ra) << 24) |
               (static_cast<uint64_t>(in.rb) << 32) |
               (static_cast<uint64_t>(in.rc) << 40) |
               (static_cast<uint64_t>(mode_) << 48) |
               (static_cast<uint64_t>(builder_.partitionsEnabled())
                << 56);
    k.warps = in.warps;
    k.rows = in.rows;
    return k;
}

void
Driver::setPartitionsEnabled(bool on)
{
    builder_.setPartitionsEnabled(on);
}

std::vector<uint8_t>
Driver::exportStreamCache() const
{
    // Deterministic entry order (sorted by signature), so the same
    // cache state always produces the same blob — checkpoints stay
    // byte-comparable across runs despite the unordered_map.
    std::vector<const std::pair<const StreamKey, StreamEntry> *> es;
    es.reserve(streamCache_.size());
    for (const auto &kv : streamCache_)
        es.push_back(&kv);
    std::sort(es.begin(), es.end(), [](const auto *a, const auto *b) {
        const StreamKey &x = a->first, &y = b->first;
        if (x.fields != y.fields)
            return x.fields < y.fields;
        if (x.warps.start != y.warps.start)
            return x.warps.start < y.warps.start;
        if (x.warps.stop != y.warps.stop)
            return x.warps.stop < y.warps.stop;
        if (x.warps.step != y.warps.step)
            return x.warps.step < y.warps.step;
        if (x.rows.start != y.rows.start)
            return x.rows.start < y.rows.start;
        if (x.rows.stop != y.rows.stop)
            return x.rows.stop < y.rows.stop;
        return x.rows.step < y.rows.step;
    });
    ByteWriter w;
    w.u64(es.size());
    for (const auto *kv : es) {
        w.u64(kv->first.fields);
        writeRange(w, kv->first.warps);
        writeRange(w, kv->first.rows);
        w.u64(kv->second.ops.size());
        for (Word op : kv->second.ops)
            w.u64(op);
    }
    return w.take();
}

void
Driver::importStreamCache(const std::vector<uint8_t> &blob)
{
    streamCache_.clear();
    if (blob.empty())
        return;
    ByteReader r(blob);
    const uint64_t count = r.u64();
    for (uint64_t i = 0; i < count; ++i) {
        StreamKey k;
        k.fields = r.u64();
        k.warps = readRange(r);
        k.rows = readRange(r);
        StreamEntry e;
        const uint64_t n = r.u64();
        fatalIf(n > r.remaining() / 8,
                "driver cache restore: truncated stream");
        e.ops.reserve(n);
        for (uint64_t j = 0; j < n; ++j)
            e.ops.push_back(r.u64());
        // Traces are derived state: rebuilt lazily by replayEntry on
        // the first post-restore hit.
        streamCache_.emplace(k, std::move(e));
    }
    r.expectEnd("driver stream cache");
}

void
Driver::noteTraceBuilt(const BatchTrace &t)
{
    ++stats_.traceCacheMisses;
    stats_.sectionsFused += t.liveness.fused;
    stats_.sectionsDead += t.liveness.dead;
}

void
Driver::replayTrace(const std::shared_ptr<const BatchTrace> &t)
{
    stats_.sectionsReplayed += t->liveness.replayed();
    sink_->submitTrace(t);
}

void
Driver::replayEntry(StreamEntry &e)
{
    if (traceCacheOn_) {
        if (e.trace) {
            ++stats_.traceCacheHits;
        } else {
            e.trace = sink_->prepareTrace(e.ops.data(), e.ops.size());
            if (e.trace)
                noteTraceBuilt(*e.trace);
        }
        if (e.trace) {
            replayTrace(e.trace);
            return;
        }
    }
    sink_->submitBatch(e.ops.data(), e.ops.size());
}

void
Driver::validate(const RTypeInstr &in) const
{
    // Hot path (every instruction): build messages lazily.
    if (!ropSupported(in.op, in.dtype)) {
        fatal(std::string("unsupported operation ") + ropName(in.op) +
              " for dtype " + dtypeName(in.dtype));
    }
    if (in.dtype == DType::Float32 && geo_->wordBits != 32)
        fatal("float32 operations require a 32-bit word geometry");
    in.warps.validate(geo_->numCrossbars, "warp");
    in.rows.validate(geo_->rows, "thread");
    const uint32_t arity = ropArity(in.op);
    auto checkReg = [&](uint8_t r, const char *what) {
        if (r >= geo_->userRegs)
            fatal(std::string(what) + " register out of range");
    };
    checkReg(in.rd, "destination");
    checkReg(in.ra, "source a");
    if (arity >= 2)
        checkReg(in.rb, "source b");
    if (arity >= 3)
        checkReg(in.rc, "source c");
    // The emitters bulk-initialise rd before consuming all source
    // bits, so aliasing is rejected wholesale.
    if (in.rd == in.ra || (arity >= 2 && in.rd == in.rb) ||
        (arity >= 3 && in.rd == in.rc))
        fatal("destination register must not alias a source register");
}

void
Driver::execute(const RTypeInstr &in)
{
    validate(in);
    if (streamCacheOn_) {
        const StreamKey key = makeKey(in);
        const auto it = streamCache_.find(key);
        if (it != streamCache_.end()) {
            // Replay the memoised (self-contained) translation — via
            // the pre-built trace handle when the trace cache is on:
            // the chip ends up in the instruction's mask state.
            builder_.flush();
            replayEntry(it->second);
            builder_.assumeMasks(in.warps, in.rows);
            ++stats_.instructions;
            return;
        }
        // Record a self-contained stream (mask ops always included).
        StreamRecorder rec;
        OperationSink *real = builder_.swapSink(&rec);
        builder_.resetMaskState();
        builder_.pool().reset();
        builder_.setMasks(in.warps, in.rows);
        dispatch(in);
        builder_.flush();
        builder_.swapSink(real);
        if (streamCache_.size() >= 4096)
            streamCache_.clear();  // simple bound; signatures are few
        StreamEntry &e =
            streamCache_
                .emplace(key, StreamEntry{std::move(rec.ops), nullptr})
                .first->second;
        // Decode-once even for the first execution: the miss path
        // builds the trace and replays it, so the raw stream is never
        // translated by the sink at all.
        replayEntry(e);
        builder_.assumeMasks(in.warps, in.rows);
        ++stats_.instructions;
        return;
    }
    builder_.pool().reset();
    builder_.setMasks(in.warps, in.rows);
    dispatch(in);
    builder_.flush();
    ++stats_.instructions;
}

void
Driver::dispatch(const RTypeInstr &in)
{
    const bool isFloat = in.dtype == DType::Float32;
    const bool parallel = mode_ == Mode::Parallel;
    switch (in.op) {
      case ROp::Add:
        if (isFloat)
            emit::floatAddSub(bv_, in, false);
        else if (parallel)
            emit::intAddParallel(bv_, in);
        else
            emit::intAddSerial(bv_, in);
        return;
      case ROp::Sub:
        if (isFloat)
            emit::floatAddSub(bv_, in, true);
        else if (parallel)
            emit::intSubParallel(bv_, in);
        else
            emit::intSubSerial(bv_, in);
        return;
      case ROp::Mul:
        if (isFloat)
            emit::floatMul(bv_, in);
        else if (parallel)
            emit::intMulParallel(bv_, in);
        else
            emit::intMulSerial(bv_, in);
        return;
      case ROp::Div:
        if (isFloat)
            emit::floatDiv(bv_, in);
        else
            emit::intDivSerial(bv_, in, false);
        return;
      case ROp::Mod:
        emit::intDivSerial(bv_, in, true);
        return;
      case ROp::Neg:
        isFloat ? emit::floatNeg(bv_, in) : emit::intNeg(bv_, in);
        return;
      case ROp::Lt:
      case ROp::Le:
      case ROp::Gt:
      case ROp::Ge:
      case ROp::Eq:
      case ROp::Ne:
        isFloat ? emit::floatCompare(bv_, in) : emit::intCompare(bv_, in);
        return;
      case ROp::BitNot:
      case ROp::BitAnd:
      case ROp::BitOr:
      case ROp::BitXor:
        emit::bitwise(bv_, in);
        return;
      case ROp::Sign:
        isFloat ? emit::floatSign(bv_, in) : emit::intSign(bv_, in);
        return;
      case ROp::Zero:
        isFloat ? emit::floatZero(bv_, in) : emit::intZero(bv_, in);
        return;
      case ROp::Abs:
        isFloat ? emit::floatAbs(bv_, in) : emit::intAbs(bv_, in);
        return;
      case ROp::Mux:
        emit::muxOp(bv_, in);
        return;
      case ROp::Copy:
        emit::copyReg(bv_, in);
        return;
    }
    panic("dispatch: unknown R-type op");
}

void
Driver::execute(const WriteInstr &in)
{
    fatalIf(in.reg >= geo_->userRegs, "write register out of range");
    in.warps.validate(geo_->numCrossbars, "warp");
    in.rows.validate(geo_->rows, "thread");
    builder_.setMasks(in.warps, in.rows);
    builder_.writeWord(in.reg, in.value);
    builder_.flush();
    ++stats_.instructions;
}

uint32_t
Driver::execute(const ReadInstr &in)
{
    fatalIf(in.reg >= geo_->userRegs, "read register out of range");
    fatalIf(in.warp >= geo_->numCrossbars, "read warp out of range");
    fatalIf(in.row >= geo_->rows, "read row out of range");
    ++stats_.instructions;
    return builder_.readWord(in.warp, in.row, in.reg);
}

namespace
{

/** Shared addressing validation of a bulk transfer. */
void
validateBulk(const Geometry &geo, uint8_t reg, uint32_t warpStart,
             uint64_t rowStart, uint64_t rowStep, uint64_t count)
{
    fatalIf(reg >= geo.userRegs, "bulk I/O register out of range");
    fatalIf(rowStep == 0, "bulk I/O row step must be positive");
    const uint64_t last = rowStart + (count - 1) * rowStep;
    const uint64_t lastWarp = warpStart + last / geo.rows;
    fatalIf(lastWarp >= geo.numCrossbars,
            "bulk I/O transfer exceeds the crossbar space");
}

} // namespace

bool
Driver::readBulk(uint8_t reg, uint32_t warpStart, uint64_t rowStart,
                 uint64_t rowStep, uint64_t count, uint32_t *out)
{
    if (count == 0)
        return true;
    validateBulk(*geo_, reg, warpStart, rowStart, rowStep, count);
    // The read planner replicates readWord's narrow/restore emissions
    // against the builder's cached masks; with unknown masks the
    // element loop's (throwing) behaviour must be preserved verbatim,
    // so fall back.
    if (!bulkIoOn_ || !builder_.masksKnown())
        return false;
    BulkIoSpec spec;
    spec.slot = reg;
    spec.warpStart = warpStart;
    spec.rowStart = rowStart;
    spec.rowStep = rowStep;
    spec.count = count;
    planBulkRead(*geo_, builder_.warpMask(), builder_.rowMask(), spec);
    // Pending buffered ops (e.g. mask restores of a previous read)
    // precede the transfer, exactly as the first element's flush
    // would have pushed them.
    builder_.flush();
    BulkIoTelemetry tel;
    if (!sink_->readBulk(spec, out, tel))
        return false;  // sink without bulk support: element loop
    // The transfer restores the entry masks; the builder cache is
    // already exact. Driver accounting matches count ReadInstrs.
    stats_.instructions += count;
    stats_.bulkReads += 1;
    stats_.ioWordsTransposed += tel.wordsTransposed;
    stats_.ioDrains += tel.drains;
    return true;
}

void
Driver::writeBulk(uint8_t reg, uint32_t warpStart, uint64_t rowStart,
                  uint64_t rowStep, uint64_t count,
                  const uint32_t *values)
{
    if (count == 0)
        return;
    validateBulk(*geo_, reg, warpStart, rowStart, rowStep, count);
    BulkIoSpec spec;
    spec.slot = reg;
    spec.warpStart = warpStart;
    spec.rowStart = rowStart;
    spec.rowStep = rowStep;
    spec.count = count;
    // Plan against the builder's cached (possibly unknown) masks —
    // the same dedup decisions the emission below would make.
    const uint64_t runs =
        planBulkWrite(*geo_, builder_.knownWarpMask(),
                      builder_.knownRowMask(), values, spec);
    if (bulkIoOn_) {
        builder_.flush();
        BulkIoTelemetry tel;
        if (sink_->writeBulk(spec, values, tel)) {
            builder_.assumeMasks(spec.finalXb, spec.finalRow);
            stats_.instructions += runs;
            stats_.bulkWrites += 1;
            stats_.ioWordsTransposed += tel.wordsTransposed;
            stats_.ioDrains += tel.drains;
            return;
        }
    }
    // Fallback (knob off or plain sink): emit the canonical run
    // stream through the builder — identical micro-ops, one submitted
    // batch instead of one dispatch per element.
    forEachBulkWriteRun(*geo_, spec, values, [&](const BulkWriteRun &r) {
        builder_.setMasks(Range::single(r.warp), r.rows);
        builder_.writeWord(reg, r.value);
    });
    builder_.flush();
    stats_.instructions += runs;
}

} // namespace pypim
