/**
 * @file
 * Move-instruction lowering (paper §III-E, §III-F, §IV).
 *
 * Intra-warp moves transfer one register between two threads of every
 * mask-selected warp using vertical (transposed) stateful logic. A
 * stateful NOT inverts, so the copy needs an even number of
 * inversions; the lowering uses four NOT stages (two horizontal lane
 * NOTs, one vertical NOT, one horizontal pair on the destination row):
 *
 *   srcRow:  tmp  <- NOT reg      (horizontal lane NOT)
 *   vert:    dstRow.tmp <- NOT srcRow.tmp
 *   dstRow:  tmp2 <- NOT tmp;  dstReg <- NOT tmp2
 *
 * Inter-warp moves lower to a single H-tree move micro-op: the
 * crossbar mask names the source warps (step must be a power of 4,
 * paper §III-F) and the op carries the destination start, rows and
 * register indices. One op transfers one thread per warp pair —
 * warp-parallel, thread-serial, exactly the ISA's move semantics.
 *
 * Because moves are thread-serial, a tensor-level data movement (one
 * bitonic exchange) is hundreds of moves. execute(span) captures such
 * a sequence once — recorded through the per-move lowering above,
 * under the builder's live masks — and replays it afterwards as one
 * compiled trace.
 */
#include "driver/driver.hpp"

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "sim/batch_trace.hpp"

namespace pypim
{

void
Driver::execute(const MoveInstr &in)
{
    fatalIf(in.srcReg >= geo_->userRegs || in.dstReg >= geo_->userRegs,
            "move register out of range");
    fatalIf(in.srcRow >= geo_->rows || in.dstRow >= geo_->rows,
            "move row out of range");
    in.warps.validate(geo_->numCrossbars, "warp");
    builder_.pool().reset();

    if (in.kind == MoveInstr::Kind::InterWarp) {
        fatalIf(!isPow2(in.warps.step) ||
                (log2Floor(in.warps.step) % 2) != 0,
                "inter-warp move: warp step must be a power of 4");
        const int64_t dist = static_cast<int64_t>(in.dstStartWarp) -
                             static_cast<int64_t>(in.warps.start);
        const int64_t last = static_cast<int64_t>(in.warps.stop) + dist;
        fatalIf(in.dstStartWarp >= geo_->numCrossbars || last < 0 ||
                last >= geo_->numCrossbars,
                "inter-warp move: destination out of range");
        builder_.setWarpMask(in.warps);
        builder_.emit(enc::move(in.dstStartWarp, in.srcRow, in.dstRow,
                                in.srcReg, in.dstReg));
        builder_.flush();
        ++stats_.instructions;
        return;
    }

    // Intra-warp move.
    if (in.srcRow == in.dstRow) {
        if (in.srcReg != in.dstReg) {
            builder_.setWarpMask(in.warps);
            builder_.setRowMask(Range::single(in.srcRow));
            builder_.laneCopy(in.srcReg, in.dstReg);
        }
        builder_.flush();
        ++stats_.instructions;
        return;
    }

    const uint32_t tmp = builder_.pool().allocLane();
    const uint32_t tmp2 = builder_.pool().allocLane();
    builder_.setWarpMask(in.warps);
    // Stage 1 (source row): tmp <- NOT(srcReg).
    builder_.setRowMask(Range::single(in.srcRow));
    builder_.laneNot(in.srcReg, tmp);
    // Stage 2 (vertical): dstRow.tmp <- NOT(srcRow.tmp). Vertical ops
    // name their rows explicitly; the row mask does not apply.
    builder_.emit(enc::logicV(Gate::Init1, 0, in.dstRow, tmp));
    builder_.emit(enc::logicV(Gate::Not, in.srcRow, in.dstRow, tmp));
    // Stage 3 (destination row): dstReg <- NOT(NOT(tmp)).
    builder_.setRowMask(Range::single(in.dstRow));
    builder_.laneNot(tmp, tmp2);
    builder_.laneNot(tmp2, in.dstReg);
    builder_.pool().freeLane(tmp);
    builder_.pool().freeLane(tmp2);
    builder_.flush();
    ++stats_.instructions;
}

size_t
Driver::MoveSeqKeyHash::operator()(const MoveSeqRef &k) const
{
    uint64_t h = (static_cast<uint64_t>(k.head.partitions) << 1 |
                  static_cast<uint64_t>(k.head.masksKnown)) ^
                 k.moves.size();
    const auto mix = [&h](uint64_t v) {
        h = (h ^ v) * 0x9E3779B97F4A7C15ull;
        h ^= h >> 29;
    };
    const auto mixRange = [&mix](const Range &r) {
        mix(static_cast<uint64_t>(r.start) << 32 | r.stop);
        mix(r.step);
    };
    if (k.head.masksKnown) {
        mixRange(k.head.warps);
        mixRange(k.head.rows);
    }
    for (const MoveInstr &m : k.moves) {
        mix(static_cast<uint64_t>(m.kind) |
            static_cast<uint64_t>(m.srcReg) << 8 |
            static_cast<uint64_t>(m.dstReg) << 16 |
            static_cast<uint64_t>(m.dstStartWarp) << 32);
        mix(static_cast<uint64_t>(m.srcRow) << 32 | m.dstRow);
        mixRange(m.warps);
    }
    return static_cast<size_t>(h);
}

void
Driver::execute(std::span<const MoveInstr> moves)
{
    if (moves.empty())
        return;
    // The captured stream is what the per-move path emits from the
    // builder's CURRENT masks, so the key must pin them — both known
    // (the trace decodes from them) or both unknown (the stream sets
    // them itself). A half-known state is rare: no capture.
    const bool known = builder_.masksKnown();
    const bool unknown =
        !builder_.knownWarpMask() && !builder_.knownRowMask();
    if (!streamCacheOn_ || !traceCacheOn_ || (!known && !unknown)) {
        for (const MoveInstr &m : moves)
            execute(m);
        return;
    }
    MoveSeqRef key{{}, moves};
    key.head.partitions = builder_.partitionsEnabled();
    key.head.masksKnown = known;
    if (known) {
        key.head.warps = builder_.warpMask();
        key.head.rows = builder_.rowMask();
    }
    // Pending ops precede the sequence, as the first move's flush
    // would push them.
    builder_.flush();

    const auto it = moveCache_.find(key);
    if (it != moveCache_.end()) {
        const MoveSeqEntry &e = it->second;
        if (e.trace) {
            replayTrace(e.trace);
            stats_.traceCacheHits += moves.size();
        } else if (!e.ops.empty()) {
            sink_->submitBatch(e.ops.data(), e.ops.size());
        }
        builder_.assumeMasks(e.exitWarps, e.exitRows);
        stats_.instructions += moves.size();
        return;
    }

    // Miss: record through the per-move lowering, masks untouched.
    StreamRecorder rec;
    OperationSink *real = builder_.swapSink(&rec);
    try {
        for (const MoveInstr &m : moves)
            execute(m);
    } catch (...) {
        // A move failed validation: the moves before it take effect,
        // exactly as they do move by move.
        builder_.swapSink(real);
        if (!rec.ops.empty())
            sink_->submitBatch(rec.ops.data(), rec.ops.size());
        throw;
    }
    builder_.swapSink(real);

    MoveSeqEntry e;
    e.exitWarps = builder_.knownWarpMask();
    e.exitRows = builder_.knownRowMask();
    const EntryMasks entry{key.head.warps, key.head.rows};
    e.trace = sink_->prepareTrace(rec.ops.data(), rec.ops.size(),
                                  known ? &entry : nullptr);
    if (e.trace) {
        noteTraceBuilt(*e.trace);
        replayTrace(e.trace);
    } else {
        e.ops = std::move(rec.ops);
        if (!e.ops.empty())
            sink_->submitBatch(e.ops.data(), e.ops.size());
    }
    if (moveCache_.size() >= kMoveCacheEntries)
        moveCache_.clear();
    moveCache_.emplace(
        MoveSeqKey{key.head, {moves.begin(), moves.end()}},
        std::move(e));
}

} // namespace pypim
