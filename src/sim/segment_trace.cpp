#include "sim/segment_trace.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace pypim
{

namespace
{

/**
 * Build-time intern table of one segment: LogicH op word -> index of
 * its expansion in SegmentTrace::halfGates. Open addressing, sized
 * from the segment's LogicH count so it never grows mid-build. One
 * table per building thread, reused across segments: steady-state
 * building stays allocation-free and no trace carries the table.
 */
class HalfGateIntern
{
  public:
    void
    reset(size_t logicH)
    {
        const size_t cap = std::bit_ceil(std::max<size_t>(16, 2 * logicH));
        slots_.assign(cap, Slot{});
        shift_ = 64 - std::countr_zero(cap);
    }

    /** Slot of @p w: hg == kEmpty iff @p w is not interned yet. */
    uint32_t &
    find(Word w)
    {
        size_t i = static_cast<size_t>((w * 0x9E3779B97F4A7C15ull) >>
                                       shift_);
        const size_t m = slots_.size() - 1;
        while (slots_[i].hg != kEmpty && slots_[i].word != w)
            i = (i + 1) & m;
        slots_[i].word = w;
        return slots_[i].hg;
    }

    static constexpr uint32_t kEmpty = UINT32_MAX;

  private:
    struct Slot
    {
        Word word = 0;
        uint32_t hg = kEmpty;
    };
    std::vector<Slot> slots_;
    int shift_ = 60;
};

/**
 * Append the compact form of the validated expansion @p hg to
 * @p trace: its header, and its active sections to the arena.
 */
void
internExpansion(const HalfGates &hg, SegmentTrace &trace)
{
    HalfGateRun run;
    run.off = static_cast<uint32_t>(trace.sections.size());
    run.gate = hg.gate;
    for (uint32_t s = 0; s < hg.numSections; ++s) {
        const Section &sec = hg.sections[s];
        if (!sec.active())
            continue;
        ActiveSection a;
        a.outCol = static_cast<uint16_t>(sec.outCol);
        a.inA = static_cast<uint16_t>(sec.numIn >= 1 ? sec.inCol[0]
                                                     : sec.outCol);
        a.inB = static_cast<uint16_t>(sec.numIn == 2 ? sec.inCol[1]
                                                     : a.inA);
        trace.sections.push_back(a);
    }
    run.count = static_cast<uint16_t>(trace.sections.size() - run.off);
    trace.halfGates.push_back(run);
}

} // namespace

void
buildSegmentTrace(const Word *ops, size_t n, const Geometry &geo,
                  MaskState &mask, Stats &stats, SegmentTrace &trace)
{
    trace.clear(geo.rows);
    // One op per work op: reserving the stream's length up front keeps
    // the arena from doubling past it.
    trace.ops.reserve(n);

    // Identical LogicH words share one expansion: a captured move
    // sequence repeats the same three lane NOTs hundreds of times.
    thread_local HalfGateIntern intern;
    intern.reset(static_cast<size_t>(
        std::count_if(ops, ops + n, [](Word w) {
            return enc::peekType(w) == OpType::LogicH;
        })));

    // Lazily-materialised row-mask snapshot: snapId identifies the
    // snapshot in force; snapCurrent says the live mask still matches
    // it, so consecutive work ops share one snapshot. After a RowMask
    // op the next work op re-resolves by CONTENT: a re-issued Range
    // that realizes the same row-mask bits — even via a different
    // start/stop/step encoding — reuses the existing id, so the
    // replay compiler's id-comparing rewrites (pass merging and the
    // liveness scan, sim/replay_program.cpp) fire across
    // equivalent-Range reissues. The search is linear over the
    // segment's snapshots, but building runs once per cached
    // signature, never per replay.
    int64_t snapId = -1;
    bool snapCurrent = false;
    const auto rowSnapshot = [&]() -> uint32_t {
        if (!snapCurrent) {
            const size_t count =
                trace.rowWords.size() / trace.wordsPerMask;
            snapId = -1;
            for (size_t k = 0; k < count; ++k) {
                if (std::equal(mask.rowWords.begin(),
                               mask.rowWords.end(),
                               trace.rowWords.begin() +
                                   k * trace.wordsPerMask)) {
                    snapId = static_cast<int64_t>(k);
                    break;
                }
            }
            if (snapId < 0) {
                snapId = static_cast<int64_t>(count);
                trace.rowWords.insert(trace.rowWords.end(),
                                      mask.rowWords.begin(),
                                      mask.rowWords.end());
                trace.rowMaskFull.push_back(
                    std::all_of(mask.rowWords.begin(),
                                mask.rowWords.end(),
                                [](uint64_t w) { return w == ~0ull; })
                        ? 1
                        : 0);
            }
            snapCurrent = true;
        }
        return static_cast<uint32_t>(snapId);
    };

    uint32_t lo = UINT32_MAX, hi = 0;
    const auto emit = [&](const TraceOp &t) {
        lo = std::min(lo, t.xb.start);
        hi = std::max(hi, t.xb.stop + 1);
        trace.ops.push_back(t);
    };

    for (size_t i = 0; i < n; ++i) {
        const MicroOp op = MicroOp::decode(ops[i]);
        switch (op.type) {
          case OpType::CrossbarMask:
            op.range.validate(geo.numCrossbars, "crossbar");
            mask.xb = op.range;
            stats.record(OpClass::CrossbarMask);
            break;
          case OpType::RowMask:
            op.range.validate(geo.rows, "row");
            mask.setRow(op.range, geo.rows);
            stats.record(OpClass::RowMask);
            snapCurrent = false;  // next work op re-resolves by content
            break;
          case OpType::Write: {
            fatalIf(op.index >= geo.slots(),
                    "write: slot index out of range");
            stats.record(OpClass::Write);
            TraceOp t;
            t.type = OpType::Write;
            t.index = op.index;
            t.value = op.value;
            t.rowMask = rowSnapshot();
            t.xb = mask.xb;
            emit(t);
            break;
          }
          case OpType::LogicH: {
            stats.record(OpClass::LogicH);
            if (op.gate == Gate::Nor || op.gate == Gate::Not)
                ++stats.logicGates;
            else
                ++stats.logicInits;
            TraceOp t;
            t.type = OpType::LogicH;
            uint32_t &hg = intern.find(ops[i]);
            if (hg == HalfGateIntern::kEmpty) {
                hg = static_cast<uint32_t>(trace.halfGates.size());
                internExpansion(expandLogicH(op, geo), trace);
            }
            t.hg = hg;
            t.rowMask = rowSnapshot();
            t.xb = mask.xb;
            emit(t);
            break;
          }
          case OpType::LogicV: {
            fatalIf(op.index >= geo.slots(),
                    "logicV: slot index out of range");
            fatalIf(op.rowIn >= geo.rows || op.rowOut >= geo.rows,
                    "logicV: row out of range");
            panicIf(op.gate == Gate::Nor,
                    "logicV: NOR is not supported vertically");
            stats.record(OpClass::LogicV);
            if (op.gate == Gate::Not)
                ++stats.logicGates;
            else
                ++stats.logicInits;
            TraceOp t;
            t.type = OpType::LogicV;
            t.gate = op.gate;
            t.rowIn = op.rowIn;
            t.rowOut = op.rowOut;
            t.index = op.index;
            t.xb = mask.xb;
            emit(t);
            break;
          }
          default:
            panic("segment trace: barrier op inside a segment");
        }
    }
    if (!trace.ops.empty()) {
        trace.xbLo = lo;
        trace.xbHi = hi;
    }
}

} // namespace pypim
