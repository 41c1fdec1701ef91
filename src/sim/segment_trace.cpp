#include "sim/segment_trace.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace pypim
{

void
ExpansionTable::beginSegment()
{
    if (++segment_ == 0) {
        // Stamp wrap: no slot may claim a copy in the new segment.
        for (Slot &s : slots_)
            s.segment = 0;
        segment_ = 1;
    }
}

ExpansionTable::Slot &
ExpansionTable::find(Word w)
{
    size_t i =
        static_cast<size_t>((w * 0x9E3779B97F4A7C15ull) >> shift_);
    const size_t m = slots_.size() - 1;
    while (slots_[i].count != 0 && slots_[i].word != w)
        i = (i + 1) & m;
    return slots_[i];
}

void
ExpansionTable::grow()
{
    std::vector<Slot> old(std::max<size_t>(256, 2 * slots_.size()));
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot &s : old)
        if (s.count != 0)
            find(s.word) = s;
}

uint32_t
ExpansionTable::intern(Word w, SegmentTrace *trace)
{
    if (slots_.empty())
        grow();
    Slot *slot = &find(w);
    if (slot->count == 0) {
        // First sight: validate. A malformed word throws here, before
        // anything is stored.
        const HalfGates hg = expandLogicH(MicroOp::decode(w), geo_);
        if (4 * (used_ + 1) > 3 * slots_.size()) {
            grow();
            slot = &find(w);
        }
        slot->word = w;
        slot->off = static_cast<uint32_t>(sections_.size());
        slot->gate = hg.gate;
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
            sections_.push_back(a);
        }
        slot->count = static_cast<uint16_t>(sections_.size() - slot->off);
        slot->segment = 0;
        ++used_;
    }
    if (!trace)
        return 0;
    if (slot->segment != segment_) {
        // First use in this segment: copy the run into its arena.
        slot->segment = segment_;
        slot->hg = static_cast<uint32_t>(trace->halfGates.size());
        HalfGateRun run;
        run.off = static_cast<uint32_t>(trace->sections.size());
        run.count = slot->count;
        run.gate = slot->gate;
        trace->sections.insert(trace->sections.end(),
                               sections_.begin() + slot->off,
                               sections_.begin() + slot->off +
                                   slot->count);
        trace->halfGates.push_back(run);
    }
    return slot->hg;
}

void
decodeSegment(const Word *ops, size_t n, const Geometry &geo,
              ExpansionTable &table, MaskState &mask, Stats &stats,
              CrossbarHull &hull, SegmentTrace *trace)
{
    if (trace) {
        trace->clear(geo.rows);
        // One op per work op: reserving the stream's length up front
        // keeps the arena from doubling past it.
        trace->ops.reserve(n);
        // Identical LogicH words share one header per segment: a
        // captured move sequence repeats the same three lane NOTs
        // hundreds of times.
        table.beginSegment();
    }

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
                trace->rowWords.size() / trace->wordsPerMask;
            snapId = -1;
            for (size_t k = 0; k < count; ++k) {
                if (std::equal(mask.rowWords.begin(),
                               mask.rowWords.end(),
                               trace->rowWords.begin() +
                                   k * trace->wordsPerMask)) {
                    snapId = static_cast<int64_t>(k);
                    break;
                }
            }
            if (snapId < 0) {
                snapId = static_cast<int64_t>(count);
                trace->rowWords.insert(trace->rowWords.end(),
                                       mask.rowWords.begin(),
                                       mask.rowWords.end());
                trace->rowMaskFull.push_back(
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

    // Emit a work op under the live masks (the scan only widens the
    // hull); @p rowMasked ops carry a row-mask snapshot.
    CrossbarHull seg;
    const auto emit = [&](TraceOp t, bool rowMasked) {
        seg.add(mask.xb.start, mask.xb.stop);
        if (!trace)
            return;
        if (rowMasked)
            t.rowMask = rowSnapshot();
        t.xb = mask.xb;
        trace->ops.push_back(t);
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
            emit(t, true);
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
            t.hg = table.intern(ops[i], trace);
            emit(t, true);
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
            emit(t, false);
            break;
          }
          default:
            panic("segment trace: barrier op inside a segment");
        }
    }
    if (seg.lo < seg.hi) {
        hull.add(seg.lo, seg.hi - 1);
        if (trace) {
            trace->xbLo = seg.lo;
            trace->xbHi = seg.hi;
        }
    }
}

} // namespace pypim
