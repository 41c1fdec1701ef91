#include "sim/segment_trace.hpp"

#include <algorithm>
#include <bit>

#include "uarch/partition.hpp"

namespace pypim
{

ExpansionTable::Slot &
ExpansionTable::find(Word w)
{
    size_t i =
        static_cast<size_t>((w * 0x9E3779B97F4A7C15ull) >> shift_);
    const size_t m = slots_.size() - 1;
    while (slots_[i].run.count != 0 && slots_[i].word != w)
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
        if (s.run.count != 0)
            find(s.word) = s;
}

HalfGateRun
ExpansionTable::intern(Word w)
{
    if (slots_.empty())
        grow();
    Slot *slot = &find(w);
    if (slot->run.count != 0)
        return slot->run;
    // First sight: validate. A malformed word throws here, before
    // anything is stored.
    const HalfGates hg = expandLogicH(MicroOp::decode(w), geo_);
    if (4 * (used_ + 1) > 3 * slots_.size()) {
        grow();
        slot = &find(w);
    }
    HalfGateRun run;
    run.off = static_cast<uint32_t>(sections_.size());
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
        sections_.push_back(a);
    }
    run.count = static_cast<uint16_t>(sections_.size() - run.off);
    slot->word = w;
    slot->run = run;
    ++used_;
    return run;
}

} // namespace pypim
