#include "uarch/partition.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace pypim
{

namespace
{

/** Operand partitions and intra indices of the leftmost encoded gate. */
struct GateOperands
{
    uint32_t pA = 0, iA = 0;
    uint32_t pB = 0, iB = 0;
    uint32_t pOut = 0, iOut = 0;
    bool hasA = false, hasB = false;
};

GateOperands
splitOperands(const MicroOp &op, const Geometry &geo)
{
    const uint32_t pw = geo.partitionWidth();
    GateOperands g;
    panicIf(op.out >= geo.cols, "logicH: out column out of range");
    g.pOut = op.out / pw;
    g.iOut = op.out % pw;
    if (op.gate == Gate::Not || op.gate == Gate::Nor) {
        panicIf(op.inA >= geo.cols, "logicH: inA column out of range");
        g.pA = op.inA / pw;
        g.iA = op.inA % pw;
        g.hasA = true;
    }
    if (op.gate == Gate::Nor) {
        panicIf(op.inB >= geo.cols, "logicH: inB column out of range");
        g.pB = op.inB / pw;
        g.iB = op.inB % pw;
        g.hasB = true;
    }
    return g;
}

} // namespace

HalfGates
expandLogicH(const MicroOp &op, const Geometry &geo)
{
    const uint32_t numPart = geo.partitions;
    panicIf(numPart > maxPartitions,
            "expandLogicH: geometry exceeds maxPartitions");

    HalfGates hg;
    hg.gate = op.gate;
    hg.numPartitions = numPart;

    const GateOperands base = splitOperands(op, geo);

    // The inner input (if any) must lie within the closed span between
    // the extreme input pA and the output pOut; otherwise the deduced
    // transistor selects would exclude it from the gate's section.
    if (base.hasB) {
        const uint32_t lo = std::min(base.pA, base.pOut);
        const uint32_t hi = std::max(base.pA, base.pOut);
        if (base.pB < lo || base.pB > hi)
            panic("logicH: inB partition " + std::to_string(base.pB) +
                  " outside the gate span [" + std::to_string(lo) +
                  ", " + std::to_string(hi) + "]");
    }

    // Repetition count (restriction 2). pStep == 0 encodes "no
    // repetition"; otherwise gates repeat until the output reaches pEnd.
    uint32_t count = 1;
    if (op.pStep != 0 && op.pEnd != base.pOut) {
        panicIf(op.pEnd < base.pOut,
                "logicH: pEnd precedes the first gate's output");
        panicIf((op.pEnd - base.pOut) % op.pStep != 0,
                "logicH: pStep must divide pEnd - pOut");
        count = (op.pEnd - base.pOut) / op.pStep + 1;
    }
    hg.numGates = count;

    // Assign per-partition opcode bits; detect overlap between gates.
    // A gate claims at most three partitions (operands sharing one
    // merge their bits), each checked against the gates already
    // placed: O(gates + partitions) for the whole op.
    for (uint32_t k = 0; k < count; ++k) {
        const uint32_t shift = k * op.pStep;
        uint32_t part[3] = {};
        uint8_t bits[3] = {};
        uint32_t claimed = 0;
        auto claim = [&](uint32_t p, uint8_t bit) {
            panicIf(p >= numPart,
                    "logicH: repeated gate leaves the partition range");
            for (uint32_t i = 0; i < claimed; ++i) {
                if (part[i] == p) {
                    bits[i] |= bit;
                    return;
                }
            }
            part[claimed] = p;
            bits[claimed++] = bit;
        };
        claim(base.pOut + shift, halfgate::out);
        if (base.hasA)
            claim(base.pA + shift, halfgate::inA);
        if (base.hasB)
            claim(base.pB + shift, halfgate::inB);
        // Report the lowest overlapping partition, as a scan in
        // partition order would.
        uint32_t overlap = numPart;
        for (uint32_t i = 0; i < claimed; ++i)
            if (hg.opcodes[part[i]] != 0)
                overlap = std::min(overlap, part[i]);
        if (overlap != numPart)
            panic("logicH: repeated gates overlap at partition " +
                  std::to_string(overlap));
        for (uint32_t i = 0; i < claimed; ++i)
            hg.opcodes[part[i]] = bits[i];
    }

    // Deduce transistor selects (restriction 3). Direction is taken
    // from the leftmost gate; INIT gates canonically flow left-to-right.
    const bool ltr = !base.hasA || base.pA <= base.pOut;
    for (uint32_t t = 0; t + 1 < numPart; ++t) {
        bool cut;
        if (ltr) {
            cut = (hg.opcodes[t] & halfgate::out) ||
                  (hg.opcodes[t + 1] & halfgate::inA);
        } else {
            cut = (hg.opcodes[t] & halfgate::inA) ||
                  (hg.opcodes[t + 1] & halfgate::out);
        }
        hg.conducting[t] = !cut;
    }

    // Derive sections (maximal conducting runs) and their operands.
    const uint32_t pw = geo.partitionWidth();
    uint32_t begin = 0;
    uint32_t activeSections = 0;
    for (uint32_t p = 0; p < numPart; ++p) {
        const bool last = (p + 1 == numPart) || !hg.conducting[p];
        if (!last)
            continue;
        Section sec;
        sec.begin = begin;
        sec.end = p + 1;
        for (uint32_t q = begin; q <= p; ++q) {
            const uint8_t oc = hg.opcodes[q];
            if (oc & halfgate::inA) {
                panicIf(sec.numIn >= 2,
                        "logicH: more than two input halves in section");
                sec.inCol[sec.numIn++] =
                    static_cast<int32_t>(q * pw + base.iA);
            }
            if (oc & halfgate::inB) {
                panicIf(sec.numIn >= 2,
                        "logicH: more than two input halves in section");
                sec.inCol[sec.numIn++] =
                    static_cast<int32_t>(q * pw + base.iB);
            }
            if (oc & halfgate::out) {
                panicIf(sec.outCol >= 0,
                        "logicH: two output halves in one section");
                sec.outCol = static_cast<int32_t>(q * pw + base.iOut);
            }
        }
        if (sec.active()) {
            // A half-gate is only valid in combination with its other
            // half (paper III-D2): every active section must contain
            // exactly one output half and the gate's full input arity.
            panicIf(sec.outCol < 0,
                    "logicH: input half-gate without an output half");
            const uint32_t arity =
                op.gate == Gate::Nor ? 2 : (op.gate == Gate::Not ? 1 : 0);
            if (sec.numIn != arity)
                panic("logicH: section input halves (" +
                      std::to_string(sec.numIn) + ") do not match gate "
                      "arity (" + std::to_string(arity) + ")");
            ++activeSections;
        }
        hg.sections[hg.numSections++] = sec;
        begin = p + 1;
    }
    if (activeSections != count)
        panic("logicH: active sections (" +
              std::to_string(activeSections) +
              ") do not match encoded gate count (" +
              std::to_string(count) + ")");
    return hg;
}

} // namespace pypim
