/**
 * @file
 * Tests for the half-gates expansion (paper §III-D, Table I):
 * per-partition opcodes, deduced transistor selects, dynamic sections,
 * and rejection of patterns outside the restricted partition model.
 * A differential fuzz checks expandLogicH against a reference copy of
 * the straightforward O(gates x partitions) expansion.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "uarch/partition.hpp"

using namespace pypim;

namespace
{

Geometry
geo()
{
    return testGeometry();  // 32 partitions, 32-column partitions
}

/** Column address of (partition, intra index) for the test geometry. */
uint32_t
col(uint32_t part, uint32_t idx)
{
    return part * 32 + idx;
}

const Section *
sectionWithOutput(const HalfGates &hg, uint32_t outCol)
{
    for (uint32_t i = 0; i < hg.numSections; ++i)
        if (hg.sections[i].outCol == static_cast<int32_t>(outCol))
            return &hg.sections[i];
    return nullptr;
}

} // namespace

TEST(Partition, SingleIntraPartitionGate)
{
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(3, 0), col(3, 1), col(3, 2), 3, 0);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.numGates, 1u);
    // Partition 3 applies all three voltages: opcode (InA, InB) -> Out.
    EXPECT_EQ(hg.opcodes[3],
              halfgate::inA | halfgate::inB | halfgate::out);
    const Section *sec = sectionWithOutput(hg, col(3, 2));
    ASSERT_NE(sec, nullptr);
    EXPECT_EQ(sec->numIn, 2u);
}

TEST(Partition, CrossPartitionGateLeftToRight)
{
    // Paper Fig. 8(c): inputs in partition 0 (InA) and 1 (InB), output
    // in partition 1 (span [0, 1]).
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(1, 1), col(1, 3), 1, 0);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.opcodes[0], halfgate::inA);
    EXPECT_EQ(hg.opcodes[1], halfgate::inB | halfgate::out);
    // Transistor 0 (between partitions 0 and 1) must conduct; the one
    // right of partition 1 must be cut (partition 1 has an Out half).
    EXPECT_TRUE(hg.conducting[0]);
    EXPECT_FALSE(hg.conducting[1]);
    const Section *sec = sectionWithOutput(hg, col(1, 3));
    ASSERT_NE(sec, nullptr);
    EXPECT_EQ(sec->begin, 0u);
    EXPECT_EQ(sec->end, 2u);
    EXPECT_EQ(sec->numIn, 2u);
}

TEST(Partition, RightToLeftGate)
{
    // Inputs in partition 5, output in partition 2 (reverse direction).
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(5, 0), col(5, 1), col(2, 3), 2, 0);
    const HalfGates hg = expandLogicH(op, g);
    const Section *sec = sectionWithOutput(hg, col(2, 3));
    ASSERT_NE(sec, nullptr);
    EXPECT_EQ(sec->begin, 2u);
    EXPECT_EQ(sec->end, 6u);
    // Cut left of partition 2 and right of partition 5.
    EXPECT_FALSE(hg.conducting[1]);
    EXPECT_FALSE(hg.conducting[5]);
    EXPECT_TRUE(hg.conducting[2]);
    EXPECT_TRUE(hg.conducting[3]);
    EXPECT_TRUE(hg.conducting[4]);
}

TEST(Partition, FullyParallelPattern)
{
    // Per-partition gate repeated across all 32 partitions (paper
    // Fig. 7(b)): one section per partition.
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(0, 1), col(0, 2), 31, 1);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.numGates, 32u);
    for (uint32_t t = 0; t + 1 < 32; ++t)
        EXPECT_FALSE(hg.conducting[t]) << "transistor " << t;
    uint32_t active = 0;
    for (uint32_t i = 0; i < hg.numSections; ++i)
        if (hg.sections[i].active())
            ++active;
    EXPECT_EQ(active, 32u);
}

TEST(Partition, SemiParallelPattern)
{
    // Paper Fig. 7(c)-style: gates (p -> p+2) repeated with stride 4:
    // (0 -> 2), (4 -> 6), ..., non-intersecting sections.
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(2, 1), col(2, 3), 30, 4);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.numGates, 8u);
    for (uint32_t k = 0; k < 8; ++k) {
        const Section *sec = sectionWithOutput(hg, col(4 * k + 2, 3));
        ASSERT_NE(sec, nullptr) << "gate " << k;
        EXPECT_EQ(sec->numIn, 2u);
        EXPECT_EQ(sec->inCol[0], static_cast<int32_t>(col(4 * k, 0)));
        EXPECT_EQ(sec->inCol[1], static_cast<int32_t>(col(4 * k + 2, 1)));
    }
}

TEST(Partition, PeriodicInitPattern)
{
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Init1, 0, 0, col(0, 7), 31, 1);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.numGates, 32u);
    for (uint32_t p = 0; p < 32; ++p)
        EXPECT_EQ(hg.opcodes[p], halfgate::out);
}

TEST(Partition, NotGateHasSingleInputHalf)
{
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Not, col(4, 0), col(4, 0), col(7, 1), 7, 0);
    const HalfGates hg = expandLogicH(op, g);
    EXPECT_EQ(hg.opcodes[4], halfgate::inA);
    EXPECT_EQ(hg.opcodes[7], halfgate::out);
    const Section *sec = sectionWithOutput(hg, col(7, 1));
    ASSERT_NE(sec, nullptr);
    EXPECT_EQ(sec->numIn, 1u);
}

TEST(Partition, RejectsInnerInputOutsideSpan)
{
    // inB strictly outside [min(pA, pOut), max(pA, pOut)] cannot be
    // expressed by the deduced transistor selects.
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(2, 0), col(9, 1), col(5, 3), 5, 0);
    EXPECT_THROW(expandLogicH(op, g), InternalError);
}

TEST(Partition, RejectsOverlappingRepetition)
{
    // Span is 3 partitions but the stride is 2: repeated gates overlap.
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(2, 1), col(2, 3), 30, 2);
    EXPECT_THROW(expandLogicH(op, g), InternalError);
}

TEST(Partition, RejectsRepetitionLeavingRange)
{
    const Geometry g = geo();
    // pEnd = 33 > 31: repeated gate would leave the partition range
    // (pEnd itself is range-checked through the claimed partitions).
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(0, 1), col(0, 2), 33, 1);
    EXPECT_THROW(expandLogicH(op, g), InternalError);
}

TEST(Partition, RejectsStepNotDividingSpan)
{
    const Geometry g = geo();
    const MicroOp op =
        MicroOp::logicH(Gate::Nor, col(0, 0), col(0, 1), col(0, 2), 31, 3);
    EXPECT_THROW(expandLogicH(op, g), InternalError);
}

TEST(Partition, GateCountsMatchParallelismForms)
{
    const Geometry g = geo();
    // Serial (Fig. 7(a)): one gate.
    EXPECT_EQ(expandLogicH(MicroOp::logicH(Gate::Nor, col(0, 0),
                                           col(11, 1), col(31, 2), 31, 0),
                           g).numGates, 1u);
    // Parallel (Fig. 7(b)): N gates.
    EXPECT_EQ(expandLogicH(MicroOp::logicH(Gate::Nor, col(0, 0),
                                           col(0, 1), col(0, 2), 31, 1),
                           g).numGates, 32u);
    // Semi-parallel (Fig. 7(c)): N/4 gates at stride 4.
    EXPECT_EQ(expandLogicH(MicroOp::logicH(Gate::Nor, col(0, 0),
                                           col(1, 1), col(1, 2), 29, 4),
                           g).numGates, 8u);
}

// --- differential check against the O(gates x partitions) reference ---

namespace
{

/**
 * Reference expansion: for every repeated gate, zero and scan a
 * per-partition claim buffer. Same checks and messages as
 * expandLogicH, in the same order.
 */
HalfGates
referenceExpandLogicH(const MicroOp &op, const Geometry &geo)
{
    const uint32_t numPart = geo.partitions;
    panicIf(numPart > maxPartitions,
            "expandLogicH: geometry exceeds maxPartitions");
    HalfGates hg;
    hg.gate = op.gate;
    hg.numPartitions = numPart;

    const uint32_t pw = geo.partitionWidth();
    uint32_t pA = 0, iA = 0, pB = 0, iB = 0;
    bool hasA = false, hasB = false;
    panicIf(op.out >= geo.cols, "logicH: out column out of range");
    const uint32_t pOut = op.out / pw, iOut = op.out % pw;
    if (op.gate == Gate::Not || op.gate == Gate::Nor) {
        panicIf(op.inA >= geo.cols, "logicH: inA column out of range");
        pA = op.inA / pw;
        iA = op.inA % pw;
        hasA = true;
    }
    if (op.gate == Gate::Nor) {
        panicIf(op.inB >= geo.cols, "logicH: inB column out of range");
        pB = op.inB / pw;
        iB = op.inB % pw;
        hasB = true;
    }
    if (hasB) {
        const uint32_t lo = std::min(pA, pOut);
        const uint32_t hi = std::max(pA, pOut);
        panicIf(pB < lo || pB > hi,
                "logicH: inB partition " + std::to_string(pB) +
                    " outside the gate span [" + std::to_string(lo) +
                    ", " + std::to_string(hi) + "]");
    }
    uint32_t count = 1;
    if (op.pStep != 0 && op.pEnd != pOut) {
        panicIf(op.pEnd < pOut,
                "logicH: pEnd precedes the first gate's output");
        panicIf((op.pEnd - pOut) % op.pStep != 0,
                "logicH: pStep must divide pEnd - pOut");
        count = (op.pEnd - pOut) / op.pStep + 1;
    }
    hg.numGates = count;

    for (uint32_t k = 0; k < count; ++k) {
        const uint32_t shift = k * op.pStep;
        uint8_t fresh[maxPartitions] = {};
        auto claim = [&](uint32_t p, uint8_t bit) {
            panicIf(p >= numPart,
                    "logicH: repeated gate leaves the partition range");
            fresh[p] |= bit;
        };
        claim(pOut + shift, halfgate::out);
        if (hasA)
            claim(pA + shift, halfgate::inA);
        if (hasB)
            claim(pB + shift, halfgate::inB);
        for (uint32_t p = 0; p < numPart; ++p) {
            if (fresh[p] == 0)
                continue;
            panicIf(hg.opcodes[p] != 0,
                    "logicH: repeated gates overlap at partition " +
                        std::to_string(p));
            hg.opcodes[p] = fresh[p];
        }
    }

    const bool ltr = !hasA || pA <= pOut;
    for (uint32_t t = 0; t + 1 < numPart; ++t) {
        const bool cut = ltr ? (hg.opcodes[t] & halfgate::out) ||
                                   (hg.opcodes[t + 1] & halfgate::inA)
                             : (hg.opcodes[t] & halfgate::inA) ||
                                   (hg.opcodes[t + 1] & halfgate::out);
        hg.conducting[t] = !cut;
    }

    uint32_t begin = 0, activeSections = 0;
    for (uint32_t p = 0; p < numPart; ++p) {
        if (p + 1 != numPart && hg.conducting[p])
            continue;
        Section sec;
        sec.begin = begin;
        sec.end = p + 1;
        for (uint32_t q = begin; q <= p; ++q) {
            const uint8_t oc = hg.opcodes[q];
            if (oc & halfgate::inA) {
                panicIf(sec.numIn >= 2,
                        "logicH: more than two input halves in section");
                sec.inCol[sec.numIn++] = static_cast<int32_t>(q * pw + iA);
            }
            if (oc & halfgate::inB) {
                panicIf(sec.numIn >= 2,
                        "logicH: more than two input halves in section");
                sec.inCol[sec.numIn++] = static_cast<int32_t>(q * pw + iB);
            }
            if (oc & halfgate::out) {
                panicIf(sec.outCol >= 0,
                        "logicH: two output halves in one section");
                sec.outCol = static_cast<int32_t>(q * pw + iOut);
            }
        }
        if (sec.active()) {
            panicIf(sec.outCol < 0,
                    "logicH: input half-gate without an output half");
            const uint32_t arity =
                op.gate == Gate::Nor ? 2 : (op.gate == Gate::Not ? 1 : 0);
            panicIf(sec.numIn != arity,
                    "logicH: section input halves (" +
                        std::to_string(sec.numIn) + ") do not match gate "
                        "arity (" + std::to_string(arity) + ")");
            ++activeSections;
        }
        hg.sections[hg.numSections++] = sec;
        begin = p + 1;
    }
    panicIf(activeSections != count,
            "logicH: active sections (" + std::to_string(activeSections) +
                ") do not match encoded gate count (" +
                std::to_string(count) + ")");
    return hg;
}

/** Geometry with @p partitions partitions of 16 columns each. */
Geometry
fuzzGeometry(uint32_t partitions)
{
    Geometry g;
    g.partitions = partitions;
    g.wordBits = partitions;
    g.cols = partitions * 16;
    return g;
}

/** Outcome of one expansion: the result, or the panic message. */
struct Outcome
{
    bool threw = false;
    std::string what;
    HalfGates hg;
};

template <typename Expand>
Outcome
run(Expand expand, const MicroOp &op, const Geometry &g)
{
    Outcome o;
    try {
        o.hg = expand(op, g);
    } catch (const InternalError &e) {
        o.threw = true;
        o.what = e.what();
    }
    return o;
}

std::string
describe(const MicroOp &op, const Geometry &g)
{
    return "P=" + std::to_string(g.partitions) + " gate=" +
           gateName(op.gate) + " inA=" + std::to_string(op.inA) +
           " inB=" + std::to_string(op.inB) + " out=" +
           std::to_string(op.out) + " pEnd=" + std::to_string(op.pEnd) +
           " pStep=" + std::to_string(op.pStep);
}

/** Require @p a and @p b to be the same expansion or the same panic. */
void
expectSameOutcome(const Outcome &a, const Outcome &b,
                  const std::string &ctx)
{
    ASSERT_EQ(a.threw, b.threw) << ctx << ": " << a.what << b.what;
    if (a.threw) {
        EXPECT_EQ(a.what, b.what) << ctx;
        return;
    }
    EXPECT_EQ(a.hg.gate, b.hg.gate) << ctx;
    EXPECT_EQ(a.hg.numPartitions, b.hg.numPartitions) << ctx;
    EXPECT_EQ(a.hg.numGates, b.hg.numGates) << ctx;
    EXPECT_EQ(a.hg.opcodes, b.hg.opcodes) << ctx;
    EXPECT_EQ(a.hg.conducting, b.hg.conducting) << ctx;
    ASSERT_EQ(a.hg.numSections, b.hg.numSections) << ctx;
    for (uint32_t i = 0; i < a.hg.numSections; ++i) {
        const Section &x = a.hg.sections[i];
        const Section &y = b.hg.sections[i];
        EXPECT_EQ(x.begin, y.begin) << ctx;
        EXPECT_EQ(x.end, y.end) << ctx;
        EXPECT_EQ(x.outCol, y.outCol) << ctx;
        EXPECT_EQ(x.inCol, y.inCol) << ctx;
        EXPECT_EQ(x.numIn, y.numIn) << ctx;
    }
}

/**
 * Random LogicH op: half drawn structured (operands inside one gate
 * span, pEnd on the repetition grid) so most are valid, half drawn
 * from the raw encodable field ranges so most are malformed.
 */
MicroOp
randomLogicH(Rng &rng, const Geometry &g)
{
    const Gate gate = static_cast<Gate>(rng.word() % 4);
    const uint32_t P = g.partitions, pw = g.partitionWidth();
    if (rng.word() % 2) {
        // Raw fields; columns sometimes past the geometry.
        auto colAny = [&] { return rng.word() % (g.cols + pw); };
        return MicroOp::logicH(gate, colAny(), colAny(), colAny(),
                               rng.word() % 64, rng.word() % 64);
    }
    const uint32_t pA = rng.word() % P;
    const uint32_t pOut = rng.word() % P;
    const uint32_t lo = std::min(pA, pOut), hi = std::max(pA, pOut);
    // Occasionally push inB out of the span.
    const uint32_t pB = rng.word() % 8 == 0
                            ? rng.word() % P
                            : lo + rng.word() % (hi - lo + 1);
    const uint32_t pStep = rng.word() % 4 == 0 ? 0 : 1 + rng.word() % P;
    const uint32_t gates = 1 + rng.word() % (P + 1);
    uint32_t pEnd = pOut + (gates - 1) * pStep;
    if (rng.word() % 8 == 0)
        pEnd = rng.word() % 64;  // off the repetition grid
    return MicroOp::logicH(gate, pA * pw + rng.word() % pw,
                           pB * pw + rng.word() % pw,
                           pOut * pw + rng.word() % pw, pEnd % 64,
                           pStep % 64);
}

void
expectPanicMessage(const MicroOp &op, const Geometry &g,
                   const std::string &msg)
{
    const Outcome got = run(expandLogicH, op, g);
    ASSERT_TRUE(got.threw) << describe(op, g);
    EXPECT_EQ(got.what, "pypim internal error: " + msg);
    expectSameOutcome(got, run(referenceExpandLogicH, op, g),
                      describe(op, g));
}

} // namespace

TEST(Partition, FuzzMatchesReferenceExpansion)
{
    Rng rng(0x5EC7104);
    for (uint32_t P : {1u, 8u, 32u, 64u}) {
        const Geometry g = fuzzGeometry(P);
        uint32_t valid = 0, rejected = 0;
        for (int i = 0; i < 20000; ++i) {
            const MicroOp op = randomLogicH(rng, g);
            const Outcome fast = run(expandLogicH, op, g);
            const Outcome ref = run(referenceExpandLogicH, op, g);
            expectSameOutcome(fast, ref, describe(op, g));
            if (::testing::Test::HasFailure())
                return;
            (fast.threw ? rejected : valid)++;
        }
        // Both sides of the comparison are exercised on every geometry.
        EXPECT_GT(valid, 1000u) << "P=" << P;
        EXPECT_GT(rejected, 1000u) << "P=" << P;
    }
}

TEST(Partition, PanicMessageOverlap)
{
    // Gate 0 claims partitions {0, 1}, gate 1 claims {1, 2}.
    expectPanicMessage(
        MicroOp::logicH(Gate::Nor, col(0, 0), col(1, 1), col(1, 3), 2, 1),
        geo(), "logicH: repeated gates overlap at partition 1");
}

TEST(Partition, PanicMessageSpan)
{
    expectPanicMessage(
        MicroOp::logicH(Gate::Nor, col(2, 0), col(9, 1), col(5, 3), 5, 0),
        geo(), "logicH: inB partition 9 outside the gate span [2, 5]");
}

TEST(Partition, PanicMessageArity)
{
    // Right-to-left NOR with inB under the output: the second gate's
    // output cuts the first gate's section down to {inB, out}.
    expectPanicMessage(
        MicroOp::logicH(Gate::Nor, col(2, 0), col(0, 1), col(0, 3), 1, 1),
        geo(),
        "logicH: section input halves (1) do not match gate arity (2)");
}

TEST(Partition, PanicMessagePartitionRange)
{
    expectPanicMessage(
        MicroOp::logicH(Gate::Nor, col(0, 0), col(0, 1), col(0, 2), 33, 1),
        geo(), "logicH: repeated gate leaves the partition range");
}

TEST(Partition, PanicMessageInputWithoutOutput)
{
    // Left-to-right NOR at stride 1 with inputs one partition ahead of
    // the output: the second gate's inA cuts the first gate's inputs
    // off from its output.
    expectPanicMessage(
        MicroOp::logicH(Gate::Nor, col(0, 0), col(0, 1), col(2, 3), 3, 1),
        geo(), "logicH: input half-gate without an output half");
}

TEST(Partition, PanicMessagePEndBeforeOutput)
{
    expectPanicMessage(
        MicroOp::logicH(Gate::Nor, col(4, 0), col(4, 1), col(4, 2), 3, 1),
        geo(), "logicH: pEnd precedes the first gate's output");
}

TEST(Partition, PanicMessageColumnRange)
{
    Geometry g = fuzzGeometry(8);  // 128 columns
    expectPanicMessage(MicroOp::logicH(Gate::Not, 200, 0, 3, 0, 0), g,
                       "logicH: inA column out of range");
}

TEST(Partition, ActiveSectionsMatchGateCount)
{
    // The section-count panic is a backstop no op reaches once the
    // earlier checks pass: outputs of distinct gates never share a
    // partition (overlap check), a section holds at most one output,
    // and every active section holds one. So the count of active
    // sections is numGates on every accepted op, and the fuzz never
    // sees that message.
    Rng rng(0xC0FFEE);
    for (uint32_t P : {1u, 8u, 32u, 64u}) {
        const Geometry g = fuzzGeometry(P);
        for (int i = 0; i < 5000; ++i) {
            const MicroOp op = randomLogicH(rng, g);
            const Outcome o = run(expandLogicH, op, g);
            if (o.threw) {
                EXPECT_EQ(o.what.find("active sections"),
                          std::string::npos)
                    << describe(op, g);
                continue;
            }
            uint32_t active = 0;
            for (uint32_t s = 0; s < o.hg.numSections; ++s)
                active += o.hg.sections[s].active() ? 1 : 0;
            EXPECT_EQ(active, o.hg.numGates) << describe(op, g);
        }
    }
}
