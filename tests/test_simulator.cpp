/**
 * @file
 * Simulator-level tests: mask state machine, broadcast semantics,
 * read/write constraints, moves, and statistics (paper §III, §VI).
 */
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "pim_test_util.hpp"

using namespace pypim;
using pypim::test::PimFixture;

namespace
{

class SimulatorTest : public PimFixture
{
};

} // namespace

TEST_F(SimulatorTest, WriteBroadcastsAcrossMaskedWarpsAndRows)
{
    sim.perform(MicroOp::crossbarMask(Range(0, 2, 2)));
    sim.perform(MicroOp::rowMask(Range(4, 12, 4)));
    sim.perform(MicroOp::write(3, 0xABCD1234));
    for (uint32_t xb : {0u, 2u}) {
        EXPECT_EQ(peekWord(xb, 4, 3), 0xABCD1234u);
        EXPECT_EQ(peekWord(xb, 8, 3), 0xABCD1234u);
        EXPECT_EQ(peekWord(xb, 12, 3), 0xABCD1234u);
        EXPECT_EQ(peekWord(xb, 5, 3), 0u);
    }
    EXPECT_EQ(peekWord(1, 4, 3), 0u) << "unmasked crossbar written";
    EXPECT_EQ(peekWord(3, 8, 3), 0u);
}

TEST_F(SimulatorTest, ReadRequiresSingleWarpSingleRow)
{
    sim.perform(MicroOp::crossbarMask(Range::all(geo.numCrossbars)));
    sim.perform(MicroOp::rowMask(Range::single(0)));
    EXPECT_THROW(sim.read(MicroOp::read(0)), Error);
    sim.perform(MicroOp::crossbarMask(Range::single(1)));
    sim.perform(MicroOp::rowMask(Range::all(geo.rows)));
    EXPECT_THROW(sim.read(MicroOp::read(0)), Error);
}

TEST_F(SimulatorTest, ReadReturnsWrittenValue)
{
    pokeWord(2, 7, 5, 0xFEEDF00D);
    sim.perform(MicroOp::crossbarMask(Range::single(2)));
    sim.perform(MicroOp::rowMask(Range::single(7)));
    EXPECT_EQ(sim.read(MicroOp::read(5)), 0xFEEDF00Du);
}

TEST_F(SimulatorTest, LogicBroadcastsToMaskedCrossbarsOnly)
{
    for (uint32_t xb = 0; xb < geo.numCrossbars; ++xb)
        pokeWord(xb, 0, 2, 0xFFFFFFFF);
    sim.perform(MicroOp::crossbarMask(Range(1, 3, 2)));
    sim.perform(MicroOp::rowMask(Range::all(geo.rows)));
    // INIT0 slot 2 across all partitions.
    sim.perform(MicroOp::logicH(Gate::Init0, 0, 0, geo.column(2, 0),
                                geo.partitions - 1, 1));
    EXPECT_EQ(peekWord(0, 0, 2), 0xFFFFFFFFu);
    EXPECT_EQ(peekWord(1, 0, 2), 0u);
    EXPECT_EQ(peekWord(2, 0, 2), 0xFFFFFFFFu);
    EXPECT_EQ(peekWord(3, 0, 2), 0u);
}

TEST_F(SimulatorTest, MoveTransfersBetweenCrossbars)
{
    pokeWord(0, 9, 4, 111);
    pokeWord(1, 9, 4, 222);
    sim.perform(MicroOp::crossbarMask(Range(0, 1, 1)));
    // dstStart = 2: crossbar 0 -> 2, crossbar 1 -> 3.
    sim.perform(MicroOp::move(2, 9, 30, 4, 6));
    EXPECT_EQ(peekWord(2, 30, 6), 111u);
    EXPECT_EQ(peekWord(3, 30, 6), 222u);
}

TEST_F(SimulatorTest, MoveOverlappingShiftChain)
{
    // Read-all-then-write-all: shifting a chain by one crossbar must
    // not cascade the first value through the chain.
    pokeWord(0, 0, 0, 10);
    pokeWord(1, 0, 0, 20);
    pokeWord(2, 0, 0, 30);
    sim.perform(MicroOp::crossbarMask(Range(0, 2, 1)));
    sim.perform(MicroOp::move(1, 0, 0, 0, 0));
    EXPECT_EQ(peekWord(1, 0, 0), 10u);
    EXPECT_EQ(peekWord(2, 0, 0), 20u);
    EXPECT_EQ(peekWord(3, 0, 0), 30u);
}

TEST_F(SimulatorTest, MoveRejectsNonPow4Step)
{
    sim.perform(MicroOp::crossbarMask(Range(0, 3, 3)));
    EXPECT_THROW(sim.perform(MicroOp::move(1, 0, 0, 0, 0)), Error);
}

TEST_F(SimulatorTest, MoveRejectsOutOfRangeDestination)
{
    sim.perform(MicroOp::crossbarMask(Range::single(3)));
    EXPECT_THROW(sim.perform(MicroOp::move(4, 0, 0, 0, 0)), Error);
}

TEST_F(SimulatorTest, StatsCountOpsByClass)
{
    sim.stats().clear();
    sim.perform(MicroOp::crossbarMask(Range::all(geo.numCrossbars)));
    sim.perform(MicroOp::rowMask(Range::all(geo.rows)));
    sim.perform(MicroOp::write(0, 42));
    sim.perform(MicroOp::logicH(Gate::Init1, 0, 0, geo.column(1, 0),
                                geo.partitions - 1, 1));
    sim.perform(MicroOp::logicV(Gate::Init1, 0, 1, 0));
    const Stats &s = sim.stats();
    EXPECT_EQ(s.opCount[size_t(OpClass::CrossbarMask)], 1u);
    EXPECT_EQ(s.opCount[size_t(OpClass::RowMask)], 1u);
    EXPECT_EQ(s.opCount[size_t(OpClass::Write)], 1u);
    EXPECT_EQ(s.opCount[size_t(OpClass::LogicH)], 1u);
    EXPECT_EQ(s.opCount[size_t(OpClass::LogicV)], 1u);
    EXPECT_EQ(s.totalOps(), 5u);
    EXPECT_EQ(s.totalCycles(), 5u);
}

TEST_F(SimulatorTest, MoveCyclesUseHTreeModel)
{
    sim.stats().clear();
    pokeWord(0, 0, 0, 1);
    sim.perform(MicroOp::crossbarMask(Range::single(0)));
    sim.perform(MicroOp::move(1, 0, 0, 0, 0));  // level-1 transfer
    EXPECT_EQ(sim.stats().cycleCount[size_t(OpClass::Move)], 2u);
}

TEST_F(SimulatorTest, BatchInterfaceMatchesDecodedPath)
{
    std::vector<Word> ops = {
        MicroOp::crossbarMask(Range::single(1)).encode(),
        MicroOp::rowMask(Range::single(6)).encode(),
        MicroOp::write(2, 777).encode(),
    };
    sim.performBatch(ops.data(), ops.size());
    EXPECT_EQ(peekWord(1, 6, 2), 777u);
    EXPECT_EQ(sim.performRead(enc::read(2)), 777u);
}

TEST_F(SimulatorTest, VerticalOpAppliesToMaskedCrossbars)
{
    pokeWord(0, 3, 1, 0x0000BEEF);
    pokeWord(1, 3, 1, 0x0000BEEF);
    sim.perform(MicroOp::crossbarMask(Range::single(0)));
    sim.perform(MicroOp::logicV(Gate::Init1, 0, 50, 1));
    sim.perform(MicroOp::logicV(Gate::Not, 3, 50, 1));
    EXPECT_EQ(peekWord(0, 50, 1), ~0x0000BEEFu);
    EXPECT_EQ(peekWord(1, 50, 1), 0u) << "unmasked crossbar affected";
}

TEST_F(SimulatorTest, GeometryValidationRejectsBadConfigs)
{
    Geometry g = testGeometry();
    g.numCrossbars = 8;  // not a power of four
    EXPECT_THROW(Simulator s(g), Error);
    g = testGeometry();
    g.wordBits = 16;  // must equal partitions
    EXPECT_THROW(Simulator s(g), Error);
    g = testGeometry();
    g.userRegs = 31;  // leaves < 4 scratch slots
    EXPECT_THROW(Simulator s(g), Error);
}

TEST_F(SimulatorTest, GeometryValidationRejectsWordsWiderThanTheHostWord)
{
    // 64 partitions of 16 columns pass every other check, but a row's
    // value is a uint32_t on every host path (read, writeRow, the
    // bulk tiles), so bits 32..63 would need shifts past its width.
    Geometry g = testGeometry();
    g.partitions = 64;
    g.wordBits = 64;
    g.userRegs = 12;
    try {
        g.validate();
        FAIL() << "wordBits = 64 passed validate()";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("32-bit host word"),
                  std::string::npos)
            << e.what();
    }
    g.partitions = 32;
    g.wordBits = 32;
    EXPECT_NO_THROW(g.validate());
}
