/**
 * @file
 * Driver stream-cache tests: replayed streams must be byte-identical
 * to fresh translations, produce identical simulator state, keep the
 * mask bookkeeping consistent, and respect mode/partition switches in
 * the signature. Plus failure-injection tests for malformed
 * micro-operation streams fed directly to the simulator.
 */
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "pim/pypim.hpp"
#include "pim_test_util.hpp"

using namespace pypim;
using pypim::test::DriverFixture;

namespace
{

class StreamCacheTest : public DriverFixture
{
  protected:
    StreamCacheTest() : DriverFixture(Driver::Mode::Serial) {}
};

} // namespace

TEST_F(StreamCacheTest, ReplayMatchesFreshTranslation)
{
    std::vector<uint32_t> va(threads()), vb(threads());
    for (uint32_t i = 0; i < threads(); ++i) {
        va[i] = rng.word();
        vb[i] = rng.word();
    }
    loadReg(0, va);
    loadReg(1, vb);
    // First execution records; second replays from the cache.
    run(ROp::Mul, DType::Int32, 2, 0, 1);
    const auto first = readReg(2);
    EXPECT_EQ(drv.streamCacheSize(), 1u);
    // Change the data: the replayed stream must compute on new values.
    for (auto &x : va)
        x ^= 0xA5A5A5A5u;
    loadReg(0, va);
    run(ROp::Mul, DType::Int32, 2, 0, 1);
    EXPECT_EQ(drv.streamCacheSize(), 1u) << "same signature must hit";
    const auto second = readReg(2);
    for (uint32_t i = 0; i < threads(); ++i)
        ASSERT_EQ(second[i], va[i] * vb[i]) << "thread " << i;
    (void)first;
}

TEST_F(StreamCacheTest, CachedAndUncachedStreamsAgree)
{
    std::vector<uint32_t> va(threads()), vb(threads());
    for (uint32_t i = 0; i < threads(); ++i) {
        va[i] = rng.word();
        vb[i] = rng.word() | 1;
    }
    loadReg(0, va);
    loadReg(1, vb);
    run(ROp::Div, DType::Int32, 2, 0, 1);   // cached path
    drv.setStreamCacheEnabled(false);
    run(ROp::Div, DType::Int32, 3, 0, 1);   // fresh path
    EXPECT_EQ(readReg(2), readReg(3));
}

TEST_F(StreamCacheTest, DistinctSignaturesDistinctEntries)
{
    loadReg(0, std::vector<uint32_t>(threads(), 5));
    loadReg(1, std::vector<uint32_t>(threads(), 3));
    run(ROp::Add, DType::Int32, 2, 0, 1);
    run(ROp::Add, DType::Int32, 3, 0, 1);   // different rd
    run(ROp::Sub, DType::Int32, 4, 0, 1);   // different op
    RTypeInstr in;
    in.op = ROp::Add;
    in.dtype = DType::Int32;
    in.rd = 2;
    in.ra = 0;
    in.rb = 1;
    in.warps = Range::single(1);            // different masks
    in.rows = Range::all(geo.rows);
    drv.execute(in);
    EXPECT_EQ(drv.streamCacheSize(), 4u);
}

TEST_F(StreamCacheTest, ExportIsIndependentOfInsertionOrder)
{
    // Two signatures that differ only in the warp step: the export
    // must order them by that field too, or the blob's bytes depend on
    // the unordered_map's iteration (insertion) order.
    RTypeInstr a;
    a.op = ROp::BitXor;
    a.dtype = DType::Int32;
    a.rd = 2;
    a.ra = 0;
    a.rb = 1;
    a.warps = Range(0, 3, 1);
    a.rows = Range::all(geo.rows);
    RTypeInstr b = a;
    b.warps = Range(0, 3, 3);
    drv.execute(a);
    drv.execute(b);
    Simulator sim2(geo);
    Driver drv2(sim2, geo, Driver::Mode::Serial);
    drv2.execute(b);
    drv2.execute(a);
    ASSERT_EQ(drv.streamCacheSize(), 2u);
    EXPECT_EQ(drv.exportStreamCache(), drv2.exportStreamCache());
}

TEST_F(StreamCacheTest, ModeChangesMissTheCache)
{
    loadReg(0, std::vector<uint32_t>(threads(), 1000));
    loadReg(1, std::vector<uint32_t>(threads(), 999));
    run(ROp::Add, DType::Int32, 2, 0, 1);
    drv.setMode(Driver::Mode::Parallel);
    run(ROp::Add, DType::Int32, 2, 0, 1);
    EXPECT_EQ(drv.streamCacheSize(), 2u);
    EXPECT_EQ(readReg(2),
              std::vector<uint32_t>(threads(), 1999u));
}

TEST_F(StreamCacheTest, MaskStateConsistentAfterReplay)
{
    loadReg(0, std::vector<uint32_t>(threads(), 2));
    loadReg(1, std::vector<uint32_t>(threads(), 3));
    // Masked instruction, twice (second replays), then a read that
    // depends on correct mask bookkeeping in the builder.
    RTypeInstr in;
    in.op = ROp::Add;
    in.dtype = DType::Int32;
    in.rd = 2;
    in.ra = 0;
    in.rb = 1;
    in.warps = Range::single(2);
    in.rows = Range(4, 20, 8);
    drv.execute(in);
    drv.execute(in);
    ReadInstr rd;
    rd.reg = 2;
    rd.warp = 2;
    rd.row = 12;
    EXPECT_EQ(drv.execute(rd), 5u);
    // Unselected thread untouched.
    rd.row = 5;
    EXPECT_EQ(drv.execute(rd), 0u);
    // A subsequent full-mask instruction must re-emit masks correctly.
    run(ROp::Add, DType::Int32, 3, 0, 1);
    EXPECT_EQ(readReg(3), std::vector<uint32_t>(threads(), 5u));
}

TEST_F(StreamCacheTest, TraceCacheHitsReplayPrebuiltTraces)
{
    // The trace cache is on by default: the first execution of a
    // signature builds (one miss), every further execution submits
    // the shared pre-built handle (hits) — and still computes on the
    // live data.
    std::vector<uint32_t> va(threads()), vb(threads());
    for (uint32_t i = 0; i < threads(); ++i) {
        va[i] = rng.word();
        vb[i] = rng.word();
    }
    loadReg(0, va);
    loadReg(1, vb);
    ASSERT_TRUE(drv.traceCacheEnabled());
    run(ROp::Add, DType::Int32, 2, 0, 1);
    EXPECT_EQ(drv.stats().traceCacheMisses, 1u);
    EXPECT_EQ(drv.stats().traceCacheHits, 0u);
    for (auto &x : va)
        x = ~x;
    loadReg(0, va);
    run(ROp::Add, DType::Int32, 2, 0, 1);
    run(ROp::Add, DType::Int32, 2, 0, 1);
    EXPECT_EQ(drv.stats().traceCacheMisses, 1u);
    EXPECT_EQ(drv.stats().traceCacheHits, 2u);
    const auto out = readReg(2);
    for (uint32_t i = 0; i < threads(); ++i)
        ASSERT_EQ(out[i], va[i] + vb[i]) << "thread " << i;
}

TEST_F(StreamCacheTest, TraceCacheDisabledFallsBackToStreams)
{
    drv.setTraceCacheEnabled(false);
    loadReg(0, std::vector<uint32_t>(threads(), 21));
    loadReg(1, std::vector<uint32_t>(threads(), 2));
    run(ROp::Mul, DType::Int32, 2, 0, 1);
    run(ROp::Mul, DType::Int32, 2, 0, 1);
    EXPECT_EQ(drv.stats().traceCacheMisses, 0u);
    EXPECT_EQ(drv.stats().traceCacheHits, 0u);
    EXPECT_EQ(readReg(2), std::vector<uint32_t>(threads(), 42u));
    // Enabling later builds the trace lazily on the next hit.
    drv.setTraceCacheEnabled(true);
    run(ROp::Mul, DType::Int32, 2, 0, 1);
    EXPECT_EQ(drv.stats().traceCacheMisses, 1u);
    EXPECT_EQ(readReg(2), std::vector<uint32_t>(threads(), 42u));
}

TEST(TraceCacheDevice, EngineConfigKnobReachesDriver)
{
    const Geometry g = testGeometry();
    EngineConfig off;
    off.traceCache = false;
    Device devOff(g, Driver::Mode::Serial, off);
    EXPECT_FALSE(devOff.driver().traceCacheEnabled());
    Device devOn(g, Driver::Mode::Serial, EngineConfig::serial());
    EXPECT_TRUE(devOn.driver().traceCacheEnabled());
}

TEST(TraceCacheDevice, ThreadedCachedRepliesMatchSerial)
{
    // Warm-cache replay on two threads: repeated instructions replay
    // shared trace handles; results must match the one-thread
    // device.
    const Geometry g = testGeometry();
    Device serial(g, Driver::Mode::Parallel, EngineConfig::serial());
    Device sharded(g, Driver::Mode::Parallel, EngineConfig{}.withThreads(2));
    const uint64_t n = g.rows * g.numCrossbars;
    std::vector<int32_t> a(n), b(n);
    for (uint64_t i = 0; i < n; ++i) {
        a[i] = static_cast<int32_t>(i * 2654435761u);
        b[i] = static_cast<int32_t>(i * 40503u + 9);
    }
    for (Device *dev : {&serial, &sharded}) {
        Tensor ta = Tensor::fromVector(a, dev);
        Tensor tb = Tensor::fromVector(b, dev);
        Tensor s = ta + tb;
        for (int rep = 0; rep < 4; ++rep)
            s = s * tb;  // same signature: warm trace-cache hits
        const std::vector<int32_t> out = s.toIntVector();
        std::vector<int32_t> expect(n);
        for (uint64_t i = 0; i < n; ++i) {
            int32_t v = a[i] + b[i];
            for (int rep = 0; rep < 4; ++rep)
                v = static_cast<int32_t>(
                    static_cast<int64_t>(v) * b[i]);
            expect[i] = v;
        }
        EXPECT_EQ(out, expect);
    }
}

TEST(TraceCacheDevice, ShardedWarmHitsGoThroughSharedHandles)
{
    const Geometry g = testGeometry();
    Device dev(g, Driver::Mode::Parallel, EngineConfig{}.withThreads(2));
    RTypeInstr in;
    in.op = ROp::Mul;
    in.dtype = DType::Int32;
    in.rd = 2;
    in.ra = 0;
    in.rb = 1;
    in.warps = Range::all(g.numCrossbars);
    in.rows = Range::all(g.rows);
    for (int i = 0; i < 5; ++i)
        dev.driver().execute(in);
    dev.flush();
    EXPECT_EQ(dev.driver().stats().traceCacheMisses, 1u);
    EXPECT_EQ(dev.driver().stats().traceCacheHits, 4u);
}

TEST(TraceCacheDevice, ClearAfterWarmHitsReRecords)
{
    // Clearing the driver's cache after a run of warm hits keeps the
    // results they produced, and the next execution re-records (a
    // fresh miss).
    const Geometry g = testGeometry();
    Device sharded(g, Driver::Mode::Serial, EngineConfig{}.withThreads(2));
    Device oracle(g, Driver::Mode::Serial, EngineConfig::serial());
    const uint64_t n = g.rows * g.numCrossbars;
    std::vector<uint32_t> a(n), b(n);
    for (uint64_t i = 0; i < n; ++i) {
        a[i] = static_cast<uint32_t>(i * 2654435761u);
        b[i] = static_cast<uint32_t>(i * 40503u + 9);
    }
    RTypeInstr in;
    in.op = ROp::Mul;
    in.dtype = DType::Int32;
    in.rd = 2;
    in.ra = 0;
    in.rb = 1;
    in.warps = Range::all(g.numCrossbars);
    in.rows = Range::all(g.rows);
    for (Device *dev : {&sharded, &oracle}) {
        for (uint32_t w = 0; w < g.numCrossbars; ++w)
            for (uint32_t r = 0; r < g.rows; ++r) {
                dev->simulator().crossbar(w).writeRow(
                    0, a[w * g.rows + r], r);
                dev->simulator().crossbar(w).writeRow(
                    1, b[w * g.rows + r], r);
            }
    }
    // Several warm hits, then clear the cache — no flush.
    for (int i = 0; i < 6; ++i)
        sharded.driver().execute(in);
    sharded.driver().clearStreamCache();
    EXPECT_EQ(sharded.driver().streamCacheSize(), 0u);
    oracle.driver().execute(in);
    for (uint32_t w = 0; w < g.numCrossbars; ++w)
        ASSERT_TRUE(sharded.simulator().crossbar(w).sameState(
            oracle.simulator().crossbar(w)))
            << "crossbar " << w;
    // Next execution of the same signature re-records: a fresh miss.
    const uint64_t misses = sharded.driver().stats().traceCacheMisses;
    sharded.driver().execute(in);
    sharded.flush();
    EXPECT_EQ(sharded.driver().stats().traceCacheMisses, misses + 1);
}

namespace
{

class FailureInjection : public pypim::test::PimFixture
{
};

} // namespace

TEST_F(FailureInjection, ForgottenInitComputesDeviceAccurateGarbage)
{
    // Stateful logic can only switch 1 -> 0: NOR into a stale-0 cell
    // must stay 0 even when the true NOR value is 1.
    const uint32_t a = builder.pool().allocBitIn(0);
    const uint32_t b = builder.pool().allocBitIn(1);
    const uint32_t out = builder.pool().allocBitIn(2);
    sim.crossbar(0).setBit(0, a, false);
    sim.crossbar(0).setBit(0, b, false);
    sim.crossbar(0).setBit(0, out, false);  // stale 0, no INIT
    builder.norInto(a, b, out, /*init=*/false);
    builder.flush();
    EXPECT_FALSE(peekCell(0, 0, out))
        << "missing INIT must yield device-accurate garbage, not NOR";
}

TEST_F(FailureInjection, MalformedPartitionPatternsPanic)
{
    const uint32_t pw = geo.partitionWidth();
    // Inner input outside the gate span.
    sim.perform(MicroOp::rowMask(Range::all(geo.rows)));
    EXPECT_THROW(sim.perform(MicroOp::logicH(Gate::Nor, 1 * pw, 9 * pw,
                                             5 * pw, 5, 0)),
                 InternalError);
    // Overlapping repetition.
    EXPECT_THROW(sim.perform(MicroOp::logicH(Gate::Nor, 0, 2 * pw,
                                             2 * pw, 30, 2)),
                 InternalError);
    // Repetition leaving the partition range.
    EXPECT_THROW(sim.perform(MicroOp::logicH(Gate::Nor, 0, 1, 2,
                                             40, 1)),
                 InternalError);
}

TEST_F(FailureInjection, IllegalMaskStatesAreUserErrors)
{
    // Reads with wide masks, out-of-range masks, bad move steps: all
    // fatal (user-class) errors, not internal panics.
    sim.perform(MicroOp::crossbarMask(Range::all(geo.numCrossbars)));
    sim.perform(MicroOp::rowMask(Range::all(geo.rows)));
    EXPECT_THROW(sim.read(MicroOp::read(0)), Error);
    EXPECT_THROW(sim.perform(MicroOp::rowMask(
                     Range(0, geo.rows, 1))), Error);
    EXPECT_THROW(sim.perform(MicroOp::crossbarMask(
                     Range(0, geo.numCrossbars, 1))), Error);
    sim.perform(MicroOp::crossbarMask(Range(0, 3, 3)));
    EXPECT_THROW(sim.perform(MicroOp::move(1, 0, 0, 0, 0)), Error);
}

TEST_F(FailureInjection, SimulatorStateSurvivesRejectedOps)
{
    pokeWord(1, 3, 0, 0xCAFEF00D);
    try {
        sim.perform(MicroOp::logicH(Gate::Nor, 0, 300, 150, 4, 0));
    } catch (const InternalError &) {
    }
    EXPECT_EQ(peekWord(1, 3, 0), 0xCAFEF00Du)
        << "rejected op must not corrupt memory";
    // The simulator still works afterwards.
    sim.perform(MicroOp::crossbarMask(Range::single(1)));
    sim.perform(MicroOp::rowMask(Range::single(3)));
    EXPECT_EQ(sim.read(MicroOp::read(0)), 0xCAFEF00Du);
}
