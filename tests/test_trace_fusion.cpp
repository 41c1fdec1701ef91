/**
 * @file
 * Directed tests for the trace cache and the window fusion pass
 * (sim/batch_trace.hpp): WAW dead-store elimination, INIT1 chain
 * merging and windowed INIT1->NOR/NOT fusion must fire exactly on the
 * legal patterns (counters checked), never on the alias/conflict
 * negatives, and every prepared trace — fused or not — must replay
 * bit-identically to the op-major oracle, repeatedly, at one and two
 * replay threads.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "driver/driver.hpp"
#include "sim/batch_trace.hpp"
#include "sim/htree.hpp"
#include "sim/simulator.hpp"

using namespace pypim;

namespace
{

Geometry
fusionGeometry()
{
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    return g;
}

/** Self-contained stream: full masks first, then the body. */
std::vector<Word>
withMasks(const Geometry &g, std::vector<Word> body)
{
    std::vector<Word> ops = {
        MicroOp::crossbarMask(Range::all(g.numCrossbars)).encode(),
        MicroOp::rowMask(Range::all(g.rows)).encode(),
    };
    ops.insert(ops.end(), body.begin(), body.end());
    return ops;
}

/**
 * Decode (and with @p fuse, window-fuse) a self-contained stream the
 * way prepareTrace does, stopping before the compile that frees the
 * segment arenas these tests inspect.
 */
BatchTrace
decodedTrace(const Geometry &g, const std::vector<Word> &ops, bool fuse)
{
    const HTree htree(g.numCrossbars);
    MaskState mask;
    mask.reset(g);
    BatchTrace trace;
    buildBatchTrace(ops.data(), ops.size(), g, htree, mask, trace);
    if (fuse)
        fuseBatchTrace(trace, g);
    return trace;
}

void
seedState(Simulator &a, Simulator &b, uint64_t seed)
{
    const Geometry &g = a.geometry();
    Rng rng(seed);
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
        for (uint32_t row = 0; row < g.rows; ++row)
            for (uint32_t slot = 0; slot < g.slots(); ++slot) {
                const uint32_t v = rng.word();
                a.crossbar(xb).writeRow(slot, v, row);
                b.crossbar(xb).writeRow(slot, v, row);
            }
}

::testing::AssertionResult
sameCrossbarState(const Simulator &a, const Simulator &b)
{
    for (uint32_t xb = 0; xb < a.geometry().numCrossbars; ++xb)
        if (!a.crossbar(xb).sameState(b.crossbar(xb)))
            return ::testing::AssertionFailure()
                   << "crossbar " << xb << " state diverged";
    return ::testing::AssertionSuccess();
}

/**
 * Prepare the stream fused and unfused, check the fusion counters,
 * and assert both replay bit-identically to the serial oracle (state
 * and architectural stats).
 */
void
expectFusionParity(const std::vector<Word> &ops, uint64_t waw,
                   uint64_t initChain, uint64_t window,
                   uint64_t writeStripe = 0)
{
    const Geometry g = fusionGeometry();
    Simulator oracle(g);
    for (const bool fuse : {false, true}) {
        Simulator cand(g);
        seedState(oracle, cand, 99);
        const auto trace =
            cand.prepareTrace(ops.data(), ops.size(), fuse);
        ASSERT_TRUE(trace != nullptr);
        if (fuse) {
            EXPECT_EQ(trace->fusion.waw, waw);
            EXPECT_EQ(trace->fusion.initChain, initChain);
            EXPECT_EQ(trace->fusion.window, window);
            EXPECT_EQ(trace->fusion.writeStripe, writeStripe);
        } else {
            EXPECT_EQ(trace->fusion.waw, 0u);
            EXPECT_EQ(trace->fusion.initChain, 0u);
            EXPECT_EQ(trace->fusion.window, 0u);
            EXPECT_EQ(trace->fusion.writeStripe, 0u);
        }
        oracle.performBatch(ops.data(), ops.size());
        cand.submitTrace(trace);
        EXPECT_TRUE(sameCrossbarState(oracle, cand))
            << (fuse ? "fused" : "unfused");
        EXPECT_EQ(oracle.stats(), cand.stats())
            << (fuse ? "fused" : "unfused");
        EXPECT_EQ(oracle.crossbarMask(), cand.crossbarMask());
        EXPECT_EQ(oracle.rowMask(), cand.rowMask());
        oracle.stats().clear();
    }
}

Word
laneInit1(const Geometry &g, uint32_t slot)
{
    return MicroOp::logicH(Gate::Init1, 0, 0, g.column(slot, 0),
                           g.partitions - 1, 1)
        .encode();
}

Word
laneNor(const Geometry &g, uint32_t a, uint32_t b, uint32_t out)
{
    return MicroOp::logicH(Gate::Nor, g.column(a, 0), g.column(b, 0),
                           g.column(out, 0), g.partitions - 1, 1)
        .encode();
}

/**
 * The driver's self-contained stream of one full-mask fp32 @p op at
 * @p g (stream cache on, trace cache off: the recorded stream reaches
 * the sink as one batch).
 */
std::vector<Word>
fp32Stream(const Geometry &g, ROp op)
{
    StreamRecorder cap;
    Driver drv(cap, g, Driver::Mode::Parallel);
    drv.setTraceCacheEnabled(false);
    RTypeInstr in;
    in.op = op;
    in.dtype = DType::Float32;
    in.rd = 2;
    in.ra = 0;
    in.rb = 1;
    in.warps = Range::all(g.numCrossbars);
    in.rows = Range::all(g.rows);
    drv.execute(in);
    return cap.ops;
}

} // namespace

TEST(TraceFusion, WawSameSlotEliminated)
{
    const Geometry g = fusionGeometry();
    expectFusionParity(
        withMasks(g, {MicroOp::write(2, 0x11111111u).encode(),
                      MicroOp::write(2, 0x22222222u).encode(),
                      MicroOp::write(2, 0x33333333u).encode()}),
        /*waw=*/2, 0, 0);
}

TEST(TraceFusion, WawWiderMasksCoverNarrower)
{
    const Geometry g = fusionGeometry();
    // Narrow write (strided rows, two crossbars) then a full-mask
    // write to the same slot: the narrow one is dead.
    expectFusionParity(
        withMasks(g,
                  {MicroOp::rowMask(Range(2, g.rows - 2, 4)).encode(),
                   MicroOp::crossbarMask(Range(0, 2, 2)).encode(),
                   MicroOp::write(5, 0xAAAA5555u).encode(),
                   MicroOp::rowMask(Range::all(g.rows)).encode(),
                   MicroOp::crossbarMask(
                       Range::all(g.numCrossbars)).encode(),
                   MicroOp::write(5, 0x12345678u).encode()}),
        /*waw=*/1, 0, 0);
}

TEST(TraceFusion, WawNarrowerMasksDoNotEliminate)
{
    const Geometry g = fusionGeometry();
    // Full write then a narrower write: rows outside the second mask
    // must keep the first value, so nothing may be eliminated.
    expectFusionParity(
        withMasks(g,
                  {MicroOp::write(5, 0xAAAA5555u).encode(),
                   MicroOp::rowMask(Range(0, g.rows / 2 - 1, 1))
                       .encode(),
                   MicroOp::write(5, 0x12345678u).encode()}),
        /*waw=*/0, 0, 0);
}

TEST(TraceFusion, WawBlockedByInterveningReader)
{
    const Geometry g = fusionGeometry();
    // The NOR reads slot 2 between the writes: the first write is
    // observed and must survive.
    expectFusionParity(
        withMasks(g, {MicroOp::write(2, 0x0F0F0F0Fu).encode(),
                      laneInit1(g, 6),
                      laneNor(g, 2, 3, 6),
                      MicroOp::write(2, 0xF0F0F0F0u).encode()}),
        /*waw=*/0, 0, 0);
}

TEST(TraceFusion, InitChainsMerge)
{
    const Geometry g = fusionGeometry();
    // Three full INIT1 lanes on independent slots under one mask: a
    // full lane is one section per partition, so merging two fills
    // the 64-section half-gate arena exactly — the pair merges, the
    // third op survives on the capacity guard.
    expectFusionParity(withMasks(g, {laneInit1(g, 3), laneInit1(g, 4),
                                     laneInit1(g, 7)}),
                       0, /*initChain=*/1, 0);
}

TEST(TraceFusion, PartialInitChainsMergeFully)
{
    const Geometry g = fusionGeometry();
    // Quarter-lane INITs (8 sections each) fit the arena three deep:
    // both earlier ops fold into the last.
    const auto partialInit = [&](uint32_t slot) {
        return MicroOp::logicH(Gate::Init1, 0, 0, g.column(slot, 0),
                               7, 1)
            .encode();
    };
    expectFusionParity(withMasks(g, {partialInit(3), partialInit(4),
                                     partialInit(7)}),
                       0, /*initChain=*/2, 0);
}

TEST(TraceFusion, InitChainMergedOpsReplayOnce)
{
    const Geometry g = fusionGeometry();
    const auto ops =
        withMasks(g, {laneInit1(g, 3), laneInit1(g, 4)});
    const BatchTrace trace = decodedTrace(g, ops, /*fuse=*/true);
    ASSERT_EQ(trace.segments.size(), 1u);
    // Two architectural LogicH ops, one surviving replay op.
    EXPECT_EQ(trace.segments[0].ops.size(), 1u);
    EXPECT_EQ(trace.stats.opCount[size_t(OpClass::LogicH)], 2u);
}

TEST(TraceFusion, InitChainMergeLeavesInternedExpansionIntact)
{
    const Geometry g = fusionGeometry();
    // Both INIT1s of slot 4 share one interned expansion. The chain
    // merge folds the INIT1 of slot 3 into the first of them; had it
    // grown the shared entry in place, the second would re-initialise
    // slot 3 too and clobber the write in between.
    expectFusionParity(
        withMasks(g, {laneInit1(g, 3), laneInit1(g, 4),
                      MicroOp::write(3, 0x0BADF00Du).encode(),
                      laneInit1(g, 4)}),
        0, /*initChain=*/1, 0);
}

TEST(TraceFusion, InitChainMergeAppendsRunAndKeepsInternedRuns)
{
    const Geometry g = fusionGeometry();
    // The stream of the test above, decoded. The merge must leave the
    // interned headers and their sections exactly as the unfused
    // decode has them, and append the merged run as a new header.
    const auto ops =
        withMasks(g, {laneInit1(g, 3), laneInit1(g, 4),
                      MicroOp::write(3, 0x0BADF00Du).encode(),
                      laneInit1(g, 4)});
    const BatchTrace plain = decodedTrace(g, ops, /*fuse=*/false);
    const BatchTrace fused = decodedTrace(g, ops, /*fuse=*/true);
    ASSERT_EQ(plain.segments.size(), 1u);
    ASSERT_EQ(fused.segments.size(), 1u);
    EXPECT_EQ(fused.fusion.initChain, 1u);
    const SegmentTrace &p = plain.segments[0];
    const SegmentTrace &f = fused.segments[0];
    ASSERT_EQ(p.halfGates.size(), 2u);  // INIT1 of slot 3, of slot 4
    ASSERT_EQ(f.halfGates.size(), 3u);
    for (size_t k = 0; k < p.halfGates.size(); ++k)
        EXPECT_EQ(f.halfGates[k], p.halfGates[k]) << "header " << k;
    ASSERT_GE(f.sections.size(), p.sections.size());
    EXPECT_TRUE(std::equal(p.sections.begin(), p.sections.end(),
                           f.sections.begin()));

    // The merged run: slot 4's sections, then slot 3's, appended.
    const HalfGateRun &init3 = p.halfGates[0];
    const HalfGateRun &init4 = p.halfGates[1];
    const HalfGateRun &merged = f.halfGates[2];
    EXPECT_EQ(merged.gate, Gate::Init1);
    EXPECT_EQ(merged.off, p.sections.size());
    EXPECT_EQ(merged.count, init4.count + init3.count);
    EXPECT_EQ(merged.idle, init4.idle);
    std::vector<ActiveSection> want(p.run(init4).begin(),
                                    p.run(init4).end());
    want.insert(want.end(), p.run(init3).begin(), p.run(init3).end());
    EXPECT_TRUE(std::ranges::equal(f.run(merged), want));
    EXPECT_EQ(f.sections.size(), merged.off + merged.count);

    // The survivors: the merged INIT1, the write, and the second INIT1
    // of slot 4 still on its interned header.
    ASSERT_EQ(f.ops.size(), 3u);
    EXPECT_EQ(f.ops[0].hg, 2u);
    EXPECT_EQ(f.ops[2].hg, 1u);
}

TEST(TraceFusion, InitChainCapCountsIdleSections)
{
    // 64 partitions: an INIT1 on every other partition is 32 gates.
    // Started at partition 0 its expansion ends in an idle section
    // (partition 63), started at 1 it has none. The chain cap counts
    // the later word's idle sections with both runs' active ones, so
    // 32 + 1 + 32 stays apart and 32 + 0 + 32 merges.
    Geometry g = fusionGeometry();
    g.partitions = 64;
    g.wordBits = 64;
    const auto everyOther = [&](uint32_t slot, uint32_t first) {
        return MicroOp::logicH(Gate::Init1, 0, 0, g.column(slot, first),
                               first + 62, 2)
            .encode();
    };
    const BatchTrace apart = decodedTrace(
        g, withMasks(g, {everyOther(3, 1), everyOther(4, 0)}), true);
    ASSERT_EQ(apart.segments[0].halfGates[1].idle, 1u);
    EXPECT_EQ(apart.fusion.initChain, 0u);
    const BatchTrace merged = decodedTrace(
        g, withMasks(g, {everyOther(3, 0), everyOther(4, 1)}), true);
    ASSERT_EQ(merged.segments[0].halfGates[1].idle, 0u);
    EXPECT_EQ(merged.fusion.initChain, 1u);
}

TEST(TraceFusion, InitChainBlockedByMaskChange)
{
    const Geometry g = fusionGeometry();
    expectFusionParity(
        withMasks(g,
                  {laneInit1(g, 3),
                   MicroOp::rowMask(Range(0, g.rows - 2, 2)).encode(),
                   laneInit1(g, 4)}),
        0, /*initChain=*/0, 0);
}

TEST(TraceFusion, InitChainBlockedByInterveningTouch)
{
    const Geometry g = fusionGeometry();
    // The write lands in slot 3's columns: moving the first INIT1
    // past it would clobber the write, so the chain must not merge.
    expectFusionParity(
        withMasks(g, {laneInit1(g, 3),
                      MicroOp::write(3, 0xDEADBEEFu).encode(),
                      laneInit1(g, 4)}),
        0, /*initChain=*/0, 0);
}

TEST(TraceFusion, WindowFusesAcrossUnrelatedOps)
{
    const Geometry g = fusionGeometry();
    // INIT1 of slot 5, an unrelated write, then the NOR into slot 5:
    // the builder's adjacent fusion is defeated, the window pass is
    // not.
    expectFusionParity(
        withMasks(g, {laneInit1(g, 5),
                      MicroOp::write(0, 0x13579BDFu).encode(),
                      laneNor(g, 1, 2, 5)}),
        0, 0, /*window=*/1);
}

TEST(TraceFusion, WindowAliasGuardRejectsInputAliasingOutput)
{
    const Geometry g = fusionGeometry();
    // NOR input aliases the initialised output: fusing would read
    // post-INIT state; must stay two passes.
    expectFusionParity(
        withMasks(g, {laneInit1(g, 5),
                      MicroOp::write(0, 0x13579BDFu).encode(),
                      laneNor(g, 5, 2, 5)}),
        0, 0, /*window=*/0);
}

TEST(TraceFusion, WindowBlockedByTouchedOutputs)
{
    const Geometry g = fusionGeometry();
    // A LogicV on slot 5 touches the INIT's output columns in
    // between: the INIT must not move past it.
    expectFusionParity(
        withMasks(g,
                  {laneInit1(g, 5),
                   MicroOp::logicV(Gate::Init0, 0, 1, 5).encode(),
                   laneNor(g, 1, 2, 5)}),
        0, 0, /*window=*/0);
}

TEST(TraceFusion, WindowBlockedByMaskMismatch)
{
    const Geometry g = fusionGeometry();
    expectFusionParity(
        withMasks(g,
                  {laneInit1(g, 5),
                   MicroOp::crossbarMask(Range(0, g.numCrossbars - 2, 2))
                       .encode(),
                   laneNor(g, 1, 2, 5)}),
        0, 0, /*window=*/0);
}

TEST(TraceFusion, MixedStreamWithBarriersStaysParity)
{
    const Geometry g = fusionGeometry();
    std::vector<Word> body = {
        MicroOp::write(2, 0x01020304u).encode(),
        MicroOp::write(2, 0x05060708u).encode(),  // WAW
        laneInit1(g, 3),
        laneInit1(g, 4),                          // chain
        // NOR into a third slot: does not consume either INIT (the
        // merged INIT no longer output-matches anything), and without
        // its own INIT it computes device-accurate garbage — which
        // both replay paths must reproduce identically.
        laneNor(g, 0, 1, 8),
        // Barrier: a move splits the batch into two segments.
        MicroOp::crossbarMask(Range(0, g.numCrossbars / 2 - 1, 1))
            .encode(),
        MicroOp::move(g.numCrossbars / 2, 1, 2, 0, 1).encode(),
        laneInit1(g, 6),
        MicroOp::write(7, 0x99999999u).encode(),
        laneNor(g, 1, 2, 6),                      // window fusion
    };
    expectFusionParity(withMasks(g, std::move(body)), 1, 1, 1);
}

TEST(TraceFusion, StripeMergesAdjacentDistinctSlotWrites)
{
    const Geometry g = fusionGeometry();
    // Three adjacent full-mask writes to pairwise-distinct slots: one
    // stripe op replaces all three (two ops eliminated).
    expectFusionParity(
        withMasks(g, {MicroOp::write(2, 0x11111111u).encode(),
                      MicroOp::write(3, 0x22222222u).encode(),
                      MicroOp::write(4, 0x33333333u).encode()}),
        0, 0, 0, /*writeStripe=*/2);
}

TEST(TraceFusion, StripeAndWawCompose)
{
    const Geometry g = fusionGeometry();
    // write(2) write(3) write(2): WAW kills the first write(2) — the
    // intervening write(3) touches disjoint columns — and the two
    // survivors (distinct slots, same masks) merge into one stripe.
    expectFusionParity(
        withMasks(g, {MicroOp::write(2, 0xAAAAAAAAu).encode(),
                      MicroOp::write(3, 0xBBBBBBBBu).encode(),
                      MicroOp::write(2, 0xCCCCCCCCu).encode()}),
        /*waw=*/1, 0, 0, /*writeStripe=*/1);
}

TEST(TraceFusion, StripeBlockedByRowMaskChange)
{
    const Geometry g = fusionGeometry();
    // The second write runs under genuinely different row-mask bits:
    // merging would widen (or narrow) one of the writes.
    expectFusionParity(
        withMasks(g,
                  {MicroOp::write(2, 0x11111111u).encode(),
                   MicroOp::rowMask(Range(0, g.rows - 2, 2)).encode(),
                   MicroOp::write(3, 0x22222222u).encode()}),
        0, 0, 0, /*writeStripe=*/0);
}

TEST(TraceFusion, StripeBlockedByCrossbarMaskChange)
{
    const Geometry g = fusionGeometry();
    expectFusionParity(
        withMasks(g,
                  {MicroOp::write(2, 0x11111111u).encode(),
                   MicroOp::crossbarMask(Range(0, g.numCrossbars - 2, 2))
                       .encode(),
                   MicroOp::write(3, 0x22222222u).encode()}),
        0, 0, 0, /*writeStripe=*/0);
}

TEST(TraceFusion, StripeMergesAcrossEquivalentRowMaskReissue)
{
    const Geometry g = fusionGeometry();
    // Range(5,5,1) and Range(5,5,3) are different encodings of the
    // same single-row mask: the snapshot table dedups by CONTENT, so
    // the re-issued mask costs no snapshot and no stripe break.
    expectFusionParity(
        withMasks(g,
                  {MicroOp::rowMask(Range(5, 5, 1)).encode(),
                   MicroOp::write(2, 0x11111111u).encode(),
                   MicroOp::rowMask(Range(5, 5, 3)).encode(),
                   MicroOp::write(3, 0x22222222u).encode()}),
        0, 0, 0, /*writeStripe=*/1);
}

TEST(TraceFusion, EquivalentRangeDedupEnablesBuilderInitNorFusion)
{
    const Geometry g = fusionGeometry();
    // INIT1 under Range(5,5,1), NOR under the equivalent Range(5,5,3):
    // the builder's adjacent INIT1->NOR fusion compares row-snapshot
    // ids, so content dedup must make the pair fuse even though the
    // Range encodings differ.
    const std::vector<Word> ops = {
        MicroOp::crossbarMask(Range::all(g.numCrossbars)).encode(),
        MicroOp::rowMask(Range(5, 5, 1)).encode(),
        laneInit1(g, 5),
        MicroOp::rowMask(Range(5, 5, 3)).encode(),
        laneNor(g, 1, 2, 5),
    };
    const BatchTrace trace = decodedTrace(g, ops, /*fuse=*/false);
    ASSERT_EQ(trace.segments.size(), 1u);
    const SegmentTrace &seg = trace.segments[0];
    ASSERT_EQ(seg.ops.size(), 1u);
    EXPECT_TRUE(seg.ops[0].fusedInit);
    // One realised bit pattern => exactly one snapshot in the arena.
    EXPECT_EQ(seg.rowWords.size(), seg.wordsPerMask);
    // And the stream still replays bit-identically to the oracle.
    expectFusionParity(ops, 0, 0, 0, 0);
}

TEST(TraceFusion, PreparedTraceReplaysRepeatedly)
{
    const Geometry g = fusionGeometry();
    const auto ops = withMasks(
        g, {MicroOp::write(2, 0xCAFED00Du).encode(), laneInit1(g, 3),
            laneNor(g, 0, 2, 3), laneInit1(g, 5),
            MicroOp::write(6, 0x42424242u).encode(),
            laneNor(g, 3, 6, 5)});
    Simulator oracle(g);
    Simulator cand(g);
    seedState(oracle, cand, 4242);
    const auto trace = cand.prepareTrace(ops.data(), ops.size(), true);
    ASSERT_TRUE(trace != nullptr);
    for (int rep = 0; rep < 3; ++rep) {
        oracle.performBatch(ops.data(), ops.size());
        cand.submitTrace(trace);
    }
    EXPECT_TRUE(sameCrossbarState(oracle, cand));
    EXPECT_EQ(oracle.stats(), cand.stats());
}

TEST(TraceFusion, ShardedSubmitTraceMatchesOracle)
{
    const Geometry g = fusionGeometry();
    const auto ops = withMasks(
        g, {MicroOp::write(2, 0xCAFED00Du).encode(), laneInit1(g, 3),
            MicroOp::write(4, 0x10101010u).encode(),
            laneNor(g, 0, 2, 3)});
    Simulator oracle(g);
    Simulator cand(g, EngineConfig{}.withThreads(2));
    seedState(oracle, cand, 777);
    const auto trace = cand.prepareTrace(ops.data(), ops.size(), true);
    ASSERT_TRUE(trace != nullptr);
    for (int rep = 0; rep < 4; ++rep) {
        oracle.performBatch(ops.data(), ops.size());
        cand.submitTrace(trace);
    }
    cand.flush();
    EXPECT_TRUE(sameCrossbarState(oracle, cand));
    EXPECT_EQ(oracle.stats(), cand.stats());
}

TEST(TraceFusion, PrepareRefusesNonSelfContainedStreams)
{
    const Geometry g = fusionGeometry();
    Simulator sim(g);
    const std::vector<Word> noMasks = {
        MicroOp::write(2, 1u).encode(),
    };
    EXPECT_EQ(sim.prepareTrace(noMasks.data(), noMasks.size(), true),
              nullptr);
    const std::vector<Word> onlyRowMask = {
        MicroOp::rowMask(Range::all(g.rows)).encode(),
        MicroOp::write(2, 1u).encode(),
    };
    EXPECT_EQ(sim.prepareTrace(onlyRowMask.data(), onlyRowMask.size(),
                               true),
              nullptr);
    // prepareTrace must not have advanced any architectural state.
    EXPECT_EQ(sim.stats().totalOps(), 0u);
}

TEST(TraceFusion, DriverFp32FusionCountersPinned)
{
    // Table III geometry (1024x1024 crossbars, 32 partitions). The
    // counts were measured on the fixed-array half-gate expansion the
    // compact arena replaced; the INIT1 chain cap still counts each
    // word's idle sections, so every fusion decision is unchanged.
    const Geometry g;
    struct Case
    {
        ROp op;
        uint64_t waw, initChain, window, writeStripe;
    };
    const Case cases[] = {
        {ROp::Add, 0, 32, 0, 0},
        {ROp::Mul, 0, 116, 0, 0},
    };
    for (const Case &c : cases) {
        const std::vector<Word> ops = fp32Stream(g, c.op);
        ASSERT_TRUE(leadsWithMasks(ops.data(), ops.size()));
        const BatchTrace trace = decodedTrace(g, ops, /*fuse=*/true);
        EXPECT_EQ(trace.fusion.waw, c.waw) << ropName(c.op);
        EXPECT_EQ(trace.fusion.initChain, c.initChain) << ropName(c.op);
        EXPECT_EQ(trace.fusion.window, c.window) << ropName(c.op);
        EXPECT_EQ(trace.fusion.writeStripe, c.writeStripe)
            << ropName(c.op);
    }
}

TEST(TraceFusion, DecodedTraceInternsOneCompactRunPerWord)
{
    const Geometry g = fusionGeometry();
    const uint32_t last = g.partitions - 1;
    // Full lanes, a semi-parallel stride-4 NOT and a single
    // cross-partition NOR, each INIT1 right before its gate (so the
    // builder fuses every pair and no INIT1 chain forms), and every
    // word issued twice.
    const std::vector<Word> words = {
        laneInit1(g, 3),
        laneNor(g, 0, 1, 3),
        MicroOp::logicH(Gate::Init1, 0, 0, g.column(4, 1), last - 2, 4)
            .encode(),
        MicroOp::logicH(Gate::Not, g.column(2, 0), 0, g.column(4, 1),
                        last - 2, 4)
            .encode(),
        MicroOp::logicH(Gate::Init1, 0, 0, g.column(5, last), last, 0)
            .encode(),
        MicroOp::logicH(Gate::Nor, g.column(0, 0), g.column(1, 3),
                        g.column(5, last), last, 0)
            .encode(),
    };
    std::vector<Word> body = words;
    body.insert(body.end(), words.begin(), words.end());
    const BatchTrace trace =
        decodedTrace(g, withMasks(g, body), /*fuse=*/true);
    ASSERT_EQ(trace.segments.size(), 1u);
    EXPECT_EQ(trace.fusion.initChain, 0u);
    const SegmentTrace &seg = trace.segments[0];

    // Headers in first-use order, one per distinct word, each over
    // exactly its word's active sections, back to back.
    ASSERT_EQ(seg.halfGates.size(), words.size());
    uint32_t off = 0;
    for (size_t k = 0; k < words.size(); ++k) {
        const HalfGates hg = expandLogicH(MicroOp::decode(words[k]), g);
        const HalfGateRun &run = seg.halfGates[k];
        EXPECT_EQ(run.gate, hg.gate) << "word " << k;
        EXPECT_EQ(run.off, off) << "word " << k;
        EXPECT_EQ(run.count, hg.numGates) << "word " << k;
        EXPECT_EQ(run.idle + run.count, hg.numSections) << "word " << k;
        std::vector<ActiveSection> want;
        for (uint32_t s = 0; s < hg.numSections; ++s) {
            const Section &sec = hg.sections[s];
            if (!sec.active())
                continue;
            ActiveSection a;
            a.outCol = static_cast<uint16_t>(sec.outCol);
            a.inA = static_cast<uint16_t>(
                sec.numIn >= 1 ? sec.inCol[0] : sec.outCol);
            a.inB = static_cast<uint16_t>(
                sec.numIn == 2 ? sec.inCol[1] : a.inA);
            want.push_back(a);
        }
        EXPECT_TRUE(std::ranges::equal(seg.run(run), want))
            << "word " << k;
        off += run.count;
    }
    EXPECT_EQ(seg.sections.size(), off);
    // Both issues of each word share its header.
    ASSERT_EQ(seg.ops.size(), 6u);
    for (size_t k = 0; k < 3; ++k)
        EXPECT_EQ(seg.ops[k].hg, seg.ops[k + 3].hg);
}
