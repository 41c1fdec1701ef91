/**
 * @file
 * Directed tests for the trace cache and the window fusion pass
 * (sim/batch_trace.hpp): WAW dead-store elimination, INIT1 chain
 * merging and windowed INIT1->NOR/NOT fusion must fire exactly on the
 * legal patterns (counters checked), never on the alias/conflict
 * negatives, and every prepared trace — fused or not — must replay
 * bit-identically to the serial oracle, repeatedly, on synchronous
 * and pipelined simulators.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
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
    ASSERT_EQ(trace.used, 1u);
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
    ASSERT_EQ(trace.used, 1u);
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

TEST(TraceFusion, PipelinedSubmitTraceMatchesOracle)
{
    const Geometry g = fusionGeometry();
    const auto ops = withMasks(
        g, {MicroOp::write(2, 0xCAFED00Du).encode(), laneInit1(g, 3),
            MicroOp::write(4, 0x10101010u).encode(),
            laneNor(g, 0, 2, 3)});
    Simulator oracle(g);
    Simulator cand(g, EngineConfig::sharded(2).withPipeline());
    seedState(oracle, cand, 777);
    const auto trace = cand.prepareTrace(ops.data(), ops.size(), true);
    ASSERT_TRUE(trace != nullptr);
    for (int rep = 0; rep < 4; ++rep) {
        oracle.performBatch(ops.data(), ops.size());
        cand.submitTrace(trace);  // queues asynchronously
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
