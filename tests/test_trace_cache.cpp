/**
 * @file
 * Directed tests for the trace cache (sim/batch_trace.hpp): a
 * prepared trace must replay bit-identically to the op-major oracle,
 * repeatedly, at one and two replay threads and across barrier Moves;
 * prepareTrace must refuse streams that are not self-contained. The
 * compiled shape of the driver's fp32 add and mul (Table III) is
 * pinned: the replay compiler's liveness scan is the one rewrite
 * between decode and replay. The owner's expansion table must not
 * change what a compile yields: a table run equals a fresh
 * expansion's active sections, cold- and warm-table compiles give
 * field-equal programs, a malformed word throws every time and is
 * never stored, a compile after one equals a fresh owner's, and a new
 * Device starts with an empty table.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "driver/driver.hpp"
#include "pim/pypim.hpp"
#include "sim/batch_trace.hpp"
#include "sim/htree.hpp"
#include "sim/simulator.hpp"

using namespace pypim;

namespace
{

Geometry
cacheGeometry()
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

/** Compile a self-contained stream the way prepareTrace does, through
 *  @p table. */
BatchTrace
compiledTrace(const Geometry &g, const std::vector<Word> &ops,
              ExpansionTable &table)
{
    const HTree htree(g.numCrossbars);
    MaskState mask;
    mask.reset(g);
    BatchTrace trace;
    compileBatchTrace(ops.data(), ops.size(), g, htree, table, mask,
                      trace);
    return trace;
}

/** Every field of two compiled programs equal (mask contents, not
 *  their shared storage). */
::testing::AssertionResult
sameProgram(const ReplayProgram &a, const ReplayProgram &b)
{
    const auto fail = [](const char *what) {
        return ::testing::AssertionFailure() << what << " differ";
    };
    if (a.instrs.size() != b.instrs.size())
        return fail("instruction counts");
    for (size_t i = 0; i < a.instrs.size(); ++i) {
        const ReplayProgram::Instr &x = a.instrs[i], &y = b.instrs[i];
        if (x.kind != y.kind || x.cls != y.cls ||
            x.maskFull != y.maskFull || x.passKind != y.passKind ||
            x.off != y.off || x.count != y.count ||
            x.operand != y.operand || x.work != y.work || !(x.xb == y.xb))
            return fail("instructions");
    }
    if (!std::ranges::equal(a.sections, b.sections,
                            [](const auto &x, const auto &y) {
                                return x.kind == y.kind &&
                                       x.outCol == y.outCol &&
                                       x.inA == y.inA && x.inB == y.inB;
                            }))
        return fail("sections");
    if (!std::ranges::equal(a.pairs, b.pairs,
                            [](const auto &x, const auto &y) {
                                return x.slot == y.slot &&
                                       x.value == y.value;
                            }))
        return fail("write pairs");
    if (!std::ranges::equal(a.vgates, b.vgates,
                            [](const auto &x, const auto &y) {
                                return x.gate == y.gate &&
                                       x.inShift == y.inShift &&
                                       x.outShift == y.outShift &&
                                       x.inWord == y.inWord &&
                                       x.outWord == y.outWord;
                            }))
        return fail("vertical gates");
    if (a.wordsPerMask != b.wordsPerMask ||
        a.masks.size() != b.masks.size())
        return fail("mask shapes");
    for (size_t m = 0; m < a.masks.size(); ++m)
        if (!std::equal(a.masks[m].get(),
                        a.masks[m].get() + a.wordsPerMask,
                        b.masks[m].get()))
            return fail("masks");
    if (a.xbLo != b.xbLo || a.xbHi != b.xbHi ||
        a.allMasksFull != b.allMasksFull ||
        a.uniformXb != b.uniformXb || !(a.xb == b.xb) ||
        a.workWrites != b.workWrites || a.workLogicH != b.workLogicH ||
        a.workLogicV != b.workLogicV ||
        a.liveness.sections != b.liveness.sections ||
        a.liveness.fused != b.liveness.fused ||
        a.liveness.dead != b.liveness.dead)
        return fail("program scalars");
    return ::testing::AssertionSuccess();
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
 * Prepare the stream and assert it replays bit-identically to the
 * serial oracle (state, architectural stats and final masks).
 */
void
expectTraceParity(const std::vector<Word> &ops)
{
    const Geometry g = cacheGeometry();
    Simulator oracle(g);
    Simulator cand(g);
    seedState(oracle, cand, 99);
    const auto trace = cand.prepareTrace(ops.data(), ops.size());
    ASSERT_TRUE(trace != nullptr);
    oracle.performBatch(ops.data(), ops.size());
    cand.submitTrace(trace);
    EXPECT_TRUE(sameCrossbarState(oracle, cand));
    EXPECT_EQ(oracle.stats(), cand.stats());
    EXPECT_EQ(oracle.crossbarMask(), cand.crossbarMask());
    EXPECT_EQ(oracle.rowMask(), cand.rowMask());
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

TEST(TraceCache, MixedStreamWithBarriersStaysParity)
{
    const Geometry g = cacheGeometry();
    std::vector<Word> body = {
        MicroOp::write(2, 0x01020304u).encode(),
        MicroOp::write(2, 0x05060708u).encode(),  // overwrite
        laneInit1(g, 3),
        laneInit1(g, 4),                          // INIT1 chain
        // NOR into a third slot: consumes neither INIT, and without
        // its own INIT it computes device-accurate garbage — which
        // both replay paths must reproduce identically.
        laneNor(g, 0, 1, 8),
        // Barrier: a move splits the batch into two segments.
        MicroOp::crossbarMask(Range(0, g.numCrossbars / 2 - 1, 1))
            .encode(),
        MicroOp::move(g.numCrossbars / 2, 1, 2, 0, 1).encode(),
        laneInit1(g, 6),
        MicroOp::write(7, 0x99999999u).encode(),
        laneNor(g, 1, 2, 6),  // its INIT1 two ops back
    };
    expectTraceParity(withMasks(g, std::move(body)));
}

TEST(TraceCache, PreparedTraceReplaysRepeatedly)
{
    const Geometry g = cacheGeometry();
    const auto ops = withMasks(
        g, {MicroOp::write(2, 0xCAFED00Du).encode(), laneInit1(g, 3),
            laneNor(g, 0, 2, 3), laneInit1(g, 5),
            MicroOp::write(6, 0x42424242u).encode(),
            laneNor(g, 3, 6, 5)});
    Simulator oracle(g);
    Simulator cand(g);
    seedState(oracle, cand, 4242);
    const auto trace = cand.prepareTrace(ops.data(), ops.size());
    ASSERT_TRUE(trace != nullptr);
    for (int rep = 0; rep < 3; ++rep) {
        oracle.performBatch(ops.data(), ops.size());
        cand.submitTrace(trace);
    }
    EXPECT_TRUE(sameCrossbarState(oracle, cand));
    EXPECT_EQ(oracle.stats(), cand.stats());
}

TEST(TraceCache, ShardedSubmitTraceMatchesOracle)
{
    const Geometry g = cacheGeometry();
    const auto ops = withMasks(
        g, {MicroOp::write(2, 0xCAFED00Du).encode(), laneInit1(g, 3),
            MicroOp::write(4, 0x10101010u).encode(),
            laneNor(g, 0, 2, 3)});
    Simulator oracle(g);
    Simulator cand(g, EngineConfig{}.withThreads(2));
    seedState(oracle, cand, 777);
    const auto trace = cand.prepareTrace(ops.data(), ops.size());
    ASSERT_TRUE(trace != nullptr);
    for (int rep = 0; rep < 4; ++rep) {
        oracle.performBatch(ops.data(), ops.size());
        cand.submitTrace(trace);
    }
    cand.flush();
    EXPECT_TRUE(sameCrossbarState(oracle, cand));
    EXPECT_EQ(oracle.stats(), cand.stats());
}

TEST(TraceCache, PrepareRefusesNonSelfContainedStreams)
{
    const Geometry g = cacheGeometry();
    Simulator sim(g);
    const std::vector<Word> noMasks = {
        MicroOp::write(2, 1u).encode(),
    };
    EXPECT_EQ(sim.prepareTrace(noMasks.data(), noMasks.size()), nullptr);
    const std::vector<Word> onlyRowMask = {
        MicroOp::rowMask(Range::all(g.rows)).encode(),
        MicroOp::write(2, 1u).encode(),
    };
    EXPECT_EQ(sim.prepareTrace(onlyRowMask.data(), onlyRowMask.size()),
              nullptr);
    // prepareTrace must not have advanced any architectural state.
    EXPECT_EQ(sim.stats().totalOps(), 0u);
}

TEST(TraceCache, DriverFp32CompiledShapePinned)
{
    // Table III geometry (1024x1024 crossbars, 32 partitions). Each
    // stream is one barrier-free segment, so one program. The counts
    // were taken with trace-level fusion passes in front of the
    // compiler (the decoder's adjacent INIT1->NOR fusion, INIT1 chain
    // merging, windowed fusion, Write-after-Write elimination and
    // write stripes); without them every program comes out the same,
    // so they did nothing the liveness scan does not. The decoder's
    // fusion hid the INIT1 sections it folded from the scan's input,
    // so the pin is on the sections left after every INIT1 fusion
    // (sections - fused), not on the scan's input alone.
    const Geometry g;
    struct Case
    {
        ROp op;
        size_t hpasses;
        uint64_t unfused, dead, replayed;
    };
    const Case cases[] = {
        {ROp::Add, 1593, 8837, 1310, 7527},
        {ROp::Mul, 4184, 14878, 1000, 13878},
    };
    for (const Case &c : cases) {
        const std::vector<Word> ops = fp32Stream(g, c.op);
        Simulator sim(g, EngineConfig::serial());
        const auto trace = sim.prepareTrace(ops.data(), ops.size());
        ASSERT_NE(trace, nullptr) << ropName(c.op);
        ASSERT_EQ(trace->programs.size(), 1u) << ropName(c.op);
        const ReplayProgram &p = trace->programs[0];
        const size_t hpasses = std::count_if(
            p.instrs.begin(), p.instrs.end(),
            [](const ReplayProgram::Instr &in) {
                return in.kind == ReplayProgram::Kind::HPass;
            });
        EXPECT_EQ(hpasses, c.hpasses) << ropName(c.op);
        EXPECT_EQ(p.liveness.sections - p.liveness.fused, c.unfused)
            << ropName(c.op);
        EXPECT_EQ(p.liveness.dead, c.dead) << ropName(c.op);
        EXPECT_EQ(p.liveness.replayed(), c.replayed) << ropName(c.op);
    }
}

TEST(TraceCache, EveryOpChargesOneUnitOfWork)
{
    // The decoder keeps one op per work op and the compiler charges
    // each its work, whatever sections the liveness scan dropped.
    const Geometry g;
    for (const ROp op : {ROp::Add, ROp::Mul}) {
        const std::vector<Word> ops = fp32Stream(g, op);
        Simulator sim(g, EngineConfig::serial());
        const auto trace = sim.prepareTrace(ops.data(), ops.size());
        ASSERT_NE(trace, nullptr) << ropName(op);
        ASSERT_EQ(trace->programs.size(), 1u) << ropName(op);
        const ReplayProgram &p = trace->programs[0];
        EXPECT_GT(p.liveness.fused + p.liveness.dead, 0u) << ropName(op);
        EXPECT_EQ(p.workLogicH,
                  trace->stats.opCount[size_t(OpClass::LogicH)])
            << ropName(op);
        EXPECT_EQ(p.workWrites,
                  trace->stats.opCount[size_t(OpClass::Write)])
            << ropName(op);
    }
}

TEST(TraceCache, ExpansionTableRunsAreFreshExpansions)
{
    const Geometry g = cacheGeometry();
    const uint32_t last = g.partitions - 1;
    // Full lanes, a semi-parallel stride-4 NOT and a single
    // cross-partition NOR, each INIT1 right before its gate.
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
    ExpansionTable table(g);
    std::vector<HalfGateRun> runs;
    for (Word w : words)
        runs.push_back(table.intern(w));
    EXPECT_EQ(table.size(), words.size());

    // One run per word in first-use order, back to back in the
    // table's arena, each over exactly its word's active sections.
    uint32_t off = 0;
    for (size_t k = 0; k < words.size(); ++k) {
        const HalfGates hg = expandLogicH(MicroOp::decode(words[k]), g);
        const HalfGateRun &run = runs[k];
        EXPECT_EQ(run.gate, hg.gate) << "word " << k;
        EXPECT_EQ(run.off, off) << "word " << k;
        EXPECT_EQ(run.count, hg.numGates) << "word " << k;
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
        EXPECT_TRUE(std::ranges::equal(table.run(run), want))
            << "word " << k;
        off += run.count;
    }
    // A second issue of every word is a hit on the very same run.
    for (size_t k = 0; k < words.size(); ++k)
        EXPECT_EQ(table.intern(words[k]), runs[k]) << "word " << k;
    EXPECT_EQ(table.size(), words.size()) << "a hit must not store again";
}

TEST(TraceCache, ExpansionTableHitsCompileAsFreshExpansions)
{
    // Compiling through a table that already holds every word (all
    // hits) must yield the very programs a fresh table yields.
    const Geometry g = cacheGeometry();
    const uint32_t last = g.partitions - 1;
    std::vector<Word> body = {
        laneInit1(g, 3),
        laneNor(g, 0, 1, 3),
        MicroOp::logicH(Gate::Not, g.column(2, 0), 0, g.column(4, 1),
                        last - 2, 4)
            .encode(),
        MicroOp::rowMask(Range(0, g.rows - 2, 2)).encode(),
        laneInit1(g, 5),
        MicroOp::crossbarMask(Range(0, 7, 1)).encode(),
        MicroOp::move(8, 1, 2, 0, 1).encode(),
        laneNor(g, 2, 3, 5),
        laneInit1(g, 3),
    };
    const std::vector<Word> ops = withMasks(g, body);
    ExpansionTable table(g);
    const BatchTrace cold = compiledTrace(g, ops, table);
    const size_t words = table.size();
    EXPECT_EQ(words, 5u);
    const BatchTrace warm = compiledTrace(g, ops, table);
    EXPECT_EQ(table.size(), words) << "a hit must not store again";
    ASSERT_EQ(cold.programs.size(), 2u);
    ASSERT_EQ(warm.programs.size(), cold.programs.size());
    for (size_t s = 0; s < cold.programs.size(); ++s)
        EXPECT_TRUE(sameProgram(cold.programs[s], warm.programs[s]))
            << "segment " << s;
    EXPECT_EQ(cold.stats, warm.stats);
    EXPECT_EQ(cold.hull, warm.hull);
}

TEST(TraceCache, WarmTableCompilesTheSameFp32Programs)
{
    // Table III fp32 add and mul: cold on a fresh owner, warm on the
    // same owner (every word a hit), and on a fresh owner after the
    // other stream warmed nothing of it. All compile to equal programs.
    const Geometry g;
    const std::vector<Word> add = fp32Stream(g, ROp::Add);
    const std::vector<Word> mul = fp32Stream(g, ROp::Mul);
    Simulator owner(g, EngineConfig::serial());
    const auto addCold = owner.prepareTrace(add.data(), add.size());
    const size_t addWords = owner.expansions().size();
    const auto mulCold = owner.prepareTrace(mul.data(), mul.size());
    const size_t words = owner.expansions().size();
    EXPECT_GT(addWords, 0u);
    EXPECT_GT(words, addWords);
    const auto addWarm = owner.prepareTrace(add.data(), add.size());
    const auto mulWarm = owner.prepareTrace(mul.data(), mul.size());
    EXPECT_EQ(owner.expansions().size(), words);
    Simulator fresh(g, EngineConfig::serial());
    const auto mulFresh = fresh.prepareTrace(mul.data(), mul.size());
    const auto addFresh = fresh.prepareTrace(add.data(), add.size());
    const std::pair<const char *, std::vector<const BatchTrace *>> cases[] =
        {{"add", {addCold.get(), addWarm.get(), addFresh.get()}},
         {"mul", {mulCold.get(), mulWarm.get(), mulFresh.get()}}};
    for (const auto &[name, traces] : cases) {
        for (const BatchTrace *t : traces) {
            ASSERT_NE(t, nullptr) << name;
            ASSERT_EQ(t->programs.size(), 1u) << name;
            EXPECT_TRUE(sameProgram(traces[0]->programs[0], t->programs[0]))
                << name;
            EXPECT_EQ(t->stats, traces[0]->stats) << name;
        }
    }
}

TEST(TraceCache, MalformedWordThrowsEveryTimeAndIsNeverStored)
{
    const Geometry g = cacheGeometry();
    // Gate 0 claims partitions {0, 1}, gate 1 claims {1, 2}.
    const Word bad = MicroOp::logicH(Gate::Nor, g.column(0, 0),
                                     g.column(1, 1), g.column(3, 1), 2, 1)
                         .encode();
    const std::vector<Word> ops = withMasks(g, {laneInit1(g, 3), bad});
    Simulator sim(g);
    std::string first;
    for (int seen = 0; seen < 2; ++seen) {
        try {
            sim.prepareTrace(ops.data(), ops.size());
            ADD_FAILURE() << "malformed word decoded (occurrence "
                          << seen + 1 << ")";
        } catch (const InternalError &e) {
            if (seen == 0)
                first = e.what();
            EXPECT_EQ(e.what(), first);
        }
        // The valid word before it is stored; the malformed one never.
        EXPECT_EQ(sim.expansions().size(), 1u);
    }
    EXPECT_NE(first.find("overlap"), std::string::npos) << first;
    // The scan validates the same way.
    ExpansionTable table(g);
    for (int seen = 0; seen < 2; ++seen) {
        try {
            table.intern(bad);
            ADD_FAILURE() << "malformed word scanned";
        } catch (const InternalError &e) {
            EXPECT_EQ(e.what(), first);
        }
        EXPECT_EQ(table.size(), 0u);
    }
}

TEST(TraceCache, CompileAfterAMidSegmentThrowMatchesAFreshOwner)
{
    // The compiler keeps its liveness, run-sharing and mask-intern
    // scratch per thread, across segments and owners. A malformed word
    // that throws mid-segment, after work ops under two row masks were
    // recorded, must leave nothing behind: the same owner's next
    // compiles equal a fresh owner's, at the Table III fp32 add and at
    // a small mixed stream.
    const Geometry g;
    const Word bad = MicroOp::logicH(Gate::Nor, g.column(0, 0),
                                     g.column(1, 1), g.column(3, 1), 2, 1)
                         .encode();
    const std::vector<Word> broken = withMasks(
        g, {laneInit1(g, 3), MicroOp::write(4, 9).encode(),
            laneNor(g, 0, 1, 3),
            MicroOp::rowMask(Range(1, g.rows - 1, 2)).encode(),
            laneInit1(g, 6), MicroOp::logicV(Gate::Not, 0, 1, 2).encode(),
            bad, laneNor(g, 0, 1, 6)});
    const std::vector<Word> add = fp32Stream(g, ROp::Add);
    const std::vector<Word> small = withMasks(
        g, {MicroOp::rowMask(Range(0, g.rows / 2 - 1, 1)).encode(),
            laneInit1(g, 7), laneNor(g, 2, 3, 7)});

    Simulator fresh(g, EngineConfig::serial());
    const auto addWant = fresh.prepareTrace(add.data(), add.size());
    const auto smallWant = fresh.prepareTrace(small.data(), small.size());
    ASSERT_NE(addWant, nullptr);
    ASSERT_NE(smallWant, nullptr);

    Simulator owner(g, EngineConfig::serial());
    EXPECT_THROW(owner.prepareTrace(broken.data(), broken.size()),
                 InternalError);
    const auto smallGot = owner.prepareTrace(small.data(), small.size());
    EXPECT_THROW(owner.prepareTrace(broken.data(), broken.size()),
                 InternalError);
    const auto addGot = owner.prepareTrace(add.data(), add.size());
    const std::pair<const BatchTrace *, const BatchTrace *> cases[] = {
        {addWant.get(), addGot.get()}, {smallWant.get(), smallGot.get()}};
    for (const auto &[want, got] : cases) {
        ASSERT_NE(got, nullptr);
        ASSERT_EQ(got->programs.size(), want->programs.size());
        for (size_t p = 0; p < want->programs.size(); ++p)
            EXPECT_TRUE(sameProgram(want->programs[p], got->programs[p]))
                << "program " << p;
        EXPECT_EQ(got->stats, want->stats);
        EXPECT_EQ(got->hull, want->hull);
    }
}

TEST(TraceCache, NewDeviceStartsWithAnEmptyTable)
{
    const Geometry g = cacheGeometry();
    const auto run = [&](Device &dev) {
        std::vector<float> v(g.totalRows(), 1.5f);
        Tensor a = Tensor::fromVector(v, &dev);
        Tensor b = a + a;
        dev.flush();
    };
    Device first(g, Driver::Mode::Parallel, EngineConfig::serial());
    EXPECT_EQ(first.group().sub(0).expansions().size(), 0u);
    run(first);
    EXPECT_GT(first.group().sub(0).expansions().size(), 0u);
    // The table is the Simulator's, not the process's: a second
    // Device starts cold even while the first one lives.
    Device second(g, Driver::Mode::Parallel, EngineConfig::serial());
    EXPECT_EQ(second.group().sub(0).expansions().size(), 0u);
}
