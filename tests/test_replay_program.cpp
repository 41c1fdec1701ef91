/**
 * @file
 * Compiled replay program tests (sim/replay_program.hpp).
 *
 * Compiled replay is the only form in which a segment replays, so it
 * must be invisible: for any self-contained stream, a prepared trace
 * replays BIT-IDENTICALLY to the serial op-major raw-stream oracle on
 * Dense storage — same crossbar state, same architectural Stats —
 * at 1 and 2 replay threads, at 1/2/4 devices and on
 * both storage representations, and the thread pool's applied-work
 * diagnostics equal architectural work ops x touched crossbars. The
 * fuzz and the device-path test run once per executor ISA build the
 * host supports (Crossbar::replayBuilds), at a shallow geometry (one
 * word per column) and a deep one (eight words: one paged block, long
 * enough for the vectorised word loops). The
 * directed tests pin the COMPILER's decisions — when LogicH ops may
 * and may not merge into one pass (mask change, section capacity,
 * stateful-gate aliasing), how stripes and LogicV runs chunk, and
 * when the all-ones mask specialisation may fire. The retention tests
 * pin what a frozen trace keeps: its programs, but no decode arenas.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "pim/pypim.hpp"
#include "pim_test_util.hpp"
#include "sim/batch_trace.hpp"
#include "sim/checkpoint.hpp"
#include "sim/device_group.hpp"
#include "sim/htree.hpp"
#include "sim/replay_program.hpp"
#include "sim/serialize.hpp"
#include "sim/trace_wire.hpp"

using namespace pypim;

namespace
{

Geometry
fuzzGeometry()
{
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    return g;
}

struct EngineCase
{
    const char *name;
    EngineConfig cfg;
};

const EngineCase &
engineCase(size_t i)
{
    static const EngineCase cases[] = {
        {"threads1", EngineConfig::serial()},
        {"threads2", EngineConfig{}.withThreads(2)},
    };
    return cases[i];
}
constexpr size_t numEngineCases = 2;

/** Random valid Range over [0, limit). */
Range
randomRange(Rng &rng, uint32_t limit)
{
    const uint32_t start = rng.word() % limit;
    const uint32_t step = 1 + rng.word() % 8;
    const uint32_t maxN = (limit - 1 - start) / step;
    const uint32_t span = (rng.word() % (maxN + 1)) * step;
    return Range(start, start + span, step);
}

/**
 * Random SELF-CONTAINED stream (both masks lead, no Moves — the shape
 * prepareTrace caches on a device group). Biased towards runs of
 * LogicH under a stable mask so pass merging actually fires, with a
 * mix of full, partial and re-issued-identical row masks to cross the
 * specialisation boundary, plus stripes of Writes and LogicV runs.
 * Every slot it names is below @p slots (0: all of them).
 */
std::vector<Word>
randomTraceStream(Rng &rng, const Geometry &g, size_t len,
                  uint32_t slots = 0)
{
    const uint32_t ns = slots ? slots : g.slots();
    std::vector<Word> ops;
    ops.reserve(len + 2);
    ops.push_back(
        MicroOp::crossbarMask(randomRange(rng, g.numCrossbars))
            .encode());
    ops.push_back(
        MicroOp::rowMask(Range(0, g.rows - 1, 1)).encode());
    while (ops.size() < len) {
        switch (rng.word() % 12) {
          case 0:
            ops.push_back(
                MicroOp::crossbarMask(randomRange(rng, g.numCrossbars))
                    .encode());
            break;
          case 1:
            // Full : partial : random = the mask population the
            // compiler's maskFull flag partitions.
            switch (rng.word() % 3) {
              case 0:
                ops.push_back(
                    MicroOp::rowMask(Range(0, g.rows - 1, 1))
                        .encode());
                break;
              case 1:
                ops.push_back(
                    MicroOp::rowMask(Range(0, g.rows / 2 - 1, 1))
                        .encode());
                break;
              default:
                ops.push_back(
                    MicroOp::rowMask(randomRange(rng, g.rows))
                        .encode());
                break;
            }
            break;
          case 2:
          case 3: {
            // Short Write bursts over distinct slots: stripe fodder.
            const uint32_t n = 1 + rng.word() % 4;
            const uint32_t base = rng.word() % ns;
            for (uint32_t k = 0; k < n; ++k)
                ops.push_back(
                    MicroOp::write((base + k) % ns, rng.word())
                        .encode());
            break;
          }
          case 4:
          case 5: {
            const uint32_t out = g.column(rng.word() % ns, 0);
            ops.push_back(
                MicroOp::logicH(rng.word() % 2 ? Gate::Init1
                                               : Gate::Init0,
                                0, 0, out, g.partitions - 1, 1)
                    .encode());
            break;
          }
          case 6:
          case 7:
          case 8: {
            uint32_t a = rng.word() % ns;
            uint32_t b = rng.word() % ns;
            uint32_t c = rng.word() % ns;
            if (a == c)
                a = (a + 1) % ns;
            if (b == c)
                b = (b + 2) % ns;
            if (b == c)
                b = (b + 1) % ns;
            const bool isNot = rng.word() % 2;
            ops.push_back(MicroOp::logicH(isNot ? Gate::Not
                                                : Gate::Nor,
                                          g.column(a, 0),
                                          g.column(isNot ? a : b, 0),
                                          g.column(c, 0),
                                          g.partitions - 1, 1)
                              .encode());
            break;
          }
          case 9:
          case 10: {
            // LogicV run on one slot (the VRun chunking unit).
            static const Gate kVGates[] = {Gate::Init0, Gate::Init1,
                                           Gate::Not};
            const uint32_t slot = rng.word() % ns;
            const uint32_t n = 1 + rng.word() % 3;
            for (uint32_t k = 0; k < n; ++k)
                ops.push_back(MicroOp::logicV(kVGates[rng.word() % 3],
                                              rng.word() % g.rows,
                                              rng.word() % g.rows,
                                              slot)
                                  .encode());
            break;
          }
          default: {
            // Data-less Read (single-crossbar, single-row masks).
            ops.push_back(MicroOp::crossbarMask(Range::single(
                                                    rng.word() %
                                                    g.numCrossbars))
                              .encode());
            ops.push_back(
                MicroOp::rowMask(Range::single(rng.word() % g.rows))
                    .encode());
            ops.push_back(
                MicroOp::read(rng.word() % ns).encode());
            break;
          }
        }
    }
    return ops;
}

/** Geometries the fuzz runs at: one word per column, and eight (one
 *  paged block, long enough for the vectorised word loops). */
std::vector<Geometry>
fuzzGeometries()
{
    Geometry deep = fuzzGeometry();
    deep.rows = 512;
    return {fuzzGeometry(), deep};
}

/** Seed every sink with identical random register contents in the
 *  slots below @p slots (0: all of them), one bulk scatter per
 *  register column. */
template <typename Sink>
void
seedState(Sink &s, uint64_t seed, const Geometry &g, uint32_t slots = 0)
{
    Rng rng(seed);
    const uint32_t ns = slots ? slots : g.slots();
    std::vector<uint32_t> column(g.rows);
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
        for (uint32_t slot = 0; slot < ns; ++slot) {
            for (uint32_t &v : column)
                v = rng.word();
            s.crossbar(xb).scatterRows(slot, 0, g.rows, column.data());
        }
}

/**
 * Directed-stream helper: full crossbar mask + the given row mask,
 * then @p body, compiled through prepareTrace on a serial simulator.
 */
std::shared_ptr<const BatchTrace>
compileStream(const Geometry &g, const Range &rowMask,
              const std::vector<Word> &body, bool fuse = false)
{
    std::vector<Word> ops;
    ops.push_back(
        MicroOp::crossbarMask(Range(0, g.numCrossbars - 1, 1))
            .encode());
    ops.push_back(MicroOp::rowMask(rowMask).encode());
    ops.insert(ops.end(), body.begin(), body.end());
    Simulator sim(g, EngineConfig::serial());
    auto trace = sim.prepareTrace(ops.data(), ops.size(), fuse);
    EXPECT_NE(trace, nullptr);
    return trace;
}

Word
initH(const Geometry &g, Gate gate, uint32_t slot)
{
    return MicroOp::logicH(gate, 0, 0, g.column(slot, 0),
                           g.partitions - 1, 1)
        .encode();
}

Word
norH(const Geometry &g, uint32_t a, uint32_t b, uint32_t out)
{
    return MicroOp::logicH(Gate::Nor, g.column(a, 0), g.column(b, 0),
                           g.column(out, 0), g.partitions - 1, 1)
        .encode();
}

/** Expansion headers and arena sections held by a trace. */
struct HeldExpansions
{
    size_t headers = 0, sections = 0;
    bool operator==(const HeldExpansions &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const HeldExpansions &h)
{
    return os << h.headers << " headers, " << h.sections << " sections";
}

HeldExpansions
heldExpansions(const BatchTrace &t)
{
    HeldExpansions h;
    for (const SegmentTrace &seg : t.segments) {
        h.headers += seg.halfGates.size();
        h.sections += seg.sections.size();
    }
    return h;
}

/**
 * What a decoded (uncompiled) trace of @p ops must hold: each segment
 * interns one header per distinct LogicH word with that word's active
 * sections only (one per encoded gate, no idle ones), and every INIT1
 * chain merge appends one header whose run is the two merged runs
 * back to back (the headers past the segment's distinct words).
 */
HeldExpansions
internedExpansions(const std::vector<Word> &ops, const BatchTrace &t,
                   const Geometry &g)
{
    HeldExpansions h;
    uint32_t seg = 0;
    bool work = false;  //!< the open segment holds a work op
    std::set<Word> words;
    const auto closeSegment = [&] {
        // Mask-only segments are dropped from the trace; the others
        // map onto its segments in stream order.
        if (!work)
            return;
        const SegmentTrace &st = t.segments[seg++];
        for (Word w : words)
            h.sections += expandLogicH(MicroOp::decode(w), g).numGates;
        for (size_t k = words.size(); k < st.halfGates.size(); ++k)
            h.sections += st.halfGates[k].count;
        h.headers += words.size();
        words.clear();
        work = false;
    };
    for (Word w : ops) {
        const OpType type = enc::peekType(w);
        if (isBarrierOp(type)) {
            closeSegment();
        } else if (type != OpType::CrossbarMask &&
                   type != OpType::RowMask) {
            work = true;
            if (type == OpType::LogicH)
                words.insert(w);
        }
    }
    closeSegment();
    h.headers += t.fusion.initChain;
    return h;
}

/**
 * Every decode arena of every segment of @p t is freed, and every
 * compiled program is trimmed to its size.
 */
void
expectNoDecodeArenas(const BatchTrace &t)
{
    EXPECT_EQ(heldExpansions(t), HeldExpansions{});
    for (const SegmentTrace &seg : t.segments) {
        EXPECT_EQ(seg.halfGates.capacity(), 0u);
        EXPECT_EQ(seg.sections.capacity(), 0u);
        EXPECT_EQ(seg.ops.capacity(), 0u);
        EXPECT_EQ(seg.rowWords.capacity(), 0u);
        EXPECT_EQ(seg.rowMaskFull.capacity(), 0u);
        EXPECT_EQ(seg.writePairs.capacity(), 0u);
    }
    for (const ReplayProgram &p : t.programs) {
        EXPECT_EQ(p.instrs.capacity(), p.instrs.size());
        EXPECT_EQ(p.sections.capacity(), p.sections.size());
        EXPECT_EQ(p.pairs.capacity(), p.pairs.size());
        EXPECT_EQ(p.vgates.capacity(), p.vgates.size());
        EXPECT_EQ(p.maskWords.capacity(), p.maskWords.size());
    }
}

class ReplayProgramFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t, size_t>>
{
};

} // namespace

TEST_P(ReplayProgramFuzz, CompiledReplayBitIdenticalToSerialOracle)
{
    const auto [seed, caseIdx, buildIdx] = GetParam();
    PYPIM_USE_REPLAY_BUILD(buildIdx);
    const EngineCase &ec = engineCase(caseIdx);
    constexpr int kReplays = 3;
    for (const Geometry &g : fuzzGeometries()) {
        SCOPED_TRACE(std::to_string(g.rows) + " rows");

        // Paged runs twice. Seeded in full, a crossbar is promoted to the
        // dense slab at its first replay. Seeded and driven on a quarter
        // of the slots, it stays under the promotion threshold and every
        // replay runs the paged kernels.
        struct FillCase
        {
            XbarStorage storage;
            uint32_t slots;
        };
        const FillCase fills[] = {{XbarStorage::Dense, g.slots()},
                                  {XbarStorage::Paged, g.slots()},
                                  {XbarStorage::Paged, g.slots() / 4}};
        for (const FillCase &fc : fills) {
            Rng streamRng(seed);
            const std::vector<Word> ops =
                randomTraceStream(streamRng, g, 140, fc.slots);
            const bool sparse = fc.slots < g.slots();
            {
                // Before it is compiled, the fused trace interns exactly
                // one compact expansion per distinct LogicH word and
                // segment.
                const HTree htree(g.numCrossbars);
                MaskState mask;
                mask.reset(g);
                BatchTrace decoded;
                buildBatchTrace(ops.data(), ops.size(), g, htree, mask,
                                decoded);
                fuseBatchTrace(decoded, g);
                EXPECT_EQ(heldExpansions(decoded),
                          internedExpansions(ops, decoded, g));
            }
            for (uint32_t devices : {1u, 2u, 4u}) {
                const EngineConfig base =
                    ec.cfg.withStorage(fc.storage).withDevices(devices);
                // Raw-stream serial Dense reference and compiled replay of
                // ONE stream from ONE seeded state.
                Simulator oracle(
                    g, EngineConfig::serial().withStorage(XbarStorage::Dense));
                SimulatorGroup compiled(g, base);
                seedState(oracle, seed, g, fc.slots);
                seedState(compiled, seed, g, fc.slots);

                auto tc =
                    compiled.prepareTrace(ops.data(), ops.size(), true);
                ASSERT_NE(tc, nullptr);
                ASSERT_EQ(tc->programs.size(), tc->segments.size());
                // Compiled segments drop their half-gate expansions.
                EXPECT_EQ(heldExpansions(*tc), HeldExpansions{});

                for (int rep = 0; rep < kReplays; ++rep) {
                    oracle.performBatch(ops.data(), ops.size());
                    compiled.submitTrace(tc);
                }
                compiled.flush();
                for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
                    ASSERT_TRUE(oracle.crossbar(xb).sameState(
                        compiled.crossbar(xb)))
                        << ec.name << " compiled crossbar " << xb;
                EXPECT_EQ(oracle.stats(), compiled.stats()) << ec.name;
                for (uint32_t d = 1; d < devices; ++d)
                    EXPECT_EQ(compiled.sub(0).stats(),
                              compiled.sub(d).stats())
                        << ec.name << " sub " << d;
                const uint64_t slabs =
                    compiled.storageGauges().slabCrossbars;
                if (fc.storage == XbarStorage::Dense)
                    EXPECT_EQ(slabs, g.numCrossbars) << ec.name;
                else if (sparse)
                    EXPECT_EQ(slabs, 0u)
                        << ec.name << ": a sparse crossbar must stay paged";
                else
                    EXPECT_GT(slabs, 0u)
                        << ec.name << ": a full crossbar must promote";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, ReplayProgramFuzz,
    ::testing::Combine(
        ::testing::Values(101ull, 211ull, 307ull),
        ::testing::Range<size_t>(0, numEngineCases),
        ::testing::Range<size_t>(0, Crossbar::replayBuilds().size())),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "_" +
               engineCase(std::get<1>(info.param)).name + "_" +
               test::replayBuildName(std::get<2>(info.param));
    });

TEST(ReplayProgramWork, PoolDiagnosticsCountOpsTimesCrossbars)
{
    // The pool path charges the work-stealing diagnostics through
    // precomputed per-instruction (or per-crossbar) counts. Unfused,
    // the merged total must equal every architectural work op times
    // the crossbars its mask selects (a fused INIT+gate pair charges
    // both ops). Which worker claims which chunk is scheduling-
    // dependent, so only the merged totals compare. The one-thread
    // path replays inline and charges nothing.
    const Geometry g = fuzzGeometry();
    Rng rng(4242);
    const std::vector<Word> ops = randomTraceStream(rng, g, 200);
    Stats expected;
    Range xb = Range::all(g.numCrossbars);
    for (Word w : ops) {
        const MicroOp op = MicroOp::decode(w);
        switch (op.type) {
          case OpType::CrossbarMask:
            xb = op.range;
            break;
          case OpType::Write:
            expected.recordN(OpClass::Write, xb.count());
            break;
          case OpType::LogicH:
            expected.recordN(OpClass::LogicH, xb.count());
            break;
          case OpType::LogicV:
            expected.recordN(OpClass::LogicV, xb.count());
            break;
          default:
            break;
        }
    }
    ASSERT_GT(expected.opCount[static_cast<size_t>(OpClass::LogicH)],
              0u);
    constexpr uint64_t kReps = 2;
    for (uint32_t threads : {1u, 3u}) {
        Simulator sim(g, EngineConfig{}.withThreads(threads));
        seedState(sim, 4242, g);
        auto trace = sim.prepareTrace(ops.data(), ops.size(), false);
        ASSERT_NE(trace, nullptr);
        for (uint64_t rep = 0; rep < kReps; ++rep)
            sim.submitTrace(trace);
        const Stats merged = Stats::merged(sim.engine().shardWork());
        for (size_t c = 0; c < Stats::numClasses; ++c)
            EXPECT_EQ(merged.opCount[c],
                      threads == 1 ? 0u : kReps * expected.opCount[c])
                << threads << " threads, class " << c;
    }
}

TEST(ReplayProgramCompile, IndependentGatesMergeIntoOnePass)
{
    // INIT1 s0; NOR(s1,s2)->s3; NOT(s4)->s5 under one full mask:
    // pairwise column-disjoint, so ONE pass of 3 x partitions
    // sections carrying the work of three architectural ops.
    const Geometry g = testGeometry();
    const auto t = compileStream(
        g, Range(0, g.rows - 1, 1),
        {initH(g, Gate::Init1, 0), norH(g, 1, 2, 3),
         MicroOp::logicH(Gate::Not, g.column(4, 0), g.column(4, 0),
                         g.column(5, 0), g.partitions - 1, 1)
             .encode()});
    ASSERT_EQ(t->programs.size(), 1u);
    const ReplayProgram &p = t->programs[0];
    ASSERT_EQ(p.instrs.size(), 1u);
    EXPECT_EQ(p.instrs[0].kind, ReplayProgram::Kind::HPass);
    EXPECT_EQ(p.instrs[0].count, 3 * g.partitions);
    EXPECT_EQ(p.instrs[0].work, 3u);
    EXPECT_TRUE(p.allMasksFull);
    EXPECT_TRUE(p.uniformXb);
    EXPECT_EQ(p.workLogicH, 3u);
}

TEST(ReplayProgramCompile, MaskChangeBreaksThePass)
{
    // A DIFFERENT row mask between two otherwise-mergeable gates
    // forces a second pass; re-issuing the IDENTICAL mask does not
    // (snapshots dedup by content, so the merge sees one mask id).
    const Geometry g = testGeometry();
    std::vector<Word> changed = {
        initH(g, Gate::Init0, 0),
        MicroOp::rowMask(Range(0, g.rows / 2 - 1, 1)).encode(),
        initH(g, Gate::Init0, 1)};
    const auto tChanged =
        compileStream(g, Range(0, g.rows - 1, 1), changed);
    ASSERT_EQ(tChanged->programs[0].instrs.size(), 2u);
    EXPECT_FALSE(tChanged->programs[0].allMasksFull);
    EXPECT_EQ(tChanged->programs[0].instrs[1].maskFull, 0u);

    std::vector<Word> reissued = {
        initH(g, Gate::Init0, 0),
        MicroOp::rowMask(Range(0, g.rows - 1, 1)).encode(),
        initH(g, Gate::Init0, 1)};
    const auto tSame =
        compileStream(g, Range(0, g.rows - 1, 1), reissued);
    EXPECT_EQ(tSame->programs[0].instrs.size(), 1u);
}

TEST(ReplayProgramCompile, EqualPassRunsShareOneSectionRun)
{
    // The same lane NOT under three row masks (a captured move
    // sequence's shape): three passes, one stored section run. A pass
    // of a different gate keeps its own run.
    const Geometry g = testGeometry();
    std::vector<Word> body;
    for (uint32_t row : {3u, 9u, 3u}) {
        body.push_back(MicroOp::rowMask(Range::single(row)).encode());
        body.push_back(norH(g, 1, 1, 2));
    }
    body.push_back(MicroOp::rowMask(Range::single(20)).encode());
    body.push_back(initH(g, Gate::Init0, 5));
    const auto t = compileStream(g, Range(0, g.rows - 1, 1), body);
    const ReplayProgram &p = t->programs[0];
    ASSERT_EQ(p.instrs.size(), 4u);
    for (size_t i = 1; i < 3; ++i) {
        EXPECT_EQ(p.instrs[i].off, p.instrs[0].off);
        EXPECT_EQ(p.instrs[i].count, p.instrs[0].count);
    }
    EXPECT_NE(p.instrs[3].off, p.instrs[0].off);
    EXPECT_EQ(p.sections.size(),
              size_t{p.instrs[0].count} + p.instrs[3].count);
}

TEST(ReplayProgramCompile, StatefulGateAliasingBreaksThePass)
{
    const Geometry g = testGeometry();
    // Read-after-write: the second NOR reads the first's output.
    const auto raw = compileStream(g, Range(0, g.rows - 1, 1),
                                   {norH(g, 0, 1, 2), norH(g, 2, 3, 4)});
    EXPECT_EQ(raw->programs[0].instrs.size(), 2u);
    // Write-after-write: both drive the same output column (a
    // stateful NOR also reads its own output, so order matters).
    const auto waw = compileStream(g, Range(0, g.rows - 1, 1),
                                   {norH(g, 0, 1, 2), norH(g, 3, 4, 2)});
    EXPECT_EQ(waw->programs[0].instrs.size(), 2u);
    // Write-after-read: the INIT would clobber a column the open
    // pass's NOR read.
    const auto war =
        compileStream(g, Range(0, g.rows - 1, 1),
                      {norH(g, 0, 1, 2), initH(g, Gate::Init1, 0)});
    EXPECT_EQ(war->programs[0].instrs.size(), 2u);
    // Disjoint reads are NOT aliasing: two NORs sharing inputs merge.
    const auto shared =
        compileStream(g, Range(0, g.rows - 1, 1),
                      {norH(g, 0, 1, 2), norH(g, 0, 1, 3)});
    EXPECT_EQ(shared->programs[0].instrs.size(), 1u);
}

TEST(ReplayProgramCompile, SectionCapacitySplitsThePass)
{
    // 9 disjoint full-width INITs = 9 x 32 sections; the 256-section
    // pass budget admits exactly 8 of them.
    const Geometry g = testGeometry();
    std::vector<Word> body;
    for (uint32_t s = 0; s < 9; ++s)
        body.push_back(initH(g, Gate::Init0, s));
    const auto t = compileStream(g, Range(0, g.rows - 1, 1), body);
    const ReplayProgram &p = t->programs[0];
    ASSERT_EQ(p.instrs.size(), 2u);
    EXPECT_EQ(p.instrs[0].count, 256u);
    EXPECT_EQ(p.instrs[0].work, 8u);
    EXPECT_EQ(p.instrs[1].count, g.partitions);
    EXPECT_EQ(p.instrs[1].work, 1u);
}

TEST(ReplayProgramCompile, ShortRowsNeverFlagFull)
{
    // rows < 64: even the all-rows mask realizes a partial tail word.
    // Flagging it full would let the fill kernels set padding bits
    // that raw-word state comparison (and gather) would then observe.
    Geometry g = testGeometry();
    g.rows = 32;
    const auto t = compileStream(g, Range(0, g.rows - 1, 1),
                                 {initH(g, Gate::Init1, 0)});
    const ReplayProgram &p = t->programs[0];
    EXPECT_FALSE(p.allMasksFull);
    EXPECT_EQ(p.instrs[0].maskFull, 0u);
}

TEST(ReplayProgramCompile, StripesAndVRunsArePrechunked)
{
    const Geometry g = testGeometry();
    // 4 distinct-slot Writes fuse into one stripe; the compiled form
    // carries the pairs inline with work = stripe width.
    std::vector<Word> body;
    for (uint32_t s = 0; s < 4; ++s)
        body.push_back(MicroOp::write(s, 0xA0 + s).encode());
    const auto tw =
        compileStream(g, Range(0, g.rows - 1, 1), body, true);
    const ReplayProgram &pw = tw->programs[0];
    ASSERT_EQ(pw.instrs.size(), 1u);
    EXPECT_EQ(pw.instrs[0].kind, ReplayProgram::Kind::WStripe);
    EXPECT_EQ(pw.instrs[0].count, 4u);
    EXPECT_EQ(pw.instrs[0].work, 4u);
    EXPECT_EQ(pw.workWrites, 4u);

    // Same-slot LogicV ops chain into one run; a crossbar-mask change
    // in between starts a new one.
    std::vector<Word> vbody = {
        MicroOp::logicV(Gate::Init1, 1, 2, 5).encode(),
        MicroOp::logicV(Gate::Not, 2, 3, 5).encode(),
        MicroOp::logicV(Gate::Init0, 0, 1, 5).encode(),
        MicroOp::crossbarMask(Range(0, g.numCrossbars - 2, 2))
            .encode(),
        MicroOp::logicV(Gate::Init1, 4, 5, 5).encode()};
    const auto tv = compileStream(g, Range(0, g.rows - 1, 1), vbody);
    const ReplayProgram &pv = tv->programs[0];
    ASSERT_EQ(pv.instrs.size(), 2u);
    EXPECT_EQ(pv.instrs[0].kind, ReplayProgram::Kind::VRun);
    EXPECT_EQ(pv.instrs[0].count, 3u);
    EXPECT_EQ(pv.instrs[1].count, 1u);
    EXPECT_FALSE(pv.uniformXb);
    EXPECT_EQ(pv.workLogicV, 4u);
}

TEST(ReplayProgramStats, RecordNMatchesRepeatedRecord)
{
    Stats a, b;
    a.recordN(OpClass::Write, 5);
    a.recordN(OpClass::LogicH, 0);
    for (int i = 0; i < 5; ++i)
        b.record(OpClass::Write);
    EXPECT_EQ(a, b);
}

// --- retention: what a frozen compiled trace keeps ----------------------

namespace
{

/** A self-contained stream with repeated LogicH gates on both sides
 *  of a barrier Move, so the trace has two LogicH segments. */
std::vector<Word>
retentionStream(const Geometry &g)
{
    return {MicroOp::crossbarMask(Range(0, g.numCrossbars - 1, 1))
                .encode(),
            MicroOp::rowMask(Range(0, g.rows - 1, 1)).encode(),
            MicroOp::write(0, 0x0F0F0F0Fu).encode(),
            initH(g, Gate::Init1, 2),
            norH(g, 0, 1, 2),
            MicroOp::crossbarMask(Range(0, 0, 1)).encode(),
            MicroOp::move(1, 3, 4, 2, 6).encode(),
            MicroOp::crossbarMask(Range(0, g.numCrossbars - 1, 1))
                .encode(),
            initH(g, Gate::Init1, 3),
            norH(g, 2, 6, 3)};
}

} // namespace

TEST(ReplayProgramRetention, PreparedTraceHoldsNoDecodeArenas)
{
    const Geometry g = fuzzGeometry();
    const std::vector<Word> ops = retentionStream(g);
    for (bool fuse : {false, true}) {
        Simulator oracle(g);
        Simulator compiled(g, EngineConfig::serial());
        seedState(oracle, 77, g);
        seedState(compiled, 77, g);
        const auto tc = compiled.prepareTrace(ops.data(), ops.size(), fuse);
        ASSERT_NE(tc, nullptr);
        ASSERT_EQ(tc->segments.size(), 2u);
        ASSERT_EQ(tc->programs.size(), tc->segments.size());
        expectNoDecodeArenas(*tc);
        for (int rep = 0; rep < 3; ++rep) {
            oracle.performBatch(ops.data(), ops.size());
            compiled.submitTrace(tc);
        }
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
            ASSERT_TRUE(oracle.crossbar(xb).sameState(
                compiled.crossbar(xb)));
        EXPECT_EQ(oracle.stats(), compiled.stats());
    }
}

TEST(ReplayProgramRetention, WireTracesHoldNoDecodeArenas)
{
    const Geometry g = fuzzGeometry();
    const HTree htree(g.numCrossbars);
    const std::vector<Word> ops = retentionStream(g);
    const auto sent =
        buildWireTrace(ops.data(), ops.size(), true, g, htree);
    ASSERT_NE(sent, nullptr);
    // The host ships the source ops and keeps neither arenas nor
    // programs: it never replays a wire trace.
    EXPECT_EQ(sent->sourceOps, ops);
    EXPECT_TRUE(sent->programs.empty());
    expectNoDecodeArenas(*sent);
    // What a shard worker installs: rebuilt from the wire image and
    // compiled there.
    const std::vector<uint8_t> image = encodeTraceWire(*sent);
    const auto got = decodeTraceWire(image.data(), image.size(), g, htree);
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->programs.size(), got->segments.size());
    expectNoDecodeArenas(*got);

    Simulator oracle(g);
    Simulator worker(g);
    seedState(oracle, 91, g);
    seedState(worker, 91, g);
    for (int rep = 0; rep < 2; ++rep) {
        oracle.performBatch(ops.data(), ops.size());
        worker.submitTrace(got);
    }
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
        ASSERT_TRUE(oracle.crossbar(xb).sameState(worker.crossbar(xb)))
            << "crossbar " << xb;
    EXPECT_EQ(oracle.stats(), worker.stats());
}

namespace
{

/** Tensor program whose warm pass hits the driver's trace cache. */
std::vector<int32_t>
retentionProgram(Device &dev, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int32_t> va(200), vb(200);
    for (size_t i = 0; i < va.size(); ++i) {
        va[i] = static_cast<int32_t>(rng.word());
        vb[i] = static_cast<int32_t>(rng.word() | 1);
    }
    Tensor a = Tensor::fromVector(va, &dev);
    Tensor b = Tensor::fromVector(vb, &dev);
    Tensor c = (a * b + a) ^ b;
    return c.toIntVector();
}

/** Same crossbar state and architectural Stats (canonical images
 *  when worker processes own the crossbars). */
::testing::AssertionResult
sameDevice(Device &a, Device &b)
{
    a.flush();
    b.flush();
    auto image = [](const SimulatorGroup &grp) {
        CheckpointImage img = buildGroupImage(grp);
        img.storage = XbarStorage::Paged;
        img.deviceCount = 1;
        return encodeCheckpoint(img);
    };
    if (image(a.group()) != image(b.group()))
        return ::testing::AssertionFailure() << "crossbar state diverged";
    if (!(a.stats() == b.stats()))
        return ::testing::AssertionFailure() << "stats diverged";
    return ::testing::AssertionSuccess();
}

/** Run the program on both devices; require equal results and state. */
::testing::AssertionResult
stepMatches(Device &cand, Device &oracle, uint64_t seed)
{
    if (retentionProgram(cand, seed) != retentionProgram(oracle, seed))
        return ::testing::AssertionFailure() << "readback diverged";
    return sameDevice(cand, oracle);
}

} // namespace

class ReplayProgramDevicePaths
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

TEST_P(ReplayProgramDevicePaths, MatchSerialOracle)
{
    // The candidate follows the environment (under the socket rows it
    // is a worker fleet that installs traces from the wire); the
    // oracle is the serial raw-stream device.
    const auto [buildIdx, geoIdx] = GetParam();
    PYPIM_USE_REPLAY_BUILD(buildIdx);
    const Geometry g = fuzzGeometries()[geoIdx];
    EngineConfig oracleCfg = EngineConfig::serial();
    oracleCfg.traceCache = false;
    const EngineConfig candCfg = EngineConfig::fromEnv();
    Device oracle(g, Driver::Mode::Parallel, oracleCfg);
    Device cand(g, Driver::Mode::Parallel, candCfg);

    // Cold pass builds and freezes the traces; warm passes replay them.
    for (uint64_t seed : {1, 2, 3})
        ASSERT_TRUE(stepMatches(cand, oracle, seed)) << "warm " << seed;

    // Fusion toggle: every trace is rebuilt under the new setting.
    cand.driver().setTraceFusionEnabled(false);
    ASSERT_TRUE(stepMatches(cand, oracle, 4)) << "fusion off";
    cand.driver().setTraceFusionEnabled(true);
    ASSERT_TRUE(stepMatches(cand, oracle, 5)) << "fusion on";

    // Checkpoint restore: the stream cache is imported and its traces
    // rebuilt on first use.
    const std::string path = ::testing::TempDir() + "pypim_retention_" +
                             std::to_string(reinterpret_cast<uintptr_t>(
                                 &cand)) +
                             ".ckpt";
    cand.checkpoint(path);
    Device restored(g, Driver::Mode::Parallel, candCfg);
    restored.restore(path);
    std::remove(path.c_str());
    ASSERT_TRUE(stepMatches(restored, oracle, 9)) << "restored";
    ASSERT_TRUE(stepMatches(restored, oracle, 10)) << "restored warm";
}

INSTANTIATE_TEST_SUITE_P(
    Builds, ReplayProgramDevicePaths,
    ::testing::Combine(
        ::testing::Range<size_t>(0, Crossbar::replayBuilds().size()),
        ::testing::Range<size_t>(0, fuzzGeometries().size())),
    [](const auto &info) {
        return test::replayBuildName(std::get<0>(info.param)) + "_rows" +
               std::to_string(
                   fuzzGeometries()[std::get<1>(info.param)].rows);
    });
