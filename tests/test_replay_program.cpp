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
 * enough for the vectorised word loops). The sparse paged fill keeps
 * every crossbar under the promotion threshold, so the table form runs
 * under compiled replay. The directed tests pin the COMPILER's decisions — when LogicH ops may
 * and may not merge into one pass (mask change, section capacity,
 * stateful-gate aliasing), how Writes and LogicV runs chunk, when
 * the all-ones mask specialisation may fire, and when the liveness
 * scan may fuse an INIT1 section into its NOR or drop a dead one
 * (each of those cases also replays against the op-major oracle at 64
 * and 512 rows). The retention tests
 * pin what a frozen trace keeps: its programs, but no decode arenas,
 * and one shared copy of each distinct row mask.
 */
#include <gtest/gtest.h>

#include <algorithm>
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
 * specialisation boundary, plus bursts of Writes and LogicV runs,
 * and biased to reuse output columns so the compiler's liveness scan
 * fires: INIT1 chains later driven by NORs, and overwrites with no
 * read in between. Every slot it names is below @p slots (0: all of
 * them).
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
    // A random slot other than @p c (ns >= 8 at every fill).
    const auto otherSlot = [&](uint32_t c) {
        return (c + 1 + rng.word() % (ns - 1)) % ns;
    };
    const auto laneOp = [&](Gate gate, uint32_t a, uint32_t b,
                            uint32_t out) {
        ops.push_back(MicroOp::logicH(gate, g.column(a, 0),
                                      g.column(b, 0), g.column(out, 0),
                                      g.partitions - 1, 1)
                          .encode());
    };
    while (ops.size() < len) {
        switch (rng.word() % 14) {
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
            // Short Write bursts over distinct slots.
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
          case 12: {
            // Liveness fodder, the driver's idiom: INIT1 c, INIT1 d,
            // maybe an unrelated gate, then a NOR into each: the
            // replay compiler fuses every INIT1 section into its NOR.
            const uint32_t c = rng.word() % ns;
            const uint32_t d = otherSlot(c);
            uint32_t a = otherSlot(c), b = otherSlot(c);
            while (a == d || b == d) {
                a = otherSlot(c);
                b = otherSlot(c);
            }
            laneOp(Gate::Init1, 0, 0, c);
            laneOp(Gate::Init1, 0, 0, d);
            if (rng.word() % 2) {
                uint32_t e = otherSlot(c);
                while (e == d || e == a || e == b)
                    e = otherSlot(c);
                laneOp(Gate::Nor, a, b, e);
            }
            laneOp(Gate::Nor, a, b, c);
            laneOp(Gate::Nor, a, b, d);
            break;
          }
          case 13: {
            // Overwrite with no read in between: a dead store of c.
            const uint32_t c = rng.word() % ns;
            const uint32_t a = otherSlot(c), b = otherSlot(c);
            switch (rng.word() % 3) {
              case 0:  laneOp(Gate::Init0, 0, 0, c); break;
              case 1:  laneOp(Gate::Init1, 0, 0, c); break;
              default: laneOp(Gate::Nor, a, b, c); break;
            }
            laneOp(rng.word() % 2 ? Gate::Init1 : Gate::Init0, 0, 0, c);
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

/** Geometries the fuzz runs at: one word per column, eight (one
 *  paged block, long enough for the vectorised word loops) and sixteen
 *  (the Table III height: two blocks per column, so the paged block
 *  loop runs). */
std::vector<Geometry>
fuzzGeometries()
{
    Geometry deep = fuzzGeometry();
    deep.rows = 512;
    Geometry tall = fuzzGeometry();
    tall.rows = 1024;
    return {fuzzGeometry(), deep, tall};
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
              const std::vector<Word> &body)
{
    std::vector<Word> ops;
    ops.push_back(
        MicroOp::crossbarMask(Range(0, g.numCrossbars - 1, 1))
            .encode());
    ops.push_back(MicroOp::rowMask(rowMask).encode());
    ops.insert(ops.end(), body.begin(), body.end());
    Simulator sim(g, EngineConfig::serial());
    auto trace = sim.prepareTrace(ops.data(), ops.size());
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
 * sections only (one per encoded gate, no idle ones).
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
        ++seg;
        for (Word w : words)
            h.sections += expandLogicH(MicroOp::decode(w), g).numGates;
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
    EXPECT_EQ(seg, t.segments.size());
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
    }
    for (const ReplayProgram &p : t.programs) {
        EXPECT_EQ(p.instrs.capacity(), p.instrs.size());
        EXPECT_EQ(p.sections.capacity(), p.sections.size());
        EXPECT_EQ(p.pairs.capacity(), p.pairs.size());
        EXPECT_EQ(p.vgates.capacity(), p.vgates.size());
        EXPECT_EQ(p.masks.capacity(), p.masks.size());
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
                // Before it is compiled, the trace interns exactly one
                // compact expansion per distinct LogicH word and
                // segment.
                const HTree htree(g.numCrossbars);
                MaskState mask;
                mask.reset(g);
                BatchTrace decoded;
                buildBatchTrace(ops.data(), ops.size(), g, htree, mask,
                                decoded);
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

                auto tc = compiled.prepareTrace(ops.data(), ops.size());
                ASSERT_NE(tc, nullptr);
                ASSERT_EQ(tc->programs.size(), tc->segments.size());
                // The liveness scan must have rewritten something, or
                // the oracle comparison would not test it.
                EXPECT_GT(tc->liveness.fused, 0u) << ec.name;
                EXPECT_GT(tc->liveness.dead, 0u) << ec.name;
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
    // precomputed per-instruction (or per-crossbar) counts. The merged
    // total must equal every architectural work op times the crossbars
    // its mask selects (an op whose sections the liveness scan dropped
    // still charges its work). Which worker claims which chunk is scheduling-
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
        auto trace = sim.prepareTrace(ops.data(), ops.size());
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

TEST(ReplayProgramCompile, WritesAndVRunsArePrechunked)
{
    const Geometry g = testGeometry();
    // Each Write compiles to its own one-pair instruction.
    std::vector<Word> body;
    for (uint32_t s = 0; s < 4; ++s)
        body.push_back(MicroOp::write(s, 0xA0 + s).encode());
    const auto tw = compileStream(g, Range(0, g.rows - 1, 1), body);
    const ReplayProgram &pw = tw->programs[0];
    ASSERT_EQ(pw.instrs.size(), 4u);
    ASSERT_EQ(pw.pairs.size(), 4u);
    for (uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(pw.instrs[s].kind, ReplayProgram::Kind::Write);
        EXPECT_EQ(pw.instrs[s].count, 1u);
        EXPECT_EQ(pw.instrs[s].work, 1u);
        EXPECT_EQ(pw.pairs[pw.instrs[s].off].slot, s);
        EXPECT_EQ(pw.pairs[pw.instrs[s].off].value, 0xA0 + s);
    }
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

// --- section liveness ----------------------------------------------------

namespace
{

using SK = ReplayProgram::SecKind;

/** Sections of kind @p k one crossbar replays under @p p. */
uint32_t
replayedSections(const ReplayProgram &p, SK k)
{
    uint32_t n = 0;
    for (const ReplayProgram::Instr &in : p.instrs)
        if (in.kind == ReplayProgram::Kind::HPass)
            for (uint32_t s = 0; s < in.count; ++s)
                n += p.sections[in.off + s].kind == k;
    return n;
}

/**
 * Compile body(g) (after all-crossbars, all-rows masks) at 64 and 512
 * rows and hand the trace to check(trace, g); then replay it against
 * the op-major oracle from one seeded state: crossbar state and Stats
 * must match bit for bit.
 */
template <typename Body, typename Check>
void
livenessCase(Body &&body, Check &&check)
{
    for (const Geometry &g : fuzzGeometries()) {
        SCOPED_TRACE(std::to_string(g.rows) + " rows");
        std::vector<Word> ops = {
            MicroOp::crossbarMask(Range::all(g.numCrossbars)).encode(),
            MicroOp::rowMask(Range::all(g.rows)).encode()};
        const std::vector<Word> b = body(g);
        ops.insert(ops.end(), b.begin(), b.end());
        Simulator oracle(
            g, EngineConfig::serial().withStorage(XbarStorage::Dense));
        Simulator compiled(g, EngineConfig::serial());
        seedState(oracle, 77, g);
        seedState(compiled, 77, g);
        const auto trace = compiled.prepareTrace(ops.data(), ops.size());
        ASSERT_NE(trace, nullptr);
        ASSERT_EQ(trace->programs.size(), 1u);
        check(*trace, g);
        oracle.performBatch(ops.data(), ops.size());
        compiled.submitTrace(trace);
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
            ASSERT_TRUE(
                oracle.crossbar(xb).sameState(compiled.crossbar(xb)))
                << "crossbar " << xb;
        EXPECT_EQ(oracle.stats(), compiled.stats());
    }
}

Word
rowsOp(uint32_t first, uint32_t last)
{
    return MicroOp::rowMask(Range(first, last, 1)).encode();
}

Word
xbsOp(uint32_t first, uint32_t last)
{
    return MicroOp::crossbarMask(Range(first, last, 1)).encode();
}

} // namespace

TEST(ReplayProgramCompile, LivenessFusesInitChainIntoItsNors)
{
    // cordic's idiom: two INIT1s, then one NOR into each initialised
    // column. Every INIT1 section fuses into its NOR, and the INIT1
    // ops' work rides on the NORs' pass.
    livenessCase(
        [](const Geometry &g) {
            return std::vector<Word>{
                initH(g, Gate::Init1, 2), initH(g, Gate::Init1, 3),
                norH(g, 0, 1, 2), norH(g, 0, 1, 3)};
        },
        [](const BatchTrace &t, const Geometry &g) {
            const uint32_t np = g.partitions;
            const ReplayProgram &p = t.programs[0];
            EXPECT_EQ(p.liveness.sections, 4u * np);
            EXPECT_EQ(p.liveness.fused, 2u * np);
            EXPECT_EQ(p.liveness.dead, 0u);
            EXPECT_EQ(t.liveness.replayed(), 2u * np);
            EXPECT_EQ(replayedSections(p, SK::Init1), 0u);
            EXPECT_EQ(replayedSections(p, SK::FusedNotNor), 2u * np);
            ASSERT_EQ(p.instrs.size(), 1u);
            EXPECT_EQ(p.instrs[0].passKind,
                      static_cast<uint8_t>(SK::FusedNotNor));
            EXPECT_EQ(p.workLogicH, 4u);
            EXPECT_TRUE(p.allMasksFull);
        });
}

TEST(ReplayProgramCompile, LivenessDropsDeadStores)
{
    // Slot 4: INIT0 then INIT1, so the INIT0 is dead. Slot 5: INIT1, a
    // NOR (fused by the scan across a NOR into slot 7) and INIT0, so
    // the fused NOR is dead too.
    // Slot 6: an INIT1 under half the rows, then an all-rows INIT0,
    // whose all-ones mask covers any earlier one.
    livenessCase(
        [](const Geometry &g) {
            return std::vector<Word>{
                initH(g, Gate::Init0, 4), initH(g, Gate::Init1, 4),
                initH(g, Gate::Init1, 5), norH(g, 0, 1, 7),
                norH(g, 0, 1, 5), initH(g, Gate::Init0, 5),
                rowsOp(0, 31),
                initH(g, Gate::Init1, 6), rowsOp(0, g.rows - 1),
                initH(g, Gate::Init0, 6)};
        },
        [](const BatchTrace &t, const Geometry &g) {
            const uint32_t np = g.partitions;
            const ReplayProgram &p = t.programs[0];
            EXPECT_EQ(p.liveness.fused, np);
            EXPECT_EQ(p.liveness.dead, 3u * np);
            EXPECT_EQ(replayedSections(p, SK::Init1), np);
            EXPECT_EQ(replayedSections(p, SK::Init0), 2u * np);
            EXPECT_EQ(replayedSections(p, SK::NotNor), np);
            EXPECT_EQ(replayedSections(p, SK::FusedNotNor), 0u);
            // Work is charged per op, dropped sections or not.
            EXPECT_EQ(p.workLogicH, 8u);
        });
}

TEST(ReplayProgramCompile, LivenessKeepsColumnsReadInBetween)
{
    // Slot 2's INIT1 and slot 6's INIT0 are read before the next
    // write of their column: both stay.
    livenessCase(
        [](const Geometry &g) {
            return std::vector<Word>{
                initH(g, Gate::Init1, 2), norH(g, 2, 0, 5),
                norH(g, 0, 1, 2), initH(g, Gate::Init0, 6),
                norH(g, 6, 0, 7), initH(g, Gate::Init1, 6)};
        },
        [](const BatchTrace &t, const Geometry &g) {
            const ReplayProgram &p = t.programs[0];
            EXPECT_EQ(p.liveness.fused + p.liveness.dead, 0u);
            EXPECT_EQ(replayedSections(p, SK::Init1), 2u * g.partitions);
            EXPECT_EQ(replayedSections(p, SK::Init0), g.partitions);
        });
}

TEST(ReplayProgramCompile, LivenessKeepsInitOfNorReadingItsOutput)
{
    // The NOR reads its own output, all ones after the INIT1, so the
    // INIT1 can neither fuse nor be dead.
    livenessCase(
        [](const Geometry &g) {
            return std::vector<Word>{initH(g, Gate::Init1, 2),
                                     norH(g, 2, 1, 2)};
        },
        [](const BatchTrace &t, const Geometry &g) {
            const ReplayProgram &p = t.programs[0];
            EXPECT_EQ(p.liveness.fused + p.liveness.dead, 0u);
            EXPECT_EQ(replayedSections(p, SK::Init1), g.partitions);
            EXPECT_EQ(replayedSections(p, SK::NotNor), g.partitions);
        });
}

TEST(ReplayProgramCompile, LivenessKeepsWritesUnderAnotherRowMaskId)
{
    // Slot 2: the NOR runs under another row-mask id than its INIT1.
    // Slot 3: an INIT0 and an INIT1 under two partial masks.
    livenessCase(
        [](const Geometry &g) {
            return std::vector<Word>{
                initH(g, Gate::Init1, 2), rowsOp(0, 31),
                norH(g, 0, 1, 2), initH(g, Gate::Init0, 3),
                rowsOp(32, 63), initH(g, Gate::Init1, 3)};
        },
        [](const BatchTrace &t, const Geometry &g) {
            const ReplayProgram &p = t.programs[0];
            EXPECT_EQ(p.liveness.fused + p.liveness.dead, 0u);
            EXPECT_EQ(replayedSections(p, SK::Init1), 2u * g.partitions);
            EXPECT_EQ(replayedSections(p, SK::Init0), g.partitions);
        });
}

TEST(ReplayProgramCompile, LivenessKeepsWritesAPartialMaskMisses)
{
    // An all-rows INIT1, then an INIT0 of its column under half the
    // rows: the INIT1 still holds in the other half.
    livenessCase(
        [](const Geometry &g) {
            return std::vector<Word>{initH(g, Gate::Init1, 3),
                                     rowsOp(0, 31),
                                     initH(g, Gate::Init0, 3)};
        },
        [](const BatchTrace &t, const Geometry &g) {
            const ReplayProgram &p = t.programs[0];
            EXPECT_EQ(p.liveness.dead, 0u);
            EXPECT_EQ(replayedSections(p, SK::Init1), g.partitions);
            EXPECT_EQ(replayedSections(p, SK::Init0), g.partitions);
        });
}

TEST(ReplayProgramCompile, LivenessNeedsTheSameOrAWiderCrossbarRange)
{
    // Slot 2: the NOR runs on crossbars 0-7 only, its INIT1 on all,
    // so no fusion. Slot 4: an all-crossbar INIT0, then an INIT1 on
    // 0-7, so the INIT0 is kept. Slot 3: an INIT0 on 0-7, then an
    // all-crossbar INIT1, whose range contains it, so it is dead.
    livenessCase(
        [](const Geometry &g) {
            return std::vector<Word>{
                initH(g, Gate::Init1, 2), initH(g, Gate::Init0, 4),
                xbsOp(0, 7), norH(g, 0, 1, 2), initH(g, Gate::Init1, 4),
                initH(g, Gate::Init0, 3),
                xbsOp(0, g.numCrossbars - 1), initH(g, Gate::Init1, 3)};
        },
        [](const BatchTrace &t, const Geometry &g) {
            const uint32_t np = g.partitions;
            const ReplayProgram &p = t.programs[0];
            EXPECT_EQ(p.liveness.fused, 0u);
            EXPECT_EQ(p.liveness.dead, np);
            EXPECT_EQ(replayedSections(p, SK::Init1), 3u * np);
            EXPECT_EQ(replayedSections(p, SK::Init0), np);
            EXPECT_FALSE(p.uniformXb);
        });
}

TEST(ReplayProgramCompile, LivenessKeepsColumnsAWriteOrLogicVTouches)
{
    // A Write of slot 2 and a LogicV on slot 3 land between an INIT1
    // and the NOR into its column; a Write of slot 4 between two INITs
    // of it.
    livenessCase(
        [](const Geometry &g) {
            return std::vector<Word>{
                initH(g, Gate::Init1, 2),
                MicroOp::write(2, 0x5A5A5A5Au).encode(),
                norH(g, 0, 1, 2), initH(g, Gate::Init1, 3),
                MicroOp::logicV(Gate::Init1, 0, 1, 3).encode(),
                norH(g, 0, 1, 3), initH(g, Gate::Init0, 4),
                MicroOp::write(4, 0x12345678u).encode(),
                initH(g, Gate::Init1, 4)};
        },
        [](const BatchTrace &t, const Geometry &g) {
            const ReplayProgram &p = t.programs[0];
            EXPECT_EQ(p.liveness.fused + p.liveness.dead, 0u);
            EXPECT_EQ(replayedSections(p, SK::Init1), 3u * g.partitions);
            EXPECT_EQ(replayedSections(p, SK::Init0), g.partitions);
        });
}

// The INIT1->NOR rule across an unrelated op: the INIT1 sits two ops
// before its gate, and each case breaks one condition of the rule.

TEST(ReplayProgramCompile, LivenessKeepsInitOfNorReadingItsOutputAcrossAnOp)
{
    // The NOR reads the column its INIT1 set: fused, it would read
    // the column's value from before the INIT1.
    livenessCase(
        [](const Geometry &g) {
            return std::vector<Word>{
                initH(g, Gate::Init1, 5),
                MicroOp::write(0, 0x13579BDFu).encode(),
                norH(g, 5, 2, 5)};
        },
        [](const BatchTrace &t, const Geometry &g) {
            const ReplayProgram &p = t.programs[0];
            EXPECT_EQ(p.liveness.fused + p.liveness.dead, 0u);
            EXPECT_EQ(replayedSections(p, SK::Init1), g.partitions);
            EXPECT_EQ(replayedSections(p, SK::NotNor), g.partitions);
        });
}

TEST(ReplayProgramCompile, LivenessKeepsInitOfAColumnTouchedBeforeItsNor)
{
    // A LogicV INIT0 clears one row of the INIT1's column before the
    // NOR: the INIT1 must not move past it.
    livenessCase(
        [](const Geometry &g) {
            return std::vector<Word>{
                initH(g, Gate::Init1, 5),
                MicroOp::logicV(Gate::Init0, 0, 1, 5).encode(),
                norH(g, 1, 2, 5)};
        },
        [](const BatchTrace &t, const Geometry &g) {
            const ReplayProgram &p = t.programs[0];
            EXPECT_EQ(p.liveness.fused + p.liveness.dead, 0u);
            EXPECT_EQ(replayedSections(p, SK::Init1), g.partitions);
            EXPECT_EQ(replayedSections(p, SK::NotNor), g.partitions);
        });
}

TEST(ReplayProgramCompile, LivenessKeepsInitOfANorUnderAnotherRowMask)
{
    // The INIT1 covers every row, its NOR half of them: fused, the
    // other half would keep its value from before the INIT1.
    livenessCase(
        [](const Geometry &g) {
            return std::vector<Word>{
                initH(g, Gate::Init1, 5), rowsOp(0, 31),
                MicroOp::write(0, 0x13579BDFu).encode(),
                norH(g, 1, 2, 5)};
        },
        [](const BatchTrace &t, const Geometry &g) {
            const ReplayProgram &p = t.programs[0];
            EXPECT_EQ(p.liveness.fused + p.liveness.dead, 0u);
            EXPECT_EQ(replayedSections(p, SK::Init1), g.partitions);
            EXPECT_EQ(replayedSections(p, SK::NotNor), g.partitions);
        });
}

TEST(ReplayProgramCompile, LivenessKeepsInitOfANorOnOtherCrossbars)
{
    // The INIT1 covers every crossbar, its NOR the even ones.
    livenessCase(
        [](const Geometry &g) {
            return std::vector<Word>{
                initH(g, Gate::Init1, 5),
                MicroOp::crossbarMask(Range(0, g.numCrossbars - 2, 2))
                    .encode(),
                MicroOp::write(0, 0x13579BDFu).encode(),
                norH(g, 1, 2, 5)};
        },
        [](const BatchTrace &t, const Geometry &g) {
            const ReplayProgram &p = t.programs[0];
            EXPECT_EQ(p.liveness.fused + p.liveness.dead, 0u);
            EXPECT_EQ(replayedSections(p, SK::Init1), g.partitions);
            EXPECT_EQ(replayedSections(p, SK::NotNor), g.partitions);
        });
}

TEST(ReplayProgramCompile, LivenessFusesAcrossAnEquivalentRowMaskReissue)
{
    // Range(5,5,1) and Range(5,5,3) encode the same one-row mask. The
    // decoder dedups snapshots by content, so both ops get one mask id
    // and the INIT1 fuses into its NOR.
    livenessCase(
        [](const Geometry &g) {
            return std::vector<Word>{
                MicroOp::rowMask(Range(5, 5, 1)).encode(),
                initH(g, Gate::Init1, 5),
                MicroOp::rowMask(Range(5, 5, 3)).encode(),
                norH(g, 1, 2, 5)};
        },
        [](const BatchTrace &t, const Geometry &g) {
            const ReplayProgram &p = t.programs[0];
            EXPECT_EQ(p.masks.size(), 1u);
            EXPECT_EQ(p.liveness.fused, g.partitions);
            EXPECT_EQ(replayedSections(p, SK::Init1), 0u);
            EXPECT_EQ(replayedSections(p, SK::FusedNotNor), g.partitions);
            EXPECT_EQ(p.workLogicH, 2u);
        });
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
    Simulator oracle(g);
    Simulator compiled(g, EngineConfig::serial());
    seedState(oracle, 77, g);
    seedState(compiled, 77, g);
    const auto tc = compiled.prepareTrace(ops.data(), ops.size());
    ASSERT_NE(tc, nullptr);
    ASSERT_EQ(tc->segments.size(), 2u);
    ASSERT_EQ(tc->programs.size(), tc->segments.size());
    expectNoDecodeArenas(*tc);
    for (int rep = 0; rep < 3; ++rep) {
        oracle.performBatch(ops.data(), ops.size());
        compiled.submitTrace(tc);
    }
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
        ASSERT_TRUE(
            oracle.crossbar(xb).sameState(compiled.crossbar(xb)));
    EXPECT_EQ(oracle.stats(), compiled.stats());
}

TEST(ReplayProgramRetention, EqualRowMasksShareOneCopy)
{
    // Two traces compiled on one thread under the same row mask hold
    // one copy of its words; a trace under another mask has its own.
    const Geometry g = fuzzGeometry();
    const Range rows(1, 31, 3);
    auto a = compileStream(g, rows, {initH(g, Gate::Init1, 2)});
    const auto b = compileStream(
        g, rows, {initH(g, Gate::Init0, 5), norH(g, 0, 1, 3)});
    const auto c = compileStream(g, Range(0, g.rows / 2 - 1, 1),
                                 {initH(g, Gate::Init1, 2)});
    const auto maskOf = [](const BatchTrace &t) {
        const ReplayProgram &p = t.programs.at(0);
        return p.masks.at(p.instrs.at(0).operand).get();
    };
    const uint64_t *shared = maskOf(*a);
    EXPECT_EQ(maskOf(*b), shared);
    EXPECT_NE(maskOf(*c), shared);
    // The words stay valid while any program holds them.
    a.reset();
    std::vector<uint64_t> want;
    rows.expandInto(g.rows, want);
    ASSERT_EQ(b->programs[0].wordsPerMask, want.size());
    EXPECT_TRUE(std::equal(want.begin(), want.end(), maskOf(*b)));
}

TEST(ReplayProgramRetention, WireTracesHoldNoDecodeArenas)
{
    const Geometry g = fuzzGeometry();
    const HTree htree(g.numCrossbars);
    const std::vector<Word> ops = retentionStream(g);
    const auto sent =
        buildWireTrace(ops.data(), ops.size(), g, htree);
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

    // Cache reset: every stream is recorded and every trace built
    // again.
    cand.driver().clearStreamCache();
    ASSERT_TRUE(stepMatches(cand, oracle, 4)) << "cache cleared";
    ASSERT_TRUE(stepMatches(cand, oracle, 5)) << "cache rebuilt";

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
