/**
 * @file
 * Engine-parity tests (the compiled path's correctness contract): for
 * fuzzed valid micro-op streams, directed mask-interleaved segments
 * and driver-level tensor programs, replaying them as prepared traces
 * — compiled programs, crossbar-major, at 1, 2 and 8 threads — must
 * leave every crossbar in a bit-identical state and produce identical
 * architectural Stats and masks compared to the op-major raw-stream
 * oracle. Raw batches apply op-major at every thread count, so a
 * malformed op applies its valid prefix the same way at any count.
 * The EngineParity fuzz runs once per compiled-replay ISA build the
 * host supports, at a shallow (one word per column) and a deep
 * (eight words) geometry.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "pim/pypim.hpp"
#include "pim_test_util.hpp"

using namespace pypim;

namespace
{

Geometry
parityGeometry(uint32_t rows = 64)
{
    Geometry g = testGeometry();
    g.numCrossbars = 16;  // enough crossbars for 8 shards to matter
    g.rows = rows;
    return g;
}

/** The thread counts of the contract (one thread replays the
 *  compiled programs inline, without the pool). */
constexpr uint32_t kThreadCases[] = {1, 2, 8};
constexpr size_t numThreadCases = std::size(kThreadCases);

/** Engine configuration of thread case @p i. */
EngineConfig
threadCase(size_t i)
{
    return EngineConfig{}.withThreads(kThreadCases[i]);
}

/**
 * Replay @p ops[0..n) on @p sim as one prepared trace decoded from
 * the live masks: decode, compile, then replay the compiled programs
 * — the path every thread count fans out.
 */
void
replayAsTrace(Simulator &sim, const Word *ops, size_t n)
{
    const EntryMasks entry{sim.crossbarMask(), sim.rowMask()};
    sim.submitTrace(sim.prepareTrace(ops, n, &entry));
}

void
replayAsTrace(Simulator &sim, const std::vector<Word> &ops)
{
    replayAsTrace(sim, ops.data(), ops.size());
}

/** Seed both simulators with identical random register contents,
 *  one bulk scatter per register column. */
void
seedState(Simulator &a, Simulator &b, Rng &rng)
{
    const Geometry &g = a.geometry();
    std::vector<uint32_t> column(g.rows);
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb) {
        for (uint32_t slot = 0; slot < g.slots(); ++slot) {
            for (uint32_t &v : column)
                v = rng.word();
            a.crossbar(xb).scatterRows(slot, 0, g.rows, column.data());
            b.crossbar(xb).scatterRows(slot, 0, g.rows, column.data());
        }
    }
}

::testing::AssertionResult
sameCrossbarState(const Simulator &a, const Simulator &b)
{
    for (uint32_t xb = 0; xb < a.geometry().numCrossbars; ++xb) {
        if (!a.crossbar(xb).sameState(b.crossbar(xb)))
            return ::testing::AssertionFailure()
                   << "crossbar " << xb << " state diverged";
    }
    return ::testing::AssertionSuccess();
}

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
 * Generate a random valid micro-op stream over @p g. Tracks the mask
 * state it sets up so that reads and moves are emitted legally.
 * Interleaves mask ops freely with Write/LogicH/LogicV, including the
 * driver's canonical INIT1+NOR/NOT pairs (the replay compiler's
 * fusion candidates) with and without mask changes in between.
 */
std::vector<Word>
randomStream(Rng &rng, const Geometry &g, size_t len)
{
    std::vector<Word> ops;
    ops.reserve(len + 2);
    Range xbMask = Range::all(g.numCrossbars);
    const auto setXbMask = [&](Range r) {
        xbMask = r;
        ops.push_back(MicroOp::crossbarMask(r).encode());
    };
    while (ops.size() < len) {
        switch (rng.word() % 13) {
          case 0:
            setXbMask(randomRange(rng, g.numCrossbars));
            break;
          case 1:
            ops.push_back(
                MicroOp::rowMask(randomRange(rng, g.rows)).encode());
            break;
          case 2:
          case 3:
            ops.push_back(MicroOp::write(rng.word() % g.slots(),
                                         rng.word()).encode());
            break;
          case 4: {
            // INIT a whole slot across all partitions.
            const uint32_t out = g.column(rng.word() % g.slots(), 0);
            ops.push_back(
                MicroOp::logicH(rng.word() % 2 ? Gate::Init1
                                               : Gate::Init0,
                                0, 0, out, g.partitions - 1, 1)
                    .encode());
            break;
          }
          case 5:
          case 6: {
            // Periodic NOR/NOT between distinct slot columns, the
            // driver's canonical full-width pattern.
            uint32_t a = rng.word() % g.slots();
            uint32_t b = rng.word() % g.slots();
            uint32_t c = rng.word() % g.slots();
            if (a == c)
                a = (a + 1) % g.slots();
            if (b == c)
                b = (b + 2) % g.slots();
            if (b == c)
                b = (b + 1) % g.slots();
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
          case 7: {
            static const Gate kVGates[] = {Gate::Init0, Gate::Init1,
                                           Gate::Not};
            ops.push_back(MicroOp::logicV(kVGates[rng.word() % 3],
                                          rng.word() % g.rows,
                                          rng.word() % g.rows,
                                          rng.word() % g.slots())
                              .encode());
            break;
          }
          case 8: {
            // Read: needs single-crossbar single-row masks.
            setXbMask(Range::single(rng.word() % g.numCrossbars));
            ops.push_back(
                MicroOp::rowMask(Range::single(rng.word() % g.rows))
                    .encode());
            ops.push_back(
                MicroOp::read(rng.word() % g.slots()).encode());
            break;
          }
          case 9: {
            // INIT1 immediately followed by NOR/NOT of the same
            // output slot (the fusion candidate), optionally with a
            // mask op in between (which may or may not defeat
            // fusion — both paths must stay bit-identical).
            uint32_t a = rng.word() % g.slots();
            uint32_t b = rng.word() % g.slots();
            uint32_t c = rng.word() % g.slots();
            if (a == c)
                a = (a + 1) % g.slots();
            if (b == c)
                b = (b + 2) % g.slots();
            if (b == c)
                b = (b + 1) % g.slots();
            const uint32_t out = g.column(c, 0);
            ops.push_back(MicroOp::logicH(Gate::Init1, 0, 0, out,
                                          g.partitions - 1, 1)
                              .encode());
            if (rng.word() % 3 == 0)
                ops.push_back(
                    MicroOp::rowMask(randomRange(rng, g.rows))
                        .encode());
            const bool isNot = rng.word() % 2;
            ops.push_back(MicroOp::logicH(isNot ? Gate::Not
                                                : Gate::Nor,
                                          g.column(a, 0),
                                          g.column(isNot ? a : b, 0),
                                          out, g.partitions - 1, 1)
                              .encode());
            break;
          }
          default: {
            // Move: contiguous source block shifted within bounds.
            const uint32_t n = 1 + rng.word() % (g.numCrossbars / 2);
            const uint32_t src = rng.word() % (g.numCrossbars - n + 1);
            const uint32_t dst = rng.word() % (g.numCrossbars - n + 1);
            setXbMask(Range(src, src + n - 1, 1));
            ops.push_back(MicroOp::move(dst, rng.word() % g.rows,
                                        rng.word() % g.rows,
                                        rng.word() % g.slots(),
                                        rng.word() % g.slots())
                              .encode());
            break;
          }
        }
    }
    return ops;
}

/** (seed, engine case, replay build, rows). */
class EngineParity : public ::testing::TestWithParam<
                         std::tuple<uint64_t, size_t, size_t, uint32_t>>
{
};

} // namespace

TEST_P(EngineParity, FuzzedStreamsBitIdentical)
{
    const auto [seed, caseIdx, buildIdx, rows] = GetParam();
    PYPIM_USE_REPLAY_BUILD(buildIdx);
    const Geometry g = parityGeometry(rows);
    Simulator oracle(g);
    Simulator cand(g, threadCase(caseIdx));
    ASSERT_EQ(cand.engine().threads(), kThreadCases[caseIdx]);

    Rng rng(seed);
    seedState(oracle, cand, rng);
    const std::vector<Word> ops = randomStream(rng, g, 600);

    // The oracle applies each batch op-major; the candidate replays
    // the same batch as a compiled trace. Random batch sizes vary the
    // segment boundaries across seeds.
    size_t i = 0;
    while (i < ops.size()) {
        const size_t n =
            std::min<size_t>(1 + rng.word() % 64, ops.size() - i);
        oracle.performBatch(ops.data() + i, n);
        replayAsTrace(cand, ops.data() + i, n);
        i += n;
    }
    cand.flush();

    EXPECT_TRUE(sameCrossbarState(oracle, cand));
    EXPECT_EQ(oracle.stats(), cand.stats())
        << "oracle:\n" << oracle.stats().summary()
        << "candidate:\n" << cand.stats().summary();
    EXPECT_EQ(oracle.crossbarMask(), cand.crossbarMask());
    EXPECT_EQ(oracle.rowMask(), cand.rowMask());
}

TEST_P(EngineParity, ReadsReturnIdenticalValues)
{
    const auto [seed, caseIdx, buildIdx, rows] = GetParam();
    PYPIM_USE_REPLAY_BUILD(buildIdx);
    const Geometry g = parityGeometry(rows);
    Simulator oracle(g);
    Simulator cand(g, threadCase(caseIdx));
    Rng rng(seed ^ 0xBEEF);
    seedState(oracle, cand, rng);
    const std::vector<Word> ops = randomStream(rng, g, 200);
    oracle.performBatch(ops.data(), ops.size());
    replayAsTrace(cand, ops);
    for (int i = 0; i < 50; ++i) {
        const uint32_t xb = rng.word() % g.numCrossbars;
        const uint32_t row = rng.word() % g.rows;
        const uint32_t slot = rng.word() % g.slots();
        const std::vector<Word> sel = {
            MicroOp::crossbarMask(Range::single(xb)).encode(),
            MicroOp::rowMask(Range::single(row)).encode(),
        };
        oracle.performBatch(sel.data(), sel.size());
        cand.submitBatch(sel.data(), sel.size());
        EXPECT_EQ(oracle.performRead(enc::read(slot)),
                  cand.performRead(enc::read(slot)));
    }
}

TEST_P(EngineParity, EngineSwapPreservesState)
{
    const auto [seed, caseIdx, buildIdx, rows] = GetParam();
    PYPIM_USE_REPLAY_BUILD(buildIdx);
    const Geometry g = parityGeometry(rows);
    Simulator oracle(g);
    Simulator swapped(g);  // starts at one thread, swaps mid-stream
    Rng rng(seed * 7 + 5);
    seedState(oracle, swapped, rng);
    const std::vector<Word> ops = randomStream(rng, g, 400);
    const size_t half = ops.size() / 2;

    oracle.performBatch(ops.data(), ops.size());
    replayAsTrace(swapped, ops.data(), half);
    swapped.setEngine(threadCase(caseIdx));
    replayAsTrace(swapped, ops.data() + half, ops.size() - half);

    EXPECT_TRUE(sameCrossbarState(oracle, swapped));
    EXPECT_EQ(oracle.stats(), swapped.stats());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndEngines, EngineParity,
    ::testing::Combine(
        ::testing::Values(11ull, 404ull, 90210ull),
        ::testing::Range<size_t>(0, numThreadCases),
        ::testing::Range<size_t>(0, Crossbar::replayBuilds().size()),
        ::testing::Values(64u, 512u)),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "_threads" +
               std::to_string(kThreadCases[std::get<1>(info.param)]) +
               "_" + test::replayBuildName(std::get<2>(info.param)) +
               "_rows" + std::to_string(std::get<3>(info.param));
    });

TEST(EngineErrorContract, MalformedOpAppliesItsPrefixAtEveryThreadCount)
{
    // One error contract: a raw batch applies op-major at every
    // thread count, so a malformed op mid-segment throws after the
    // ops before it have taken effect — the same crossbar state,
    // Stats and masks whatever the replay thread count.
    const Geometry g = parityGeometry();
    std::vector<Word> ops = {
        MicroOp::crossbarMask(Range(1, g.numCrossbars - 3, 2)).encode(),
        MicroOp::rowMask(Range(0, g.rows - 2, 2)).encode(),
        MicroOp::write(0, 0xA5A5A5A5u).encode(),
        MicroOp::logicH(Gate::Init1, 0, 0, g.column(4, 0),
                        g.partitions - 1, 1).encode(),
        MicroOp::logicH(Gate::Nor, g.column(0, 0), g.column(1, 0),
                        g.column(4, 0), g.partitions - 1, 1).encode(),
        MicroOp::rowMask(Range(1, g.rows - 3, 4)).encode(),
        MicroOp::logicV(Gate::Not, 0, 3, 5).encode(),
        // Malformed: a LogicV row past the geometry.
        MicroOp::logicV(Gate::Not, g.rows + 3, 0, 5).encode(),
        MicroOp::write(1, 0xFFFFFFFFu).encode(),
    };
    std::vector<std::unique_ptr<Simulator>> sims;
    for (size_t c = 0; c < numThreadCases; ++c) {
        sims.push_back(std::make_unique<Simulator>(g, threadCase(c)));
        Simulator &sim = *sims.back();
        Rng seedRng(31337);
        Simulator tmp(g);
        seedState(sim, tmp, seedRng);
        EXPECT_THROW(sim.performBatch(ops.data(), ops.size()), Error)
            << kThreadCases[c] << " threads";
    }
    // The prefix took effect: the write landed on a selected crossbar.
    EXPECT_EQ(sims[0]->crossbar(1).read(0, 0), 0xA5A5A5A5u);
    EXPECT_EQ(sims[0]->stats().opCount[size_t(OpClass::LogicV)], 1u);
    for (size_t c = 1; c < numThreadCases; ++c) {
        EXPECT_TRUE(sameCrossbarState(*sims[0], *sims[c]))
            << kThreadCases[c] << " threads";
        EXPECT_EQ(sims[0]->stats(), sims[c]->stats())
            << kThreadCases[c] << " threads";
        EXPECT_EQ(sims[0]->crossbarMask(), sims[c]->crossbarMask());
        EXPECT_EQ(sims[0]->rowMask(), sims[c]->rowMask());
    }
}

namespace
{

/**
 * A fuzzed stream in the shape the trace cache requires: both masks
 * re-established before the first work op (self-contained), so
 * Simulator::prepareTrace accepts it.
 */
std::vector<Word>
cacheableStream(Rng &rng, const Geometry &g, size_t len)
{
    std::vector<Word> ops = {
        MicroOp::crossbarMask(Range::all(g.numCrossbars)).encode(),
        MicroOp::rowMask(Range::all(g.rows)).encode(),
    };
    const std::vector<Word> body = randomStream(rng, g, len);
    ops.insert(ops.end(), body.begin(), body.end());
    return ops;
}

} // namespace

class CachedTraceParity : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CachedTraceParity, ReplayBitIdenticalToOracle)
{
    // The trace-cache contract over fuzzed streams: prepareTrace +
    // submitTrace must equal the op-major raw stream — bit-identical
    // crossbar state, identical architectural stats and masks — at
    // every thread count. At more than one thread the pool's work
    // diagnostics show the trace applying work.
    const uint64_t seed = GetParam();
    const Geometry g = parityGeometry();
    Rng rng(seed);
    Simulator oracle(g);
    {
        Simulator seedSim(g);
        seedState(oracle, seedSim, rng);  // oracle seeded; throwaway
    }
    Rng streamRng(seed ^ 0x5EED);
    const std::vector<Word> ops = cacheableStream(streamRng, g, 400);
    oracle.performBatch(ops.data(), ops.size());

    for (const uint32_t threads : kThreadCases) {
        const EngineConfig cfg = EngineConfig{}.withThreads(threads);
        Simulator cached(g, cfg);
        {
            Rng r1(seed);
            Simulator tmp(g);
            seedState(cached, tmp, r1);
        }
        const auto trace = cached.prepareTrace(ops.data(), ops.size());
        ASSERT_TRUE(trace != nullptr);
        cached.submitTrace(trace);

        EXPECT_TRUE(sameCrossbarState(oracle, cached))
            << "threads=" << threads;
        EXPECT_EQ(oracle.stats(), cached.stats()) << "threads=" << threads;
        EXPECT_EQ(oracle.crossbarMask(), cached.crossbarMask());
        EXPECT_EQ(oracle.rowMask(), cached.rowMask());
        if (threads > 1) {
            const Stats work = Stats::merged(cached.engine().shardWork());
            EXPECT_GT(work.totalOps(), 0u) << "threads=" << threads;
        }
    }

    // Repeated cached replay: the same shared trace, submitted
    // several times, must match the oracle replaying the raw stream
    // the same number of times.
    {
        Simulator repeated(g, EngineConfig{}.withThreads(2));
        {
            Rng r(seed);
            Simulator tmp(g);
            seedState(repeated, tmp, r);
        }
        const auto trace =
            repeated.prepareTrace(ops.data(), ops.size());
        ASSERT_TRUE(trace != nullptr);
        Simulator oracle3(g);
        {
            Rng r(seed);
            Simulator tmp(g);
            seedState(oracle3, tmp, r);
        }
        for (int rep = 0; rep < 3; ++rep) {
            repeated.submitTrace(trace);
            oracle3.performBatch(ops.data(), ops.size());
        }
        repeated.flush();
        EXPECT_TRUE(sameCrossbarState(oracle3, repeated));
        EXPECT_EQ(oracle3.stats(), repeated.stats());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedTraceParity,
                         ::testing::Values(7ull, 1234ull, 987654ull));

namespace
{

/**
 * One directed batch interleaving mask ops with Write/LogicH/LogicV
 * inside single segments: strided masks, INIT1+NOR pairs the replay
 * compiler may and may not fuse, an input-aliases-output NOR (must
 * not fuse), and a barrier in the middle. Deterministic — compiled
 * replay at every thread count must reproduce the op-major oracle bit
 * for bit.
 */
std::vector<Word>
maskInterleavedBatch(const Geometry &g)
{
    std::vector<Word> ops;
    const auto slotCol = [&](uint32_t s) { return g.column(s, 0); };
    const uint32_t pEnd = g.partitions - 1;

    // Segment 1: strided crossbar mask, full rows.
    ops.push_back(
        MicroOp::crossbarMask(Range(1, g.numCrossbars - 3, 2))
            .encode());
    ops.push_back(MicroOp::write(0, 0xA5A5A5A5u).encode());
    // Fusable INIT1+NOR pair (same masks, same outputs).
    ops.push_back(MicroOp::logicH(Gate::Init1, 0, 0, slotCol(4),
                                  pEnd, 1).encode());
    ops.push_back(MicroOp::logicH(Gate::Nor, slotCol(0), slotCol(1),
                                  slotCol(4), pEnd, 1).encode());
    // INIT1+NOT pair split by a row-mask change: must NOT fuse, and
    // the NOT must see the new (strided) row mask.
    ops.push_back(MicroOp::logicH(Gate::Init1, 0, 0, slotCol(5),
                                  pEnd, 1).encode());
    ops.push_back(
        MicroOp::rowMask(Range(2, g.rows - 2, 4)).encode());
    ops.push_back(MicroOp::logicH(Gate::Not, slotCol(2), slotCol(2),
                                  slotCol(5), pEnd, 1).encode());
    // INIT1+NOR whose input aliases the initialised output: the
    // fusion guard must fall back to two sequential passes.
    ops.push_back(MicroOp::logicH(Gate::Init1, 0, 0, slotCol(6),
                                  pEnd, 1).encode());
    ops.push_back(MicroOp::logicH(Gate::Nor, slotCol(6), slotCol(3),
                                  slotCol(6), pEnd, 1).encode());
    // Vertical logic and a crossbar-mask change mid-segment.
    ops.push_back(
        MicroOp::logicV(Gate::Init1, 0, 3, 7).encode());
    ops.push_back(
        MicroOp::crossbarMask(Range(0, g.numCrossbars - 4, 4))
            .encode());
    ops.push_back(
        MicroOp::logicV(Gate::Not, 3, 5, 7).encode());
    ops.push_back(MicroOp::write(1, 0x0F0F0F0Fu).encode());

    // Barrier: H-tree move splits the batch into two segments.
    ops.push_back(
        MicroOp::crossbarMask(Range(0, g.numCrossbars / 2 - 1, 1))
            .encode());
    ops.push_back(
        MicroOp::move(g.numCrossbars / 2, 1, 2, 0, 1).encode());

    // Segment 2: INIT1+NOR pair with a re-issued identical crossbar
    // mask in between (fusion must survive no-op mask traffic), then
    // a re-issued identical row mask before a write (row-snapshot
    // reuse inside the trace builder).
    ops.push_back(
        MicroOp::rowMask(Range(2, g.rows - 2, 4)).encode());
    ops.push_back(MicroOp::logicH(Gate::Init1, 0, 0, slotCol(8),
                                  pEnd, 1).encode());
    ops.push_back(
        MicroOp::crossbarMask(Range(0, g.numCrossbars / 2 - 1, 1))
            .encode());
    ops.push_back(MicroOp::logicH(Gate::Nor, slotCol(1), slotCol(2),
                                  slotCol(8), pEnd, 1).encode());
    ops.push_back(
        MicroOp::rowMask(Range(2, g.rows - 2, 4)).encode());
    ops.push_back(MicroOp::write(9, 0xDEADBEEFu).encode());
    return ops;
}

} // namespace

TEST(EngineParityDirected, MaskInterleavedSegments)
{
    const Geometry g = parityGeometry();
    const std::vector<Word> ops = maskInterleavedBatch(g);
    for (size_t c = 0; c < numThreadCases; ++c) {
        Simulator oracle(g);
        Simulator cand(g, threadCase(c));
        Rng seedRng(2024);
        seedState(oracle, cand, seedRng);
        oracle.performBatch(ops.data(), ops.size());
        replayAsTrace(cand, ops);
        EXPECT_TRUE(sameCrossbarState(oracle, cand))
            << kThreadCases[c] << " threads";
        EXPECT_EQ(oracle.stats(), cand.stats())
            << kThreadCases[c] << " threads";
    }
}

TEST(EngineParityWork, ShardWorkCountsEveryApplication)
{
    // Under full masks every work op applies to every crossbar, so
    // the merged per-worker diagnostics of a 4-thread trace replay
    // must equal the architectural op counts scaled by the crossbar
    // count. The stream alternates Write and INIT1 (no fusion), so
    // applications map 1:1 to ops. Which worker claims which chunk is
    // scheduling-dependent under the work-stealing schedule, so only
    // the merged total is exact.
    const Geometry g = parityGeometry();
    Simulator sim(g, EngineConfig{}.withThreads(4));
    std::vector<Word> ops;
    for (int i = 0; i < 10; ++i) {
        ops.push_back(MicroOp::write(0, 42u + i).encode());
        ops.push_back(MicroOp::logicH(Gate::Init1, 0, 0,
                                      g.column(1, 0),
                                      g.partitions - 1, 1).encode());
    }
    replayAsTrace(sim, ops);
    const Stats merged = Stats::merged(sim.engine().shardWork());
    EXPECT_EQ(merged.opCount[size_t(OpClass::Write)],
              10ull * g.numCrossbars);
    EXPECT_EQ(merged.opCount[size_t(OpClass::LogicH)],
              10ull * g.numCrossbars);
}

TEST(EngineParityWork, StridedMaskWorkCoversSelectedCrossbarsOnly)
{
    // A strided crossbar mask (the schedule the fixed contiguous
    // blocks balanced worst) must apply each op to exactly the
    // selected crossbars, and the work-stealing claim must account
    // for every application exactly once across the workers.
    const Geometry g = parityGeometry();
    Simulator sim(g, EngineConfig{}.withThreads(4));
    const Range strided(1, g.numCrossbars - 3, 2);
    std::vector<Word> ops;
    ops.push_back(MicroOp::crossbarMask(strided).encode());
    for (int i = 0; i < 12; ++i)
        ops.push_back(MicroOp::write(0, 7u * i).encode());
    replayAsTrace(sim, ops);
    const Stats merged = Stats::merged(sim.engine().shardWork());
    EXPECT_EQ(merged.opCount[size_t(OpClass::Write)],
              12ull * strided.count());
}

TEST(EngineParityWork, FusedPairsCountBothApplications)
{
    // A fusable INIT1+NOR pair replays as one pass but represents two
    // architectural ops; the work diagnostic must count both, keeping
    // merged work == architectural ops * crossbars.
    const Geometry g = parityGeometry();
    Simulator sim(g, EngineConfig{}.withThreads(4));
    std::vector<Word> ops;
    for (int i = 0; i < 8; ++i) {
        ops.push_back(MicroOp::logicH(Gate::Init1, 0, 0,
                                      g.column(4, 0),
                                      g.partitions - 1, 1).encode());
        ops.push_back(MicroOp::logicH(Gate::Nor, g.column(0, 0),
                                      g.column(1, 0), g.column(4, 0),
                                      g.partitions - 1, 1).encode());
    }
    replayAsTrace(sim, ops);
    const Stats merged = Stats::merged(sim.engine().shardWork());
    EXPECT_EQ(merged.opCount[size_t(OpClass::LogicH)],
              16ull * g.numCrossbars);
}

TEST(EngineParityWork, OneThreadChargesNothing)
{
    // The inline path keeps no diagnostics, and raw batches apply
    // op-major, off the pool, at any thread count.
    const Geometry g = parityGeometry();
    const std::vector<Word> ops = maskInterleavedBatch(g);
    Simulator inlineSim(g);
    replayAsTrace(inlineSim, ops);
    EXPECT_EQ(Stats::merged(inlineSim.engine().shardWork()).totalOps(),
              0u);
    Simulator pooled(g, EngineConfig{}.withThreads(4));
    pooled.performBatch(ops.data(), ops.size());
    EXPECT_EQ(Stats::merged(pooled.engine().shardWork()).totalOps(), 0u);
}

namespace
{

/** Driver-level program parity: full tensor ops on one device. */
void
runDriverProgram(Device &dev)
{
    const uint64_t n = 3 * dev.geometry().rows;  // spans 3 crossbars
    std::vector<int32_t> a(n), b(n);
    for (uint64_t i = 0; i < n; ++i) {
        a[i] = static_cast<int32_t>(i * 2654435761u);
        b[i] = static_cast<int32_t>((i + 7) * 40503u);
    }
    Tensor ta = Tensor::fromVector(a, &dev);
    Tensor tb = Tensor::fromVector(b, &dev);
    Tensor sum = ta + tb;
    Tensor prod = ta * tb;
    Tensor sel = where(isZero(ta - ta), sum, prod);
    (void)sel.toIntVector();
}

} // namespace

TEST(EngineParityDriver, TensorProgramsMatchOpMajorOracle)
{
    // The candidates replay their cached traces on 1, 2 and 8
    // threads; the oracle translates every instruction afresh and
    // applies it op-major.
    const Geometry g = parityGeometry();
    EngineConfig oracleCfg = EngineConfig::serial();
    oracleCfg.traceCache = false;
    Device oracle(g, Driver::Mode::Parallel, oracleCfg);
    runDriverProgram(oracle);
    runDriverProgram(oracle);
    oracle.flush();
    for (size_t c = 0; c < numThreadCases; ++c) {
        Device cand(g, Driver::Mode::Parallel, threadCase(c));
        EXPECT_EQ(cand.simulator().engine().threads(),
                  std::min(kThreadCases[c], g.numCrossbars));
        // The second pass hits the trace cache.
        runDriverProgram(cand);
        runDriverProgram(cand);
        cand.flush();
        EXPECT_GT(cand.driver().stats().traceCacheHits, 0u);
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb) {
            ASSERT_TRUE(oracle.simulator().crossbar(xb).sameState(
                cand.simulator().crossbar(xb)))
                << "crossbar " << xb << " at " << kThreadCases[c]
                << " threads";
        }
        EXPECT_EQ(oracle.stats(), cand.stats())
            << kThreadCases[c] << " threads";
    }
}

namespace
{

/**
 * Directed LogicV-run batch: consecutive vertical ops on the same
 * intra-partition index (the column-major run-replay path), broken up
 * by index changes and a crossbar-mask change mid-run (ops not
 * selecting a crossbar must be skipped without disturbing run order).
 */
std::vector<Word>
logicVRunBatch(const Geometry &g)
{
    std::vector<Word> ops;
    // Seed two source rows, then a long Init1/Not chain on slot 3.
    ops.push_back(MicroOp::logicV(Gate::Init1, 0, 1, 3).encode());
    ops.push_back(MicroOp::logicV(Gate::Init0, 0, 2, 3).encode());
    for (uint32_t r = 3; r < 12; ++r)
        ops.push_back(
            MicroOp::logicV(Gate::Not, r - 2, r, 3).encode());
    // Mask change mid-run: the tail applies to half the crossbars.
    ops.push_back(
        MicroOp::crossbarMask(Range(0, g.numCrossbars - 2, 2))
            .encode());
    for (uint32_t r = 12; r < 20; ++r)
        ops.push_back(
            MicroOp::logicV(Gate::Not, r - 1, r, 3).encode());
    // Index change splits the run.
    ops.push_back(MicroOp::logicV(Gate::Init1, 0, 5, 4).encode());
    ops.push_back(MicroOp::logicV(Gate::Not, 5, 6, 4).encode());
    ops.push_back(MicroOp::logicV(Gate::Not, 6, 7, 3).encode());
    return ops;
}

} // namespace

TEST(EngineParityDirected, LogicVRunsBitIdentical)
{
    const Geometry g = parityGeometry();
    const std::vector<Word> ops = logicVRunBatch(g);
    for (size_t c = 0; c < numThreadCases; ++c) {
        Simulator oracle(g);
        Simulator cand(g, threadCase(c));
        Rng seedRng(77);
        seedState(oracle, cand, seedRng);
        oracle.performBatch(ops.data(), ops.size());
        replayAsTrace(cand, ops);
        cand.flush();
        EXPECT_TRUE(sameCrossbarState(oracle, cand))
            << kThreadCases[c] << " threads";
        EXPECT_EQ(oracle.stats(), cand.stats())
            << kThreadCases[c] << " threads";
    }
}
