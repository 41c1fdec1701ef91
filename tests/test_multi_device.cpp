/**
 * @file
 * Multi-device sharding tests (sim/device_group.hpp): one logical
 * device split across 1/2/4 sub-device Simulators at H-tree group
 * boundaries must be indistinguishable from the monolithic simulator
 * — bit-identical crossbar state, readback and architectural Stats on
 * fuzzed micro-op streams (Moves included) and full driver tensor
 * programs, with the architectural counters
 * replicated across sub-devices and cross-device traffic consisting
 * solely of boundary-crossing Move transfers (directed H-tree
 * boundary tests assert intra-group traffic never leaves its slice).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "pim/pypim.hpp"
#include "sim/checkpoint.hpp"
#include "sim/device_group.hpp"
#include "sim/serialize.hpp"

using namespace pypim;

namespace
{

Geometry
multiGeometry()
{
    Geometry g = testGeometry();
    g.numCrossbars = 16;  // 4 level-1 H-tree groups of 4
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
 * Random valid micro-op stream biased towards Moves (the multi-device
 * hot spot): contiguous source blocks shifted by arbitrary distances,
 * so transfers land intra-slice and across every slice boundary, plus
 * the usual masked Write/LogicH/LogicV mix and data-less Reads.
 */
std::vector<Word>
randomStream(Rng &rng, const Geometry &g, size_t len)
{
    std::vector<Word> ops;
    ops.reserve(len + 2);
    while (ops.size() < len) {
        switch (rng.word() % 10) {
          case 0:
            ops.push_back(
                MicroOp::crossbarMask(randomRange(rng, g.numCrossbars))
                    .encode());
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
            const uint32_t out = g.column(rng.word() % g.slots(), 0);
            ops.push_back(
                MicroOp::logicH(rng.word() % 2 ? Gate::Init1
                                               : Gate::Init0,
                                0, 0, out, g.partitions - 1, 1)
                    .encode());
            break;
          }
          case 5: {
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
          case 6: {
            static const Gate kVGates[] = {Gate::Init0, Gate::Init1,
                                           Gate::Not};
            ops.push_back(MicroOp::logicV(kVGates[rng.word() % 3],
                                          rng.word() % g.rows,
                                          rng.word() % g.rows,
                                          rng.word() % g.slots())
                              .encode());
            break;
          }
          case 7: {
            // Data-less Read (single-crossbar, single-row masks).
            ops.push_back(MicroOp::crossbarMask(Range::single(
                                                    rng.word() %
                                                    g.numCrossbars))
                              .encode());
            ops.push_back(
                MicroOp::rowMask(Range::single(rng.word() % g.rows))
                    .encode());
            ops.push_back(
                MicroOp::read(rng.word() % g.slots()).encode());
            break;
          }
          default: {
            // Move: contiguous source block, arbitrary distance —
            // intra-slice and boundary-crossing alike, including
            // overlapping src/dst shift chains.
            const uint32_t n = 1 + rng.word() % (g.numCrossbars / 2);
            const uint32_t src =
                rng.word() % (g.numCrossbars - n + 1);
            const uint32_t dst =
                rng.word() % (g.numCrossbars - n + 1);
            ops.push_back(
                MicroOp::crossbarMask(Range(src, src + n - 1, 1))
                    .encode());
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

/** Seed oracle and group with identical random register contents. */
void
seedState(Simulator &oracle, SimulatorGroup &grp, Rng &rng)
{
    const Geometry &g = oracle.geometry();
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb) {
        for (uint32_t row = 0; row < g.rows; ++row) {
            for (uint32_t slot = 0; slot < g.slots(); ++slot) {
                const uint32_t v = rng.word();
                oracle.crossbar(xb).writeRow(slot, v, row);
                grp.crossbar(xb).writeRow(slot, v, row);
            }
        }
    }
}

::testing::AssertionResult
sameState(Simulator &oracle, SimulatorGroup &grp)
{
    for (uint32_t xb = 0; xb < oracle.geometry().numCrossbars; ++xb) {
        if (!oracle.crossbar(xb).sameState(grp.crossbar(xb)))
            return ::testing::AssertionFailure()
                   << "crossbar " << xb << " state diverged (owned by "
                   << "sub-device " << grp.deviceOf(xb) << ")";
    }
    return ::testing::AssertionSuccess();
}

class MultiDeviceFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>>
{
};

} // namespace

TEST_P(MultiDeviceFuzz, StreamsBitIdenticalAcrossDeviceCounts)
{
    const auto [seed, caseIdx] = GetParam();
    const EngineCase &ec = engineCase(caseIdx);
    const Geometry g = multiGeometry();
    for (uint32_t devices : {2u, 4u}) {
        Simulator oracle(g);  // monolithic serial reference
        SimulatorGroup grp(g, ec.cfg.withDevices(devices));
        ASSERT_EQ(grp.devices(), devices);
        Rng seedRng(seed * 31 + devices);
        seedState(oracle, grp, seedRng);

        Rng rng(seed);
        for (int batch = 0; batch < 4; ++batch) {
            const std::vector<Word> ops = randomStream(rng, g, 160);
            oracle.performBatch(ops.data(), ops.size());
            grp.submitBatch(ops.data(), ops.size());
        }
        grp.flush();
        EXPECT_TRUE(sameState(oracle, grp))
            << ec.name << " x" << devices;
        EXPECT_EQ(oracle.stats(), grp.stats())
            << ec.name << " x" << devices;
        // The architectural counters are replicated on every
        // sub-device — each one observed the whole stream.
        for (uint32_t d = 1; d < devices; ++d)
            EXPECT_EQ(grp.sub(0).stats(), grp.sub(d).stats())
                << ec.name << " x" << devices << " sub " << d;
        // Cross-device traffic is Move transfers only, and only the
        // boundary-crossing subset of them.
        EXPECT_LE(grp.traffic().boundaryTransfers,
                  grp.traffic().moveTransfers);
        EXPECT_LE(grp.traffic().boundaryMoves, grp.traffic().moveOps);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, MultiDeviceFuzz,
    ::testing::Combine(::testing::Values(11ull, 23ull, 47ull),
                       ::testing::Range<size_t>(0, numEngineCases)));

TEST(MultiDeviceTraffic, SlicesNestAndTransfersAreConserved)
{
    // The same stream observes the same Move population at any device
    // count, and 2-device slices are unions of 4-device slices, so
    // every 2-device boundary crossing is also a 4-device one.
    const Geometry g = multiGeometry();
    Rng rng(99);
    const std::vector<Word> ops = randomStream(rng, g, 600);
    SimulatorGroup two(g, EngineConfig::serial().withDevices(2));
    SimulatorGroup four(g, EngineConfig::serial().withDevices(4));
    two.performBatch(ops.data(), ops.size());
    four.performBatch(ops.data(), ops.size());
    EXPECT_EQ(two.traffic().moveOps, four.traffic().moveOps);
    EXPECT_EQ(two.traffic().moveTransfers,
              four.traffic().moveTransfers);
    EXPECT_GE(four.traffic().boundaryTransfers,
              two.traffic().boundaryTransfers);
    EXPECT_GT(four.traffic().moveOps, 0u);
}

TEST(MultiDeviceDirected, IntraGroupMovesNeverLeaveTheirSubDevice)
{
    // The paper's canonical intra-group pattern (§III-F): crossbars
    // xx01 -> xx10 in every level-1 group. With one sub-device per
    // level-1 group (16 crossbars, 4 devices) every transfer stays
    // inside its slice: zero exchanges, zero boundary transfers.
    const Geometry g = multiGeometry();
    SimulatorGroup grp(g, EngineConfig::serial().withDevices(4));
    ASSERT_EQ(grp.crossbarsPerDevice(), 4u);
    std::vector<Word> ops;
    ops.push_back(
        MicroOp::crossbarMask(Range(1, 13, 4)).encode());  // xx01
    for (uint32_t r = 0; r < 8; ++r)
        ops.push_back(MicroOp::move(2, r, r, 0, 1).encode());  // ->xx10
    grp.performBatch(ops.data(), ops.size());
    EXPECT_EQ(grp.traffic().moveOps, 8u);
    EXPECT_EQ(grp.traffic().moveTransfers, 8u * 4);
    EXPECT_EQ(grp.traffic().boundaryMoves, 0u);
    EXPECT_EQ(grp.traffic().boundaryTransfers, 0u);
}

TEST(MultiDeviceDirected, BoundaryMovesAreExchangedExactly)
{
    // A full-mask shift by one crosses each of the three interior
    // slice boundaries exactly once per Move op; everything else is
    // local. Verify the counts and the data.
    const Geometry g = multiGeometry();
    Simulator oracle(g);
    SimulatorGroup grp(g, EngineConfig::serial().withDevices(4));
    Rng rng(7);
    seedState(oracle, grp, rng);
    std::vector<Word> ops;
    ops.push_back(
        MicroOp::crossbarMask(Range(0, g.numCrossbars - 2, 1))
            .encode());
    ops.push_back(MicroOp::move(1, 5, 9, 2, 3).encode());
    oracle.performBatch(ops.data(), ops.size());
    grp.performBatch(ops.data(), ops.size());
    EXPECT_EQ(grp.traffic().moveOps, 1u);
    EXPECT_EQ(grp.traffic().moveTransfers, 15u);
    EXPECT_EQ(grp.traffic().boundaryMoves, 1u);
    EXPECT_EQ(grp.traffic().boundaryTransfers, 3u);  // 3->4, 7->8, 11->12
    EXPECT_TRUE(sameState(oracle, grp));
    EXPECT_EQ(oracle.stats(), grp.stats());
}

TEST(MultiDeviceDirected, OverlappingShiftChainAcrossBoundary)
{
    // Shift chain through a slice boundary: read-all-then-write-all
    // means crossbar k's PRE-move value must land in k+1 even though
    // k is itself overwritten by k-1 — the exchange stages its reads
    // before any sub-device applies the Move.
    const Geometry g = multiGeometry();
    SimulatorGroup grp(g, EngineConfig::serial().withDevices(4));
    // Distinct marker per crossbar in slot 0, row 3.
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
        grp.crossbar(xb).writeRow(0, 100 + xb, 3);
    std::vector<Word> ops;
    ops.push_back(
        MicroOp::crossbarMask(Range(0, g.numCrossbars - 2, 1))
            .encode());
    ops.push_back(MicroOp::move(1, 3, 3, 0, 0).encode());
    grp.performBatch(ops.data(), ops.size());
    for (uint32_t xb = 1; xb < g.numCrossbars; ++xb)
        EXPECT_EQ(grp.crossbar(xb).read(0, 3), 100 + xb - 1)
            << "crossbar " << xb;
    EXPECT_EQ(grp.crossbar(0).read(0, 3), 100u);  // source-only
}

namespace
{

/**
 * A driver/tensor program exercising every layer above the group:
 * arithmetic, comparisons, inter-warp moves (assignFrom between
 * tensors at different warp offsets — boundary-crossing at 4+
 * devices), a reduction and host readback.
 *
 * Tensor widths are a multiple of the narrowest slice under test
 * (4 warps), so the shard-aware allocator places them at the same
 * warp ranges at every device count — the precondition for the
 * bit-identical-Stats comparison (placement-dependent programs
 * produce identical VALUES at any device count, but different
 * placements mean different move distances and H-tree cycle counts;
 * MultiDeviceAlloc covers the placement policy itself).
 */
std::vector<int32_t>
runTensorProgram(Device &dev)
{
    const uint64_t n = 4 * dev.geometry().rows;  // exactly one slice
    std::vector<int32_t> av(n), bv(n);
    for (uint64_t i = 0; i < n; ++i) {
        av[i] = static_cast<int32_t>(i * 2654435761u);
        bv[i] = static_cast<int32_t>((i + 3) * 40503u);
    }
    Tensor a = Tensor::fromVector(av, &dev);
    Tensor b = Tensor::fromVector(bv, &dev);
    Tensor sum = a + b;
    Tensor prod = a * b;
    // Inter-warp moves: materialise prod's values onto sum's threads
    // (different register, then shifted warp range).
    Tensor moved = Tensor::fromVector(bv, &dev);
    moved.assignFrom(prod);
    Tensor sel = where(isZero(a - a), sum, moved);
    std::vector<int32_t> out = sel.toIntVector();
    out.push_back(sel.sum<int32_t>());
    return out;
}

} // namespace

TEST(MultiDeviceDriver, TensorProgramsBitIdenticalAcrossDevices)
{
    const Geometry g = multiGeometry();
    Device mono(g, Driver::Mode::Parallel, EngineConfig::serial());
    const std::vector<int32_t> expect = runTensorProgram(mono);
    for (size_t c = 0; c < numEngineCases; ++c) {
        const EngineCase &ec = engineCase(c);
        for (uint32_t devices : {2u, 4u}) {
            Device dev(g, Driver::Mode::Parallel,
                       ec.cfg.withDevices(devices));
            ASSERT_EQ(dev.deviceCount(), devices);
            const std::vector<int32_t> got = runTensorProgram(dev);
            EXPECT_EQ(expect, got) << ec.name << " x" << devices;
            EXPECT_EQ(mono.stats(), dev.stats())
                << ec.name << " x" << devices;
        }
    }
}

TEST(MultiDeviceDriver, WarmTraceCacheBroadcastsSharedHandles)
{
    // Steady-state: the driver's trace cache must keep hitting with
    // sharding on (one shared handle broadcast to all sub-devices),
    // and the results must match the monolithic device exactly.
    const Geometry g = multiGeometry();
    Device mono(g, Driver::Mode::Parallel, EngineConfig::serial());
    Device quad(g, Driver::Mode::Parallel,
                EngineConfig::serial().withDevices(4));
    const uint64_t n = g.numCrossbars * g.rows;
    std::vector<int32_t> av(n), bv(n);
    for (uint64_t i = 0; i < n; ++i) {
        av[i] = static_cast<int32_t>(i * 48271u);
        bv[i] = static_cast<int32_t>(i * 16807u + 5);
    }
    for (Device *dev : {&mono, &quad}) {
        Tensor a = Tensor::fromVector(av, dev);
        Tensor b = Tensor::fromVector(bv, dev);
        Tensor c = a * b;
        for (int rep = 0; rep < 4; ++rep)
            c.assignFrom(a * b);  // warm replays of one signature
    }
    EXPECT_GT(quad.driver().stats().traceCacheHits, 0u);
    EXPECT_EQ(mono.driver().stats().traceCacheHits,
              quad.driver().stats().traceCacheHits);
    EXPECT_EQ(mono.stats(), quad.stats());
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
        ASSERT_TRUE(mono.group().crossbar(xb).sameState(
            quad.group().crossbar(xb)))
            << "crossbar " << xb;
}

TEST(MultiDeviceAlloc, TensorsPreferOneSubDeviceSlice)
{
    // Shard-aware allocation: tensors no wider than a slice must land
    // inside one sub-device even when a naive first fit would cross a
    // boundary; wider tensors stripe.
    const Geometry g = multiGeometry();
    MemoryManager mm(g, 4);
    ASSERT_EQ(mm.sliceWarps(), 4u);
    // 3-warp tensors: naive first fit would place the second at warps
    // [3, 6) across the 4|8 boundary; shard-aware placement skips to
    // the next slice.
    const uint64_t elems = 3 * g.rows;
    const Allocation a = mm.alloc(elems);
    const Allocation b = mm.alloc(elems);
    for (const Allocation *al : {&a, &b})
        EXPECT_EQ(al->warpStart / mm.sliceWarps(),
                  (al->warpStart + al->warpCount - 1) /
                      mm.sliceWarps())
            << "allocation crosses a slice boundary";
    // Wider than a slice: stripes by necessity.
    const Allocation wide = mm.alloc(6 * g.rows);
    EXPECT_NE(wide.warpStart / mm.sliceWarps(),
              (wide.warpStart + wide.warpCount - 1) / mm.sliceWarps());
    mm.free(a);
    mm.free(b);
    mm.free(wide);
    EXPECT_EQ(mm.liveAllocations(), 0u);
}

TEST(MultiDevicePaged, GroupImageRewindsPoolReplay)
{
    // Checkpoint and rewind under the most concurrent in-process
    // configuration in the repo: 4 sub-devices, each replaying on 2
    // threads. The image is captured between calls, heavy random
    // traces then replay on the pool workers, and restoring the image
    // rewinds the whole group bit-exactly.
    const Geometry g = multiGeometry();
    const EngineConfig cfg = EngineConfig{}
                                 .withThreads(8)
                                 .withDevices(4)
                                 .withStorage(XbarStorage::Paged);
    Simulator pre(g);     // frozen pre-replay reference (never run)
    Simulator oracle(g);  // serial monolithic oracle for the stream
    SimulatorGroup grp(g, cfg);
    Rng seedRng(52025);
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
        for (uint32_t row = 0; row < g.rows; ++row)
            for (uint32_t slot = 0; slot < g.slots(); ++slot) {
                const uint32_t v = seedRng.word();
                pre.crossbar(xb).writeRow(slot, v, row);
                oracle.crossbar(xb).writeRow(slot, v, row);
                grp.crossbar(xb).writeRow(slot, v, row);
            }
    const CheckpointImage image = buildGroupImage(grp);

    // Self-contained, Move-free batches, so every one replays as a
    // compiled trace on the sub-device pools.
    Rng rng(777);
    for (int batch = 0; batch < 4; ++batch) {
        std::vector<Word> ops = {
            MicroOp::crossbarMask(Range::all(g.numCrossbars)).encode(),
            MicroOp::rowMask(Range::all(g.rows)).encode(),
        };
        for (Word w : randomStream(rng, g, 200))
            if (enc::peekType(w) != OpType::Move)
                ops.push_back(w);
        oracle.performBatch(ops.data(), ops.size());
        const auto trace = grp.prepareTrace(ops.data(), ops.size());
        ASSERT_NE(trace, nullptr);
        grp.submitTrace(trace);
    }
    grp.flush();
    EXPECT_TRUE(sameState(oracle, grp));
    EXPECT_EQ(oracle.stats(), grp.stats());
    EXPECT_FALSE(sameState(pre, grp)) << "the replay changed nothing";

    restoreGroupImage(grp, image);
    EXPECT_TRUE(sameState(pre, grp));
    EXPECT_EQ(pre.stats(), grp.stats());
}

TEST(MultiDeviceGroup, DevicesClampToGeometryAndValidate)
{
    const Geometry g = testGeometry();  // 4 crossbars
    SimulatorGroup grp(g, EngineConfig::serial().withDevices(16));
    EXPECT_EQ(grp.devices(), 4u);  // clamped: one crossbar each
    EXPECT_EQ(grp.crossbarsPerDevice(), 1u);
    EXPECT_THROW(
        SimulatorGroup(g, EngineConfig::serial().withDevices(3)),
        Error);
}

TEST(MultiDeviceGroup, SubDeviceCrossbarAccessIsSliceChecked)
{
    const Geometry g = multiGeometry();
    SimulatorGroup grp(g, EngineConfig::serial().withDevices(4));
    EXPECT_EQ(grp.sub(1).sliceLo(), 4u);
    EXPECT_EQ(grp.sub(1).sliceCount(), 4u);
    EXPECT_TRUE(grp.sub(1).ownsCrossbar(5));
    EXPECT_FALSE(grp.sub(1).ownsCrossbar(3));
    EXPECT_THROW(grp.sub(1).crossbar(3), Error);
    EXPECT_NO_THROW(grp.crossbar(3));  // routed to sub-device 0
    // Slice bounds validate without unsigned wrap-around.
    EXPECT_THROW(Simulator(g, EngineConfig::serial(), 2,
                           g.numCrossbars),
                 Error);
    EXPECT_THROW(Simulator(g, EngineConfig::serial(), 0, 0), Error);
    EXPECT_THROW(Simulator(g, EngineConfig::serial(), g.numCrossbars,
                           1),
                 Error);
}

// --- socket transport parity ----------------------------------------------
// The cross-process fleet must be observationally identical to the
// in-process group: same architectural Stats, same Traffic split, same
// readback, same canonical checkpoint image — at 2 and 4 workers, for
// both crossbar storage representations. Fork-based, so skipped under
// TSan (the Release CI matrix runs these at PYPIM_TRANSPORT=socket).

#if defined(__SANITIZE_THREAD__)
#define PYPIM_SKIP_UNDER_TSAN() \
    GTEST_SKIP() << "fork-based transport tests do not run under TSan"
#else
#define PYPIM_SKIP_UNDER_TSAN() (void)0
#endif

namespace
{

/** Canonical state image bytes (drains the fleet first). */
std::vector<uint8_t>
imageBytes(SimulatorGroup &grp)
{
    return encodeCheckpoint(buildGroupImage(grp));
}

/** Self-contained stream (leads with both masks, no Moves): the shape
 *  the driver freezes into cacheable traces. @p salt varies the data
 *  so distinct salts produce distinct trace signatures. */
std::vector<Word>
cacheableStream(const Geometry &g, uint32_t salt)
{
    std::vector<Word> ops;
    ops.push_back(
        MicroOp::crossbarMask(Range::all(g.numCrossbars)).encode());
    ops.push_back(MicroOp::rowMask(Range::all(g.rows)).encode());
    for (uint32_t s = 0; s < 4; ++s)
        ops.push_back(
            MicroOp::write(s, salt * 0x9E3779B9u + s).encode());
    ops.push_back(MicroOp::logicH(Gate::Nor, g.column(0, 0),
                                  g.column(1, 0), g.column(4, 0),
                                  g.partitions - 1, 1)
                      .encode());
    return ops;
}

::testing::AssertionResult
sameTraffic(const SimulatorGroup::Traffic &a,
            const SimulatorGroup::Traffic &b)
{
    if (a.moveOps != b.moveOps || a.moveTransfers != b.moveTransfers ||
        a.boundaryMoves != b.boundaryMoves ||
        a.boundaryTransfers != b.boundaryTransfers)
        return ::testing::AssertionFailure()
               << "traffic diverged: inproc " << a.moveOps << "/"
               << a.moveTransfers << "/" << a.boundaryMoves << "/"
               << a.boundaryTransfers << " vs socket " << b.moveOps
               << "/" << b.moveTransfers << "/" << b.boundaryMoves
               << "/" << b.boundaryTransfers;
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(SocketParity, FuzzedMoveHeavyStreamsMatchInproc)
{
    PYPIM_SKIP_UNDER_TSAN();
    const Geometry g = multiGeometry();
    for (uint32_t devices : {2u, 4u}) {
        for (const XbarStorage st :
             {XbarStorage::Dense, XbarStorage::Paged}) {
            const EngineConfig base = EngineConfig::serial()
                                          .withDevices(devices)
                                          .withStorage(st);
            SimulatorGroup inproc(g, base);
            SimulatorGroup socket(
                g, base.withTransport(TransportKind::Socket));
            ASSERT_FALSE(inproc.remote());
            ASSERT_TRUE(socket.remote());
            ASSERT_EQ(socket.devices(), devices);

            Rng rng(401 + devices * 13 +
                    (st == XbarStorage::Paged ? 7 : 0));
            Rng rngTwin = rng;
            for (int batch = 0; batch < 3; ++batch) {
                const std::vector<Word> ops =
                    randomStream(rng, g, 160);
                const std::vector<Word> twin =
                    randomStream(rngTwin, g, 160);
                ASSERT_EQ(ops, twin);
                inproc.submitBatch(ops.data(), ops.size());
                socket.submitBatch(ops.data(), ops.size());
            }
            inproc.flush();
            socket.flush();

            // Readback parity at a directed mask point.
            std::vector<Word> mask;
            mask.push_back(
                MicroOp::crossbarMask(Range::single(5)).encode());
            mask.push_back(MicroOp::rowMask(Range::single(3)).encode());
            inproc.submitBatch(mask.data(), mask.size());
            socket.submitBatch(mask.data(), mask.size());
            for (uint32_t slot : {0u, 2u, 7u})
                EXPECT_EQ(inproc.performRead(enc::read(slot)),
                          socket.performRead(enc::read(slot)))
                    << "x" << devices << " slot " << slot;

            EXPECT_TRUE(inproc.stats() == socket.stats())
                << "x" << devices << " "
                << (st == XbarStorage::Paged ? "paged" : "dense");
            EXPECT_TRUE(sameTraffic(inproc.traffic(),
                                    socket.traffic()))
                << "x" << devices;
            EXPECT_GT(socket.traffic().boundaryMoves, 0u)
                << "stream did not exercise the exchange path";
            EXPECT_EQ(imageBytes(inproc), imageBytes(socket))
                << "x" << devices << " "
                << (st == XbarStorage::Paged ? "paged" : "dense");

            // The exchange phases really went over the wire.
            const WireTelemetry t = socket.wireTelemetry();
            EXPECT_GT(t.exchanges, 0u);
            EXPECT_GT(t.bytesTx, 0u);
            EXPECT_EQ(inproc.wireTelemetry().bytesTx, 0u);
        }
    }
}

TEST(SocketParity, WarmTraceCacheShipsEachSignatureOncePerWorker)
{
    PYPIM_SKIP_UNDER_TSAN();
    const Geometry g = multiGeometry();
    for (uint32_t devices : {2u, 4u}) {
        const EngineConfig base =
            EngineConfig::serial().withDevices(devices);
        SimulatorGroup inproc(g, base);
        SimulatorGroup socket(
            g, base.withTransport(TransportKind::Socket));

        // Two distinct signatures, each replayed three times from a
        // warm cache — the wire must carry each image exactly once per
        // worker, every further replay riding the 8-byte signature.
        constexpr int kReplays = 3;
        constexpr uint32_t kSigs = 2;
        for (uint32_t salt = 0; salt < kSigs; ++salt) {
            const std::vector<Word> ops = cacheableStream(g, salt);
            const std::shared_ptr<const BatchTrace> remote =
                socket.prepareTrace(ops.data(), ops.size());
            const std::shared_ptr<const BatchTrace> local =
                inproc.prepareTrace(ops.data(), ops.size());
            ASSERT_TRUE(remote);
            ASSERT_TRUE(local);
            for (int i = 0; i < kReplays; ++i) {
                socket.submitTrace(remote);
                inproc.submitTrace(local);
            }
        }
        inproc.flush();
        socket.flush();

        const WireTelemetry t = socket.wireTelemetry();
        EXPECT_EQ(t.traceInstalls, kSigs * devices)
            << "each signature crosses the wire once per worker";
        EXPECT_EQ(t.traceHits, kSigs * (kReplays - 1) * devices)
            << "warm replays must be served from the worker cache";
        EXPECT_TRUE(inproc.stats() == socket.stats()) << "x" << devices;
        EXPECT_EQ(imageBytes(inproc), imageBytes(socket))
            << "x" << devices;
    }
}

TEST(SocketParity, EnvSelectedSocketFleetMatchesInproc)
{
    PYPIM_SKIP_UNDER_TSAN();
    // The real opt-in path: PYPIM_TRANSPORT=socket via fromEnv, not a
    // hand-built config.
    ::setenv("PYPIM_TRANSPORT", "socket", 1);
    ::setenv("PYPIM_DEVICES", "2", 1);
    const EngineConfig cfg = EngineConfig::fromEnv();
    ::unsetenv("PYPIM_TRANSPORT");
    ::unsetenv("PYPIM_DEVICES");
    ASSERT_EQ(cfg.transport, TransportKind::Socket);
    ASSERT_EQ(cfg.devices, 2u);

    const Geometry g = multiGeometry();
    SimulatorGroup socket(g, cfg);
    SimulatorGroup inproc(
        g, cfg.withTransport(TransportKind::Inproc));
    ASSERT_TRUE(socket.remote());
    Rng rng(77);
    Rng rngTwin = rng;
    const std::vector<Word> ops = randomStream(rng, g, 200);
    const std::vector<Word> twin = randomStream(rngTwin, g, 200);
    ASSERT_EQ(ops, twin);
    socket.submitBatch(ops.data(), ops.size());
    inproc.submitBatch(twin.data(), twin.size());
    socket.flush();
    inproc.flush();
    EXPECT_TRUE(inproc.stats() == socket.stats());
    EXPECT_EQ(imageBytes(inproc), imageBytes(socket));
}
