/**
 * @file
 * Grouped boundary exchange (sim/device_group.hpp): a boundary-
 * crossing Move opens a Move group that absorbs the mask ops and
 * hazard-free Moves after it, and the group runs ONE stage /
 * broadcast / land exchange. Every case here must leave crossbar
 * state and architectural Stats bit-identical to the monolithic
 * serial oracle, in process and over the socket transport, at 2 and
 * 4 sub-devices, and must split into exactly the groups the hazard
 * rule allows:
 *
 *  - a Move reading a cell an earlier Move of the group writes
 *    (read-after-write) starts a new group;
 *  - two Moves writing one cell (write-after-write) do too;
 *  - a Move that reads the cell it writes (a self-overlapping shift
 *    chain) is a group of its own;
 *  - mask ops inside a group stay in it;
 *  - an invalid Move ends the group: the prefix takes effect and the
 *    error is the op-by-op one.
 *
 * A tensor-level guard checks that a 2-device socket sum<float>()
 * makes one wire exchange per cross-boundary fold.
 */
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "pim/pypim.hpp"
#include "sim/checkpoint.hpp"
#include "sim/device_group.hpp"
#include "sim/serialize.hpp"

using namespace pypim;

namespace
{

Geometry
groupGeometry()
{
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    return g;
}

struct GroupCase
{
    const char *name;
    uint32_t devices;
    TransportKind transport;
};

const GroupCase kCases[] = {
    {"inproc x2", 2, TransportKind::Inproc},
    {"inproc x4", 4, TransportKind::Inproc},
    {"socket x2", 2, TransportKind::Socket},
    {"socket x4", 4, TransportKind::Socket},
};

bool
forkable()
{
#if defined(__SANITIZE_THREAD__)
    return false;  // fork() and ThreadSanitizer do not mix
#else
    return true;
#endif
}

/** Distinct values in slots 0-3, rows 0-7 of every crossbar, written
 *  through the op stream so both transports can be seeded. */
std::vector<Word>
seedStream(const Geometry &g)
{
    std::vector<Word> ops;
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb) {
        ops.push_back(MicroOp::crossbarMask(Range::single(xb)).encode());
        for (uint32_t row = 0; row < 8; ++row) {
            ops.push_back(MicroOp::rowMask(Range::single(row)).encode());
            for (uint32_t slot = 0; slot < 4; ++slot)
                ops.push_back(
                    MicroOp::write(slot, 0x1000u * xb + 0x10u * row +
                                             slot)
                        .encode());
        }
    }
    return ops;
}

/** Canonical state bytes, normalised across device counts. */
std::vector<uint8_t>
stateBytes(const SimulatorGroup &grp)
{
    CheckpointImage img = buildGroupImage(grp);
    img.deviceCount = 1;
    return encodeCheckpoint(img);
}

/** What one submit of @p ops did: its error message, if any. */
std::optional<std::string>
submitAndFlush(SimulatorGroup &grp, const std::vector<Word> &ops)
{
    try {
        grp.submitBatch(ops.data(), ops.size());
        grp.flush();
    } catch (const Error &e) {
        return std::string(e.what());
    }
    return std::nullopt;
}

/**
 * Run @p ops on the oracle and on every group case; expect identical
 * state, Stats and error, and @p exchanges[devices / 4] exchanges
 * (index 0: two devices, 1: four).
 */
void
expectGroupedLikeOracle(const std::vector<Word> &ops,
                        const uint32_t (&exchanges)[2])
{
    const Geometry g = groupGeometry();
    const std::vector<Word> seed = seedStream(g);
    SimulatorGroup oracle(g, EngineConfig::serial());
    ASSERT_EQ(oracle.devices(), 1u);
    oracle.performBatch(seed.data(), seed.size());
    const std::optional<std::string> want = submitAndFlush(oracle, ops);

    for (const GroupCase &c : kCases) {
        if (c.transport == TransportKind::Socket && !forkable())
            continue;
        SimulatorGroup grp(g, EngineConfig::serial()
                                  .withDevices(c.devices)
                                  .withTransport(c.transport));
        ASSERT_EQ(grp.devices(), c.devices);
        grp.performBatch(seed.data(), seed.size());
        const SimulatorGroup::Traffic before = grp.traffic();
        const uint64_t wireBefore = grp.wireTelemetry().exchanges;
        EXPECT_EQ(submitAndFlush(grp, ops), want) << c.name;
        EXPECT_EQ(stateBytes(grp), stateBytes(oracle)) << c.name;
        EXPECT_TRUE(grp.stats() == oracle.stats()) << c.name;
        const uint64_t groups = grp.traffic().exchanges - before.exchanges;
        EXPECT_EQ(groups, exchanges[c.devices / 4]) << c.name;
        if (grp.remote()) {
            EXPECT_EQ(grp.wireTelemetry().exchanges - wireBefore, groups)
                << c.name;
        }
    }
}

} // namespace

TEST(MoveGroup, HazardFreeMovesShareOneExchange)
{
    // Crossbars 8-15 -> 0-7 cross a boundary at 2 and 4 devices; the
    // Moves read and write pairwise distinct cells.
    std::vector<Word> ops;
    ops.push_back(MicroOp::crossbarMask(Range(8, 15, 1)).encode());
    for (uint32_t r = 0; r < 8; ++r)
        ops.push_back(MicroOp::move(0, r, r, 0, 5).encode());
    expectGroupedLikeOracle(ops, {1, 1});
}

TEST(MoveGroup, ReadAfterWriteSplitsTheGroup)
{
    // The second Move reads back, across the boundary, the cells the
    // first one landed: staging it with the first would read stale
    // values.
    std::vector<Word> ops;
    ops.push_back(MicroOp::crossbarMask(Range(8, 15, 1)).encode());
    ops.push_back(MicroOp::move(0, 1, 2, 0, 1).encode());  // writes (1,2)
    ops.push_back(MicroOp::crossbarMask(Range(0, 7, 1)).encode());
    ops.push_back(MicroOp::move(8, 2, 3, 1, 2).encode());  // reads (1,2)
    ops.push_back(MicroOp::move(8, 4, 4, 3, 6).encode());  // joins it
    expectGroupedLikeOracle(ops, {2, 2});
}

TEST(MoveGroup, WriteAfterWriteSplitsTheGroup)
{
    // The second Move rewrites cells the first one lands, locally at
    // two devices: landing the first after both would undo it.
    std::vector<Word> ops;
    ops.push_back(MicroOp::crossbarMask(Range(8, 15, 1)).encode());
    ops.push_back(MicroOp::move(0, 1, 2, 0, 1).encode());  // writes (1,2)
    ops.push_back(MicroOp::crossbarMask(Range(1, 7, 1)).encode());
    ops.push_back(MicroOp::move(0, 5, 2, 2, 1).encode());  // writes (1,2)
    // At two devices the second Move is local, so it runs as a plain
    // broadcast; at four it crosses 4 -> 3 and opens its own group.
    expectGroupedLikeOracle(ops, {1, 2});
}

TEST(MoveGroup, SelfOverlappingShiftChainIsAGroupOfOne)
{
    // Shift every crossbar's (0,3) one crossbar up, twice: each Move
    // reads the cell it writes, read-all-then-write-all.
    std::vector<Word> ops;
    ops.push_back(MicroOp::crossbarMask(Range(0, 14, 1)).encode());
    ops.push_back(MicroOp::move(1, 3, 3, 0, 0).encode());
    ops.push_back(MicroOp::move(1, 4, 4, 1, 2).encode());  // not absorbed
    ops.push_back(MicroOp::move(1, 3, 3, 0, 0).encode());
    expectGroupedLikeOracle(ops, {3, 3});
}

TEST(MoveGroup, MaskChangesStayInsideTheGroup)
{
    std::vector<Word> ops;
    ops.push_back(MicroOp::crossbarMask(Range(8, 15, 1)).encode());
    ops.push_back(MicroOp::move(0, 1, 1, 0, 1).encode());
    ops.push_back(MicroOp::rowMask(Range(0, 6, 2)).encode());
    ops.push_back(MicroOp::crossbarMask(Range(4, 7, 1)).encode());
    ops.push_back(MicroOp::move(8, 2, 2, 0, 1).encode());  // crossing
    ops.push_back(MicroOp::crossbarMask(Range(0, 12, 4)).encode());
    ops.push_back(MicroOp::move(2, 5, 5, 0, 1).encode());  // local
    ops.push_back(MicroOp::crossbarMask(Range(0, 3, 1)).encode());
    ops.push_back(MicroOp::move(1, 6, 6, 2, 3).encode());  // crosses at 4
    expectGroupedLikeOracle(ops, {1, 1});
}

TEST(MoveGroup, NonMoveOpEndsTheGroup)
{
    std::vector<Word> ops;
    ops.push_back(MicroOp::crossbarMask(Range(8, 15, 1)).encode());
    ops.push_back(MicroOp::move(0, 1, 1, 0, 1).encode());
    ops.push_back(MicroOp::write(3, 0xABCDu).encode());
    ops.push_back(MicroOp::move(0, 2, 2, 0, 1).encode());
    expectGroupedLikeOracle(ops, {2, 2});
}

TEST(MoveGroup, InvalidMoveEndsTheGroupAndThrowsAfterItsPrefix)
{
    const Geometry g = groupGeometry();
    std::vector<Word> ops;
    ops.push_back(MicroOp::crossbarMask(Range(8, 15, 1)).encode());
    ops.push_back(MicroOp::move(0, 1, 1, 0, 1).encode());
    ops.push_back(MicroOp::move(0, 2, 2, 0, 1).encode());
    ops.push_back(MicroOp::move(0, 3, 3, g.slots(), 1).encode());
    ops.push_back(MicroOp::move(0, 4, 4, 0, 1).encode());  // never runs
    expectGroupedLikeOracle(ops, {1, 1});
}

TEST(MoveGroup, IllFormedMaskEndsTheGroup)
{
    // The mask's step does not divide its span: the sub-devices throw
    // at it after the group took effect, as the oracle does.
    std::vector<Word> ops;
    ops.push_back(MicroOp::crossbarMask(Range(8, 15, 1)).encode());
    ops.push_back(MicroOp::move(0, 1, 1, 0, 1).encode());
    ops.push_back(MicroOp::rowMask(Range(0, 5, 2)).encode());
    ops.push_back(MicroOp::move(0, 2, 2, 0, 1).encode());
    const Geometry g = groupGeometry();
    // Inproc only: a worker's submit error stays sticky until a
    // restore, so the socket group could not be inspected after it.
    const std::vector<Word> seed = seedStream(g);
    SimulatorGroup oracle(g, EngineConfig::serial());
    oracle.performBatch(seed.data(), seed.size());
    const std::optional<std::string> want = submitAndFlush(oracle, ops);
    ASSERT_TRUE(want.has_value());
    for (uint32_t devices : {2u, 4u}) {
        SimulatorGroup grp(g, EngineConfig::serial().withDevices(devices));
        grp.performBatch(seed.data(), seed.size());
        EXPECT_EQ(submitAndFlush(grp, ops), want) << devices;
        EXPECT_EQ(stateBytes(grp), stateBytes(oracle)) << devices;
        EXPECT_TRUE(grp.stats() == oracle.stats()) << devices;
        EXPECT_EQ(grp.traffic().exchanges, 1u) << devices;
    }
}

TEST(MoveGroup, SocketSumMakesOneExchangePerCrossBoundaryFold)
{
    if (!forkable())
        GTEST_SKIP() << "fork-based transport tests do not run under TSan";
    // 16 warps on 2 sub-devices: the first inter-warp fold (warps
    // 8-15 onto 0-7) is the only one that crosses the boundary, one
    // Move per row.
    const Geometry g = groupGeometry();
    std::vector<float> v(static_cast<size_t>(g.numCrossbars) * g.rows);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = 0.25f * static_cast<float>(i % 97) - 3.0f;

    Device mono(g, Driver::Mode::Parallel, EngineConfig::serial());
    Device fleet(g, Driver::Mode::Parallel,
                 EngineConfig::serial().withDevices(2).withTransport(
                     TransportKind::Socket));
    const Tensor m = Tensor::fromVector(v, &mono);
    const Tensor t = Tensor::fromVector(v, &fleet);
    for (int pass = 0; pass < 2; ++pass) {  // capture, then replay
        const float want = m.sum<float>();
        const SimulatorGroup::Traffic tr0 = fleet.group().traffic();
        const WireTelemetry w0 = fleet.group().wireTelemetry();
        const float got = t.sum<float>();
        EXPECT_EQ(std::bit_cast<uint32_t>(got), std::bit_cast<uint32_t>(want))
            << "pass " << pass;
        const SimulatorGroup::Traffic &tr = fleet.group().traffic();
        EXPECT_EQ(tr.boundaryMoves - tr0.boundaryMoves, g.rows)
            << "pass " << pass;
        EXPECT_EQ(tr.exchanges - tr0.exchanges, 1u) << "pass " << pass;
        EXPECT_EQ(fleet.group().wireTelemetry().exchanges - w0.exchanges,
                  1u)
            << "pass " << pass;
    }
    EXPECT_TRUE(mono.stats() == fleet.stats());
}
