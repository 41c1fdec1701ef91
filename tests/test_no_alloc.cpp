/**
 * @file
 * The raw micro-op path allocates nothing in steady state.
 *
 * This executable replaces the global operator new with a counting
 * version. After one warm-up pass has sized every arena and
 * materialised every paged block the stream touches, the same raw
 * stream of mask, write, LogicH (repeated gates), LogicV and Move ops
 * runs again through Simulator::performBatch on paged storage and
 * must not reach the heap once: on the serial engine (op-major), and
 * on the one-thread sharded engine, which decodes, compiles and
 * replays every segment. A two-device in-process group must run a
 * boundary-crossing Move group (stage, broadcast, land) without
 * allocating too, and a driver's warm captured move sequence must
 * look itself up and replay without copying its moves or reaching
 * the heap. A check that formats its message eagerly,
 * or an expansion or a compile that builds a temporary container,
 * shows up here as a nonzero count.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/config.hpp"
#include "driver/driver.hpp"
#include "sim/device_group.hpp"
#include "sim/simulator.hpp"
#include "uarch/microop.hpp"
#include "uarch/range.hpp"

namespace
{

std::atomic<bool> gCounting{false};
std::atomic<uint64_t> gAllocs{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align, (n + align - 1) / align * align)
                  : std::malloc(n);
    if (!p)
        throw std::bad_alloc();
    return p;
}

/** Heap allocations made while @p fn runs. */
template <typename Fn>
uint64_t
allocationsDuring(Fn &&fn)
{
    gAllocs.store(0);
    gCounting.store(true);
    fn();
    gCounting.store(false);
    return gAllocs.load();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace pypim;

namespace
{

/** Column of bit @p bit of slot @p slot. */
uint32_t
col(const Geometry &g, uint32_t slot, uint32_t bit)
{
    return g.column(slot, bit);
}

/** A raw stream covering every op type the serial engine executes
 *  without a host response. */
std::vector<Word>
rawStream(const Geometry &g)
{
    const uint32_t last = g.partitions - 1;
    std::vector<Word> ops = {
        MicroOp::crossbarMask(Range::all(g.numCrossbars)).encode(),
        MicroOp::rowMask(Range::all(g.rows)).encode(),
        MicroOp::write(0, 0xDEADBEEFu).encode(),
        MicroOp::write(1, 0x0F0F0F0Fu).encode(),
        // Repeated gates: INIT1 of slot 2 in every partition, then an
        // element-parallel NOR of slots 0 and 1 into it.
        MicroOp::logicH(Gate::Init1, 0, 0, col(g, 2, 0), last, 1)
            .encode(),
        MicroOp::logicH(Gate::Nor, col(g, 0, 0), col(g, 1, 0),
                        col(g, 2, 0), last, 1)
            .encode(),
        // A semi-parallel NOT at stride 4 and a single cross-partition
        // gate.
        MicroOp::logicH(Gate::Init1, 0, 0, col(g, 3, 1), last - 2, 4)
            .encode(),
        MicroOp::logicH(Gate::Not, col(g, 2, 0), 0, col(g, 3, 1),
                        last - 2, 4)
            .encode(),
        MicroOp::logicH(Gate::Init1, 0, 0, col(g, 4, last), last, 0)
            .encode(),
        MicroOp::logicH(Gate::Nor, col(g, 0, 0), col(g, 1, 3),
                        col(g, 4, last), last, 0)
            .encode(),
        // Vertical logic under a strided row mask.
        MicroOp::rowMask(Range(0, g.rows - 2, 2)).encode(),
        MicroOp::logicV(Gate::Init1, 0, 1, 5).encode(),
        MicroOp::logicV(Gate::Not, 0, 1, 5).encode(),
        // H-tree move: crossbar 0 -> 1, then a crossbar-range write.
        MicroOp::crossbarMask(Range(0, 0, 1)).encode(),
        MicroOp::move(1, 3, 4, 2, 6).encode(),
        MicroOp::crossbarMask(Range(1, g.numCrossbars - 1, 1)).encode(),
        MicroOp::rowMask(Range(1, g.rows - 1, 2)).encode(),
        MicroOp::write(7, 0x12345678u).encode(),
    };
    return ops;
}

} // namespace

TEST(NoAlloc, CounterSeesHeapAllocations)
{
    const uint64_t n = allocationsDuring([] {
        void *p = ::operator new(64);
        ::operator delete(p);
    });
    EXPECT_EQ(n, 1u);
}

namespace
{

/** Warm @p sim up on the raw stream, then count the heap allocations
 *  of eight more passes; they must record every op. */
void
expectAllocationFree(Simulator &sim)
{
    const std::vector<Word> ops = rawStream(sim.geometry());
    // Warm-up: sizes the move staging buffers and materialises every
    // block the stream writes.
    sim.performBatch(ops.data(), ops.size());
    const Stats before = sim.stats();
    const uint64_t n = allocationsDuring([&] {
        for (int rep = 0; rep < 8; ++rep)
            sim.performBatch(ops.data(), ops.size());
    });
    EXPECT_EQ(n, 0u);
    // The stream really ran: every pass records all of its ops.
    const Stats after = sim.stats();
    EXPECT_EQ(after.totalOps() - before.totalOps(), 8 * ops.size());
}

} // namespace

TEST(NoAlloc, RawStreamPerformBatchIsAllocationFree)
{
    Simulator sim(testGeometry(),
                  EngineConfig::serial().withStorage(XbarStorage::Paged));
    expectAllocationFree(sim);
}

TEST(NoAlloc, ShardedRawStreamCompileAndReplayIsAllocationFree)
{
    // One worker: the engine decodes each segment into its member
    // trace, compiles it into its member program (the run dedup table
    // is per thread and reused) and replays it inline.
    Simulator sim(testGeometry(),
                  EngineConfig::sharded(1).withStorage(XbarStorage::Paged));
    ASSERT_EQ(sim.engine().threads(), 1u);
    expectAllocationFree(sim);
}

TEST(NoAlloc, InprocGroupedBoundaryExchangeIsAllocationFree)
{
    // Crossbars 8-15 -> 0-7 cross the boundary of a two-device group:
    // the batch is one Move group of eight Moves (distinct cells), so
    // each pass stages, broadcasts and lands once through the reused
    // transfer, hazard and landing tables.
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    SimulatorGroup grp(g, EngineConfig::serial()
                              .withStorage(XbarStorage::Paged)
                              .withDevices(2));
    ASSERT_EQ(grp.devices(), 2u);
    std::vector<Word> ops = {
        MicroOp::crossbarMask(Range::all(g.numCrossbars)).encode(),
        MicroOp::rowMask(Range::all(g.rows)).encode(),
        MicroOp::write(0, 0xC0FFEE11u).encode(),
        MicroOp::crossbarMask(Range(8, 15, 1)).encode(),
    };
    for (uint32_t r = 0; r < 8; ++r)
        ops.push_back(MicroOp::move(0, r, r + 8, 0, 1).encode());
    grp.performBatch(ops.data(), ops.size());  // warm-up
    const SimulatorGroup::Traffic before = grp.traffic();
    const uint64_t n = allocationsDuring([&] {
        for (int rep = 0; rep < 8; ++rep)
            grp.performBatch(ops.data(), ops.size());
    });
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(grp.traffic().exchanges - before.exchanges, 8u);
    EXPECT_EQ(grp.traffic().boundaryMoves - before.boundaryMoves, 64u);
    EXPECT_EQ(grp.crossbar(3).read(1, 12), 0xC0FFEE11u);
}

TEST(NoAlloc, WarmCapturedMoveSequenceHitIsAllocationFree)
{
    // One device on the serial engine: a hit looks the sequence up by
    // a borrowed key, submits its compiled trace and assumes the
    // recorded exit masks.
    const Geometry g = testGeometry();
    Simulator sim(g,
                  EngineConfig::serial().withStorage(XbarStorage::Paged));
    Driver drv(sim, g, Driver::Mode::Parallel);
    std::vector<MoveInstr> moves;
    for (uint32_t r = 0; r + 1 < g.rows; r += 2) {
        MoveInstr m;
        m.srcReg = 0;
        m.dstReg = 1;
        m.srcRow = r;
        m.dstRow = r + 1;
        m.warps = Range::all(g.numCrossbars);
        moves.push_back(m);
    }
    // Warm-up: the first run enters with unknown masks, the second
    // with the first's exit masks; from then on every run hits.
    for (int rep = 0; rep < 3; ++rep)
        drv.execute(std::span<const MoveInstr>(moves));
    const size_t entries = drv.moveCacheSize();
    const uint64_t hits = drv.stats().traceCacheHits;
    const uint64_t n = allocationsDuring([&] {
        for (int rep = 0; rep < 8; ++rep)
            drv.execute(std::span<const MoveInstr>(moves));
    });
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(drv.moveCacheSize(), entries);
    EXPECT_EQ(drv.stats().traceCacheHits - hits, 8 * moves.size());
}
