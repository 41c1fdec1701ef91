/**
 * @file
 * The raw micro-op path and cached trace replay allocate nothing in
 * steady state.
 *
 * This executable replaces the global operator new with a counting
 * version. After one warm-up pass has sized every arena and
 * materialised every paged block the stream touches, the same stream
 * of mask, write, LogicH (repeated gates), LogicV and Move ops runs
 * again on paged storage and must not reach the heap once, at one
 * replay thread (inline) and at two (the pool): raw through
 * Simulator::performBatch (op-major), and as one prepared trace
 * through Simulator::submitTrace (compiled, crossbar-major). A
 * two-device in-process group must run a
 * boundary-crossing Move group (stage, broadcast, land) without
 * allocating too, and a driver's warm captured move sequence must
 * look itself up and replay without copying its moves or reaching
 * the heap. Recompiling a segment through a warm expansion table into
 * the program it was compiled into before (the liveness scan and run
 * sharing included) must not allocate either. A check that formats
 * its message eagerly, or an expansion or a compile that builds a
 * temporary container, shows up here as a nonzero count.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/config.hpp"
#include "driver/driver.hpp"
#include "sim/batch_trace.hpp"
#include "sim/device_group.hpp"
#include "sim/htree.hpp"
#include "sim/replay_program.hpp"
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

/** A raw stream covering every op type the engine executes without
 *  a host response. */
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

/** Warm @p sim up with one @p pass, then count the heap allocations
 *  of eight more; each pass must record every op of @p ops. */
template <typename Pass>
void
expectAllocationFree(Simulator &sim, const std::vector<Word> &ops,
                     Pass &&pass)
{
    // Warm-up: sizes the move staging buffers and materialises every
    // block the stream writes.
    pass();
    const Stats before = sim.stats();
    const uint64_t n = allocationsDuring([&] {
        for (int rep = 0; rep < 8; ++rep)
            pass();
    });
    EXPECT_EQ(n, 0u);
    // The stream really ran: every pass records all of its ops.
    const Stats after = sim.stats();
    EXPECT_EQ(after.totalOps() - before.totalOps(), 8 * ops.size());
}

class NoAllocThreads : public ::testing::TestWithParam<uint32_t>
{
};

} // namespace

TEST_P(NoAllocThreads, RawStreamPerformBatchIsAllocationFree)
{
    Simulator sim(testGeometry(), EngineConfig{}
                                      .withThreads(GetParam())
                                      .withStorage(XbarStorage::Paged));
    ASSERT_EQ(sim.engine().threads(), GetParam());
    const std::vector<Word> ops = rawStream(sim.geometry());
    expectAllocationFree(sim, ops, [&] {
        sim.performBatch(ops.data(), ops.size());
    });
}

TEST_P(NoAllocThreads, CachedTraceReplayIsAllocationFree)
{
    // The compiled programs replay inline at one thread and over the
    // work-stealing pool at two.
    Simulator sim(testGeometry(), EngineConfig{}
                                      .withThreads(GetParam())
                                      .withStorage(XbarStorage::Paged));
    ASSERT_EQ(sim.engine().threads(), GetParam());
    const std::vector<Word> ops = rawStream(sim.geometry());
    const auto trace = sim.prepareTrace(ops.data(), ops.size());
    ASSERT_NE(trace, nullptr);
    expectAllocationFree(sim, ops, [&] { sim.submitTrace(trace); });
    if (GetParam() > 1) {
        EXPECT_GT(Stats::merged(sim.engine().shardWork()).totalOps(),
                  0u)
            << "the trace must have replayed on the pool";
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, NoAllocThreads,
                         ::testing::Values(1u, 2u),
                         [](const auto &info) {
                             return "threads" +
                                    std::to_string(info.param);
                         });

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
    // One device at one thread: a hit looks the sequence up by
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

TEST(NoAlloc, WarmSegmentRecompileIsAllocationFree)
{
    // The driver's INIT1-chain idiom (fused by the liveness scan), a
    // dead INIT0, and passes with equal section runs (shared),
    // recompiled through one expansion table into one program; the
    // first compile fills the table and sizes the program and the
    // compiling thread's scratch.
    const Geometry g = testGeometry();
    const uint32_t last = g.partitions - 1;
    const auto lane = [&](Gate gate, uint32_t a, uint32_t b,
                          uint32_t out) {
        return MicroOp::logicH(gate, col(g, a, 0), col(g, b, 0),
                               col(g, out, 0), last, 1)
            .encode();
    };
    const std::vector<Word> ops = {
        MicroOp::crossbarMask(Range::all(g.numCrossbars)).encode(),
        MicroOp::rowMask(Range::all(g.rows)).encode(),
        lane(Gate::Init1, 0, 0, 2),
        lane(Gate::Init1, 0, 0, 3),
        lane(Gate::Nor, 0, 1, 2),
        lane(Gate::Nor, 0, 1, 3),
        lane(Gate::Init0, 0, 0, 4),
        lane(Gate::Init1, 0, 0, 4),
        MicroOp::rowMask(Range::single(3)).encode(),
        lane(Gate::Not, 1, 1, 5),
        MicroOp::rowMask(Range::single(9)).encode(),
        lane(Gate::Not, 1, 1, 5),
    };
    ExpansionTable table(g);
    MaskState mask;
    ReplayProgram prog;
    const auto compile = [&] {
        mask.reset(g);
        Stats stats;
        CrossbarHull hull;
        decodeSegment(ops.data(), ops.size(), g, table, mask, stats, hull,
                      &prog);
    };
    compile();
    const size_t words = table.size();
    const uint64_t n = allocationsDuring([&] {
        for (int rep = 0; rep < 8; ++rep)
            compile();
    });
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(table.size(), words);
    // The scan rewrote the segment, and the two NOT passes share a run.
    EXPECT_EQ(prog.liveness.fused, 2u * g.partitions);
    EXPECT_EQ(prog.liveness.dead, g.partitions);
    ASSERT_EQ(prog.instrs.size(), 3u);
    EXPECT_EQ(prog.instrs[1].off, prog.instrs[2].off);
}
