/**
 * @file
 * Captured move sequences (Driver::execute(std::span<const MoveInstr>)):
 * a sequence replayed as one compiled trace must be indistinguishable
 * from the same moves executed one by one — bit-identical crossbar
 * state, architectural Stats, driver instruction count and builder
 * exit masks — whatever the entry mask state (known, unknown, half
 * known), engine, storage, device count and transport. Plus
 * the entry-mask guard of entry-dependent traces, fault recovery and
 * checkpoint/restore around captured hits.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pim/pypim.hpp"
#include "sim/batch_trace.hpp"
#include "sim/checkpoint.hpp"
#include "sim/serialize.hpp"

using namespace pypim;

namespace
{

#if defined(__SANITIZE_THREAD__)
constexpr bool kForkAllowed = false;  // fork() and TSan do not mix
#else
constexpr bool kForkAllowed = true;
#endif

Geometry
captureGeometry()
{
    Geometry g = testGeometry();
    g.numCrossbars = 16;  // 4 level-1 H-tree groups of 4
    return g;
}

/** Random valid Range over [0, limit). */
Range
randomRange(Rng &rng, uint32_t limit)
{
    const uint32_t start = rng.word() % limit;
    const uint32_t step = 1 + rng.word() % 3;
    const uint32_t maxN = (limit - 1 - start) / step;
    return Range(start, start + (rng.word() % (maxN + 1)) * step, step);
}

/** Random intra-warp moves, with same-row and same-register cases. */
std::vector<MoveInstr>
randomMoves(Rng &rng, const Geometry &g, size_t n)
{
    std::vector<MoveInstr> moves(n);
    for (MoveInstr &m : moves) {
        m.kind = MoveInstr::Kind::IntraWarp;
        m.srcReg = static_cast<uint8_t>(rng.word() % g.userRegs);
        m.dstReg = rng.word() % 8 == 0
                       ? m.srcReg
                       : static_cast<uint8_t>(rng.word() % g.userRegs);
        m.srcRow = rng.word() % g.rows;
        m.dstRow = rng.word() % 6 == 0 ? m.srcRow : rng.word() % g.rows;
        m.warps = randomRange(rng, g.numCrossbars);
    }
    return moves;
}

/** Fill every register with seeded random words (bulk path). */
void
seedRegisters(Device &dev, uint64_t seed)
{
    const Geometry &g = dev.geometry();
    Rng rng(seed);
    std::vector<uint32_t> v(static_cast<size_t>(g.rows) * g.numCrossbars);
    for (uint32_t reg = 0; reg < g.userRegs; ++reg) {
        for (uint32_t &x : v)
            x = rng.word();
        dev.driver().writeBulk(static_cast<uint8_t>(reg), 0, 0, 1,
                               v.size(), v.data());
    }
}

enum class Entry
{
    Known,
    Unknown,
    HalfKnown
};

/** Put the builder into the entry mask state @p e (same on both). */
void
setEntry(Device &dev, Entry e, const Range &warps, const Range &rows)
{
    GateBuilder &b = dev.driver().builder();
    b.flush();
    switch (e) {
      case Entry::Known:
        b.setMasks(warps, rows);
        break;
      case Entry::Unknown:
        b.resetMaskState();
        break;
      case Entry::HalfKnown:
        b.resetMaskState();
        b.setWarpMask(warps);
        break;
    }
    b.flush();
}

/** A data-changing R-type instruction between sequences. */
void
scramble(Device &dev, Rng &rng)
{
    const Geometry &g = dev.geometry();
    RTypeInstr in;
    in.op = ROp::BitXor;
    in.dtype = DType::Int32;
    in.rd = static_cast<uint8_t>(rng.word() % g.userRegs);
    in.ra = static_cast<uint8_t>((in.rd + 1) % g.userRegs);
    in.rb = static_cast<uint8_t>((in.rd + 2) % g.userRegs);
    in.warps = randomRange(rng, g.numCrossbars);
    in.rows = randomRange(rng, g.rows);
    dev.driver().execute(in);
}

/** Crossbar state and architectural Stats bit-identical. */
::testing::AssertionResult
sameDeviceState(Device &a, Device &b)
{
    a.flush();
    b.flush();
    if (a.group().remote() || b.group().remote()) {
        // Workers own the crossbars: compare canonical state images.
        auto stateBytes = [](const SimulatorGroup &grp) {
            CheckpointImage img = buildGroupImage(grp);
            img.storage = XbarStorage::Paged;
            img.deviceCount = 1;
            return encodeCheckpoint(img);
        };
        if (stateBytes(a.group()) != stateBytes(b.group()))
            return ::testing::AssertionFailure()
                   << "canonical state images diverged";
    } else {
        for (uint32_t xb = 0; xb < a.geometry().numCrossbars; ++xb)
            if (!a.group().crossbar(xb).sameState(
                    b.group().crossbar(xb)))
                return ::testing::AssertionFailure()
                       << "crossbar " << xb << " diverged";
    }
    if (!(a.stats() == b.stats()))
        return ::testing::AssertionFailure()
               << "architectural stats diverged";
    return ::testing::AssertionSuccess();
}

/** Builder mask caches (the exit masks) identical. */
::testing::AssertionResult
sameBuilderMasks(Device &a, Device &b)
{
    const GateBuilder &x = a.driver().builder();
    const GateBuilder &y = b.driver().builder();
    if (x.knownWarpMask() != y.knownWarpMask() ||
        x.knownRowMask() != y.knownRowMask())
        return ::testing::AssertionFailure() << "builder masks diverged";
    return ::testing::AssertionSuccess();
}

struct CaptureCase
{
    const char *name;
    EngineConfig cfg;
    bool socket;
};

std::vector<CaptureCase>
captureCases()
{
    std::vector<CaptureCase> cases;
    for (XbarStorage st : {XbarStorage::Dense, XbarStorage::Paged}) {
        const bool dense = st == XbarStorage::Dense;
        cases.push_back({dense ? "threads1/dense" : "threads1/paged",
                         EngineConfig::serial().withStorage(st), false});
        cases.push_back({dense ? "threads2/dense" : "threads2/paged",
                         EngineConfig{}.withThreads(2).withStorage(st),
                         false});
    }
    cases.push_back({"inproc x2", EngineConfig::serial().withDevices(2),
                     false});
    cases.push_back({"socket x2",
                     EngineConfig::serial().withDevices(2).withTransport(
                         TransportKind::Socket),
                     true});
    cases.push_back({"env", EngineConfig::fromEnv(),
                     EngineConfig::fromEnv().transport ==
                         TransportKind::Socket});
    return cases;
}

} // namespace

TEST(MoveCapture, FuzzedSequencesMatchPerMoveExecution)
{
    const Geometry g = captureGeometry();
    for (const CaptureCase &cc : captureCases()) {
        if (cc.socket && !kForkAllowed)
            continue;
        SCOPED_TRACE(cc.name);
        Device cap(g, Driver::Mode::Parallel, cc.cfg);
        Device ref(g, Driver::Mode::Parallel, cc.cfg);
        seedRegisters(cap, 17);
        seedRegisters(ref, 17);

        Rng rng(42);
        std::vector<std::vector<MoveInstr>> seqs;
        for (int i = 0; i < 4; ++i)
            seqs.push_back(randomMoves(rng, g, 1 + rng.word() % 24));
        const Range warps[] = {Range::all(g.numCrossbars),
                               randomRange(rng, g.numCrossbars)};
        const Range rows[] = {Range::all(g.rows),
                              randomRange(rng, g.rows)};
        const Entry entries[] = {Entry::Known, Entry::Unknown,
                                 Entry::HalfKnown};

        for (int step = 0; step < 36; ++step) {
            const auto &seq = seqs[rng.word() % seqs.size()];
            const Entry e = entries[rng.word() % 3];
            const Range &w = warps[rng.word() % 2];
            const Range &r = rows[rng.word() % 2];
            setEntry(cap, e, w, r);
            setEntry(ref, e, w, r);
            cap.driver().execute(std::span<const MoveInstr>(seq));
            for (const MoveInstr &m : seq)
                ref.driver().execute(m);
            ASSERT_TRUE(sameBuilderMasks(cap, ref)) << "step " << step;
            ASSERT_EQ(cap.driver().stats().instructions,
                      ref.driver().stats().instructions);
            if (step % 3 == 0) {
                const uint64_t s = rng.word();
                Rng a(s), b(s);
                scramble(cap, a);
                scramble(ref, b);
            }
        }
        ASSERT_TRUE(sameDeviceState(cap, ref));
        // Reads go through the exit masks the builder assumed.
        for (uint32_t reg = 0; reg < g.userRegs; reg += 5) {
            ReadInstr rd;
            rd.reg = static_cast<uint8_t>(reg);
            rd.warp = 3;
            rd.row = 7;
            ASSERT_EQ(cap.driver().execute(rd), ref.driver().execute(rd));
        }
        ASSERT_TRUE(sameDeviceState(cap, ref));

        const EngineConfig &ec = cc.cfg;
        if (ec.traceCache && ec.devices == 1 &&
            ec.transport == TransportKind::Inproc) {
            EXPECT_GT(cap.driver().stats().traceCacheHits,
                      ref.driver().stats().traceCacheHits);
        }
        EXPECT_EQ(ref.driver().moveCacheSize(), 0u);
    }
}

TEST(MoveCapture, HitsCountOnePerMoveServed)
{
    const Geometry g = captureGeometry();
    Device dev(g, Driver::Mode::Parallel, EngineConfig::serial());
    Rng rng(7);
    const std::vector<MoveInstr> seq = randomMoves(rng, g, 20);
    const Range w = Range::all(g.numCrossbars), r = Range::all(g.rows);
    setEntry(dev, Entry::Known, w, r);
    dev.driver().execute(std::span<const MoveInstr>(seq));
    const Stats first = dev.driver().stats();
    EXPECT_EQ(first.instructions, seq.size());
    EXPECT_EQ(first.traceCacheMisses, 1u);
    EXPECT_EQ(first.traceCacheHits, 0u);
    EXPECT_EQ(dev.driver().moveCacheSize(), 1u);

    for (int rep = 0; rep < 3; ++rep) {
        setEntry(dev, Entry::Known, w, r);
        dev.driver().execute(std::span<const MoveInstr>(seq));
    }
    const Stats after = dev.driver().stats();
    EXPECT_EQ(after.traceCacheMisses, 1u);
    EXPECT_EQ(after.traceCacheHits, 3 * seq.size());
    EXPECT_EQ(after.instructions, 4 * seq.size());

    // A different entry state is a different capture.
    setEntry(dev, Entry::Known, Range::single(2), r);
    dev.driver().execute(std::span<const MoveInstr>(seq));
    EXPECT_EQ(dev.driver().moveCacheSize(), 2u);
    // Half-known masks and a disabled trace cache run move by move.
    setEntry(dev, Entry::HalfKnown, w, r);
    dev.driver().execute(std::span<const MoveInstr>(seq));
    dev.driver().setTraceCacheEnabled(false);
    setEntry(dev, Entry::Known, w, r);
    dev.driver().execute(std::span<const MoveInstr>(seq));
    EXPECT_EQ(dev.driver().moveCacheSize(), 2u);
    EXPECT_EQ(dev.driver().stats().traceCacheHits, 3 * seq.size());
    // The fusion knob drops captured traces.
    dev.driver().setTraceCacheEnabled(true);
    dev.driver().setTraceFusionEnabled(false);
    EXPECT_EQ(dev.driver().moveCacheSize(), 0u);
}

TEST(MoveCapture, GroupsTakeTheRawFallbackForEntryDependentStreams)
{
    const Geometry g = captureGeometry();
    std::vector<EngineConfig> cfgs = {EngineConfig::serial().withDevices(2)};
    if (kForkAllowed)
        cfgs.push_back(EngineConfig::serial().withDevices(2).withTransport(
            TransportKind::Socket));
    for (const EngineConfig &ec : cfgs) {
        Device cap(g, Driver::Mode::Parallel, ec);
        Device ref(g, Driver::Mode::Parallel, ec);
        seedRegisters(cap, 5);
        seedRegisters(ref, 5);
        Rng rng(11);
        const std::vector<MoveInstr> seq = randomMoves(rng, g, 16);
        for (int rep = 0; rep < 3; ++rep) {
            for (Device *d : {&cap, &ref})
                setEntry(*d, Entry::Known, Range::all(g.numCrossbars),
                         Range::all(g.rows));
            cap.driver().execute(std::span<const MoveInstr>(seq));
            for (const MoveInstr &m : seq)
                ref.driver().execute(m);
        }
        // Recorded once, replayed raw: no trace built or hit.
        EXPECT_EQ(cap.driver().moveCacheSize(), 1u);
        EXPECT_EQ(cap.driver().stats().traceCacheHits, 0u);
        EXPECT_TRUE(sameBuilderMasks(cap, ref));
        EXPECT_TRUE(sameDeviceState(cap, ref));
        // The sink contract behind it: entry-dependent streams get no
        // trace on more than one sub-device or over the wire.
        const Word op = MicroOp::logicV(Gate::Init1, 0, 3, 5).encode();
        const EntryMasks entry{Range::all(g.numCrossbars),
                               Range::all(g.rows)};
        EXPECT_EQ(cap.group().prepareTrace(&op, 1, true, &entry),
                  nullptr);
    }
}

TEST(MoveCapture, EntryMaskGuardPanicsUnderWrongMasks)
{
    const Geometry g = captureGeometry();
    Simulator sim(g);
    // A stream with no leading masks: only valid from an entry.
    const std::vector<Word> ops = {
        MicroOp::logicV(Gate::Init1, 0, 3, 5).encode(),
        MicroOp::logicV(Gate::Not, 1, 3, 5).encode(),
    };
    EXPECT_EQ(sim.prepareTrace(ops.data(), ops.size(), true), nullptr);
    const EntryMasks entry{Range(1, 5, 2), Range::single(3)};
    const auto trace =
        sim.prepareTrace(ops.data(), ops.size(), true, &entry);
    ASSERT_NE(trace, nullptr);
    EXPECT_TRUE(trace->hasEntry);
    // Power-on masks are not the entry state.
    EXPECT_THROW(sim.submitTrace(trace), InternalError);
    const std::vector<Word> masks = {
        MicroOp::crossbarMask(entry.xb).encode(),
        MicroOp::rowMask(Range(0, 1, 1)).encode(),
    };
    sim.performBatch(masks.data(), masks.size());
    EXPECT_THROW(sim.submitTrace(trace), InternalError);
    const Word row = MicroOp::rowMask(entry.row).encode();
    sim.performBatch(&row, 1);
    EXPECT_NO_THROW(sim.submitTrace(trace));
    sim.flush();
}

TEST(MoveCapture, FaultRecoveryAcrossCapturedTracesBitIdentical)
{
    const Geometry g = captureGeometry();
    Rng rng(3);
    std::vector<float> in(256);
    for (float &x : in)
        x = static_cast<float>(rng.int32In(-100000, 100000)) / 64.0f;
    std::vector<float> want = in;
    std::sort(want.begin(), want.end());
    for (const char *spec : {"seed=5:flip=35", "seed=4:fail=10"}) {
        const EngineConfig base = EngineConfig::serial();
        Device faulty(g, Driver::Mode::Parallel,
                      base.withFaults(spec).withVerifyState());
        Device clean(g, Driver::Mode::Parallel, base);
        for (int pass = 0; pass < 2; ++pass) {
            for (Device *d : {&faulty, &clean}) {
                Tensor t = Tensor::fromVector(in, d);
                t.sort();
                ASSERT_EQ(t.toFloatVector(), want) << spec;
            }
        }
        ASSERT_TRUE(sameDeviceState(faulty, clean)) << spec;
        EXPECT_GT(faulty.driver().stats().traceCacheHits,
                  faulty.driver().stats().traceCacheMisses)
            << spec;
        const Stats fs = faulty.faultStats();
        EXPECT_GT(fs.faultsInjected, 0u) << spec;
        EXPECT_GT(fs.recoveries, 0u) << spec;
    }
}

TEST(MoveCapture, CheckpointRestoreThenCapturedHit)
{
    const Geometry g = captureGeometry();
    const std::string path =
        ::testing::TempDir() + "pypim_move_capture.ckpt";
    Rng rng(23);
    const std::vector<MoveInstr> seq = randomMoves(rng, g, 24);
    const std::vector<MoveInstr> other = randomMoves(rng, g, 9);
    RTypeInstr x;
    x.op = ROp::BitXor;
    x.dtype = DType::Int32;
    x.rd = 2;
    x.ra = 0;
    x.rb = 1;
    x.warps = Range::all(g.numCrossbars);
    x.rows = Range::all(g.rows);

    for (XbarStorage st : {XbarStorage::Dense, XbarStorage::Paged}) {
        const EngineConfig ec = EngineConfig::serial().withStorage(st);
        Device cap(g, Driver::Mode::Parallel, ec);
        Device ref(g, Driver::Mode::Parallel, ec);
        auto runSeq = [&](const std::vector<MoveInstr> &s) {
            cap.driver().execute(std::span<const MoveInstr>(s));
            for (const MoveInstr &m : s)
                ref.driver().execute(m);
        };
        auto runX = [&] {
            cap.driver().execute(x);
            ref.driver().execute(x);
        };
        seedRegisters(cap, 9);
        seedRegisters(ref, 9);
        runX();
        runSeq(seq);  // captured from the R-type's exit masks
        cap.checkpoint(path);
        ref.checkpoint(path + ".ref");
        runSeq(other);
        runX();
        runSeq(seq);
        cap.restore(path);
        ref.restore(path + ".ref");
        // The restore forgets the builder masks; the cached R-type
        // re-establishes them, and the sequence then hits.
        runX();
        const uint64_t hits = cap.driver().stats().traceCacheHits;
        runSeq(seq);
        EXPECT_EQ(cap.driver().stats().traceCacheHits,
                  hits + seq.size());
        EXPECT_TRUE(sameBuilderMasks(cap, ref));
        EXPECT_TRUE(sameDeviceState(cap, ref));
        std::remove(path.c_str());
        std::remove((path + ".ref").c_str());
    }
}
