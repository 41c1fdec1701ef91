/**
 * @file
 * Fault-injection and recovery tests (sim/fault.hpp,
 * sim/checkpoint.hpp): the FaultSpec parser rejects typos loudly;
 * with PYPIM_VERIFY_STATE on, every injected transient fault is
 * DETECTED at a checksum point and RECOVERED by journaled
 * retry-with-restore, leaving final state and architectural Stats
 * bit-identical to a fault-free run; without verification an injected
 * replay failure on a socket worker surfaces as its sticky error at
 * EVERY sync point until Device::restore clears it; and unrecoverable
 * stuck-at damage exhausts the retry cap into a sticky terminal
 * error — never silent corruption.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pim/pypim.hpp"
#include "sim/checkpoint.hpp"
#include "sim/device_group.hpp"
#include "sim/fault.hpp"
#include "sim/serialize.hpp"

using namespace pypim;

namespace
{

Geometry
faultGeometry()
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

class TempFile
{
  public:
    explicit TempFile(const std::string &tag)
        : path_(::testing::TempDir() + "pypim_" + tag + "_" +
                std::to_string(reinterpret_cast<uintptr_t>(this)) +
                ".ckpt")
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Tensor program with readbacks interleaved between compute steps,
 *  so detection points (drains) pepper the run. */
std::vector<int32_t>
runProgram(Device &dev, uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<int32_t> va(n), vb(n);
    for (size_t i = 0; i < n; ++i) {
        va[i] = static_cast<int32_t>(rng.word());
        vb[i] = static_cast<int32_t>(rng.word() | 1);
    }
    Tensor a = Tensor::fromVector(va, &dev);
    Tensor b = Tensor::fromVector(vb, &dev);
    Tensor c = a * b + a;
    std::vector<int32_t> out = c.toIntVector();  // mid-run drain
    Tensor d = (c ^ b) - a;
    const std::vector<int32_t> tail = d.toIntVector();
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
}

::testing::AssertionResult
sameDeviceState(Device &a, Device &b)
{
    a.flush();
    b.flush();
    if (a.group().remote() || b.group().remote()) {
        // Worker processes own the crossbars under the socket
        // transport; the canonical checkpoint image is the
        // transport-transparent identity (byte-equal iff state is)
        // once the informational source-config fields are
        // normalized.
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

class FaultRecovery : public ::testing::TestWithParam<size_t>
{
};

} // namespace

// --- spec parsing ---------------------------------------------------------

TEST(FaultSpec_, ParsesEveryKey)
{
    const FaultSpec s = FaultSpec::parse(
        "seed=7:flip=25:stuck=2:fail=3:poison=5:dev=1");
    EXPECT_EQ(s.seed, 7u);
    EXPECT_EQ(s.flipPct, 25u);
    EXPECT_EQ(s.stuckBits, 2u);
    EXPECT_EQ(s.failAtBatch, 3u);
    EXPECT_EQ(s.poisonAtBatch, 5u);
    EXPECT_EQ(s.device, 1);
    EXPECT_TRUE(s.any());
    EXPECT_FALSE(FaultSpec::parse("").any());
    EXPECT_FALSE(FaultSpec::parse("seed=9").any());
}

TEST(FaultSpec_, TyposThrowLoudly)
{
    for (const char *bad :
         {"flip", "flip=", "flip=abc", "flip=101", "flip=-1",
          "flips=1", "stuck=2000", "seed=1:junk=2", "fail=1x",
          "dev=99999999999", "=5", "seed==3"}) {
        EXPECT_THROW(FaultSpec::parse(bad), Error) << "'" << bad << "'";
    }
}

TEST(FaultSpec_, TypoThrowsAtDeviceConstruction)
{
    const Geometry g = faultGeometry();
    EXPECT_THROW(Device(g, Driver::Mode::Parallel,
                        EngineConfig::serial().withFaults("flop=1")),
                 Error);
}

// --- detect-and-recover: transient faults --------------------------------

TEST_P(FaultRecovery, FlipsAndPoisonRecoverBitIdentical)
{
    const EngineCase &ec = engineCase(GetParam());
    const Geometry g = faultGeometry();
    for (const char *spec :
         {"seed=5:flip=35", "seed=9:poison=2", "seed=3:flip=20:poison=4"}) {
        Device faulty(g, Driver::Mode::Parallel,
                      ec.cfg.withFaults(spec).withVerifyState());
        Device clean(g, Driver::Mode::Parallel, ec.cfg);
        const auto got = runProgram(faulty, 1234, 400);
        const auto want = runProgram(clean, 1234, 400);
        // Values the host read back are NEVER from corrupted state:
        // detection at the drain precedes every readback.
        ASSERT_EQ(got, want) << ec.name << " " << spec;
        // Final state and architectural Stats bit-identical to the
        // fault-free run — recovery re-replay re-records exactly the
        // journaled history.
        ASSERT_TRUE(sameDeviceState(faulty, clean))
            << ec.name << " " << spec;
        const Stats fs = faulty.faultStats();
        EXPECT_GT(fs.faultsInjected, 0u) << ec.name << " " << spec;
        EXPECT_GT(fs.faultsDetected, 0u) << ec.name << " " << spec;
        EXPECT_GT(fs.recoveries, 0u) << ec.name << " " << spec;
        EXPECT_EQ(clean.faultStats().faultsInjected, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Engines, FaultRecovery,
                         ::testing::Range<size_t>(0, numEngineCases));

// --- recovery across a storage promotion ----------------------------------

TEST_P(FaultRecovery, JournaledWindowAcrossPromotionBitIdentical)
{
    // The recovery baseline is the empty device, where every crossbar
    // is paged. The first phase fills the crossbars past the
    // promotion threshold, so they replay as slabs before the one-shot
    // replay failure fires. Recovery then restores the paged baseline
    // into slab crossbars and re-replays the whole journal, promotion
    // included.
    const EngineCase &ec = engineCase(GetParam());
    const Geometry g = faultGeometry();
    const EngineConfig cfg = ec.cfg.withStorage(XbarStorage::Paged);
    Device faulty(g, Driver::Mode::Parallel,
                  cfg.withFaults("seed=4:fail=10").withVerifyState());
    Device clean(g, Driver::Mode::Parallel, cfg);
    Rng rng(99);
    std::vector<int32_t> va(1024), vb(1024);
    for (size_t i = 0; i < va.size(); ++i) {
        va[i] = static_cast<int32_t>(rng.word());
        vb[i] = static_cast<int32_t>(rng.word() | 1);
    }
    auto phase1 = [&](Device &dev) {
        Tensor a = Tensor::fromVector(va, &dev);
        Tensor b = Tensor::fromVector(vb, &dev);
        Tensor c = a * b + a;
        return std::make_tuple(a, b, c);
    };
    auto [fa, fb, fc] = phase1(faulty);
    auto [ca, cb, cc] = phase1(clean);
    ASSERT_EQ(fc.toIntVector(), cc.toIntVector()) << ec.name;
    ASSERT_EQ(faulty.faultStats().faultsInjected, 0u)
        << ec.name << ": the failure must fire after the promotion";
    ASSERT_GT(faulty.group().storageGauges().slabCrossbars, 0u)
        << ec.name;
    for (int rounds = 0;
         rounds < 64 && faulty.faultStats().faultsInjected == 0;
         ++rounds) {
        Tensor fd = (fc ^ fb) - fa;
        Tensor cd = (cc ^ cb) - ca;
        ASSERT_EQ(fd.toIntVector(), cd.toIntVector())
            << ec.name << " round " << rounds;
    }
    ASSERT_TRUE(sameDeviceState(faulty, clean)) << ec.name;
    const Stats fs = faulty.faultStats();
    EXPECT_EQ(fs.faultsInjected, 1u) << ec.name;
    EXPECT_GT(fs.recoveries, 0u) << ec.name;
}

// --- sticky error contract without verification ---------------------------

TEST(FaultSticky, SocketErrorRethrownAtEverySyncUntilRestore)
{
    // Injection WITHOUT verification: the injected replay abort on a
    // socket worker goes sticky there, surfaces at the next sync
    // point (the report-at-sync contract) and keeps rethrowing at
    // every later one; Device::restore is the recovery that clears it.
#if defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "fork-based transport tests do not run under TSan";
#endif
    const Geometry g = faultGeometry();
    Device dev(g, Driver::Mode::Parallel,
               EngineConfig::serial()
                   .withTransport(TransportKind::Socket)
                   .withDevices(2)
                   .withFaults("seed=1:fail=2"));
    TempFile f("sticky");
    dev.checkpoint(f.path());  // pre-fault baseline

    const Geometry &geo = dev.geometry();
    RTypeInstr in;
    in.op = ROp::Add;
    in.dtype = DType::Int32;
    in.rd = 2;
    in.ra = 0;
    in.rb = 1;
    in.warps = Range::all(geo.numCrossbars);
    in.rows = Range::all(geo.rows);
    // Feed batches until the injected abort lands in a worker.
    auto poke = [&] {
        dev.driver().execute(in);
        dev.flush();
    };
    bool threw = false;
    for (int i = 0; i < 8 && !threw; ++i) {
        try {
            poke();
        } catch (const InjectedFault &) {
            threw = true;
        }
    }
    ASSERT_TRUE(threw) << "fail=2 never fired";
    // Sticky: EVERY subsequent sync point rethrows the same fault.
    EXPECT_THROW(dev.flush(), InjectedFault);
    EXPECT_THROW(dev.flush(), InjectedFault);
    EXPECT_THROW(poke(), InjectedFault);

    // Restore clears the sticky error; the device is healthy again
    // (the one-shot abort does not re-fire) and computes correctly.
    dev.restore(f.path());
    std::vector<int32_t> v(64);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<int32_t>(i * 2654435761u);
    Tensor a = Tensor::fromVector(v, &dev);
    Tensor b = a + a;
    std::vector<int32_t> want(v);
    for (auto &x : want)
        x = static_cast<int32_t>(2 * static_cast<uint32_t>(x));
    EXPECT_EQ(b.toIntVector(), want);
}

// --- unrecoverable damage: retry cap and terminal error -------------------

TEST(FaultTerminal, StuckPinsExhaustRetriesIntoStickyTerminal)
{
    // Stuck-at pins re-corrupt every recovery re-replay (hardware
    // damage does not heal because the host retried), so the retry
    // cap exhausts into a terminal error — sticky at every later
    // call, never silent corruption.
    const Geometry g = faultGeometry();
    Device dev(g, Driver::Mode::Parallel,
               EngineConfig::serial()
                   .withFaults("seed=2:stuck=8")
                   .withVerifyState());
    EXPECT_THROW(runProgram(dev, 77, 400), DeviceFault);
    // Terminal: subsequent calls rethrow without touching the device.
    EXPECT_THROW(dev.flush(), DeviceFault);
    EXPECT_THROW(runProgram(dev, 78, 64), DeviceFault);
    const Stats fs = dev.faultStats();
    EXPECT_GE(fs.faultsDetected, RecoverySink::kRetryCap);
}

// --- boundary exchange keeps the verifier armed ---------------------------

TEST(FaultBoundary, FlipBeforeBoundaryMoveIsDetectedAndRecovered)
{
    // Sub-device 1 is poisoned right after batch 2 (a lone mask op),
    // so the damage sits in the source slice when batch 3's boundary
    // Move stages its reads. Staging and landing must not touch the
    // checksum baseline: the Move's own verify detects the damage and
    // recovery restores, instead of re-blessing it as legitimate.
    const Geometry g = faultGeometry();
    for (const TransportKind tk :
         {TransportKind::Inproc, TransportKind::Socket}) {
#if defined(__SANITIZE_THREAD__)
        if (tk == TransportKind::Socket)
            continue;  // fork() and ThreadSanitizer do not mix
#endif
        const EngineConfig base =
            EngineConfig::serial().withDevices(2).withTransport(tk);
        const EngineConfig armed = base.withVerifyState();
        SimulatorGroup clean(g, base);
        SimulatorGroup faulty(g, armed.withFaults("seed=4:poison=2:dev=1"));
        RecoverySink sink(faulty, armed);

        const std::vector<Word> batches[] = {
            {MicroOp::crossbarMask(Range::all(g.numCrossbars)).encode(),
             MicroOp::rowMask(Range::all(g.rows)).encode(),
             MicroOp::write(0, 0x5EED0001u).encode(),
             MicroOp::write(2, 0x5EED0002u).encode()},
            {MicroOp::crossbarMask(Range(8, 15, 1)).encode()},
            {MicroOp::move(0, 5, 9, 0, 1).encode(),
             MicroOp::move(0, 6, 10, 2, 3).encode()},
        };
        for (const std::vector<Word> &b : batches) {
            clean.submitBatch(b.data(), b.size());
            sink.submitBatch(b.data(), b.size());
        }
        clean.flush();
        sink.flush();

        const char *name =
            tk == TransportKind::Socket ? "socket" : "inproc";
        EXPECT_EQ(faulty.faultsInjected(), 1u) << name;
        EXPECT_GE(sink.recoveryStats().faultsDetected, 1u) << name;
        EXPECT_GE(sink.recoveryStats().recoveries, 1u) << name;
        EXPECT_EQ(encodeCheckpoint(buildGroupImage(faulty)),
                  encodeCheckpoint(buildGroupImage(clean)))
            << name;
        EXPECT_TRUE(faulty.stats() == clean.stats()) << name;
    }
}

// --- CI soak: randomized fault campaigns ----------------------------------

TEST(FaultSoak, EverySeedRecoversOrFailsLoudly)
{
    // Honours the CI matrix knobs (PYPIM_THREADS / PYPIM_DEVICES /
    // PYPIM_TRANSPORT) as the base configuration;
    // fault spec and verification are pinned per iteration.
    EngineConfig base = EngineConfig::fromEnv();
    base.faults.clear();  // spec pinned per iteration below
    base.verifyState = false;
    const Geometry g = faultGeometry();
    uint64_t injectedTotal = 0;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        const std::string spec =
            "seed=" + std::to_string(seed) + ":flip=30:poison=3";
        Device faulty(g, Driver::Mode::Parallel,
                      base.withFaults(spec).withVerifyState());
        Device clean(g, Driver::Mode::Parallel, base);
        const auto got = runProgram(faulty, seed * 101, 300);
        const auto want = runProgram(clean, seed * 101, 300);
        ASSERT_EQ(got, want) << "seed " << seed;
        ASSERT_TRUE(sameDeviceState(faulty, clean)) << "seed " << seed;
        injectedTotal += faulty.faultStats().faultsInjected;
        EXPECT_EQ(faulty.faultStats().faultsDetected == 0,
                  faulty.faultStats().faultsInjected == 0)
            << "seed " << seed << ": injected faults must be detected";
    }
    EXPECT_GT(injectedTotal, 0u) << "soak injected nothing";
}
