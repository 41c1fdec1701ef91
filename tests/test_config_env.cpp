/**
 * @file
 * Directed tests for the environment-knob parser
 * (EngineConfig::fromEnv): malformed or out-of-range values of
 * PYPIM_THREADS / PYPIM_DEVICES must throw a clear pypim::Error
 * instead of silently misconfiguring the stack (atol-style parsing
 * read "abc" as 0 and "12abc" as 12), and the boolean knobs must
 * reject anything but on|off|1|0. Retired knobs (the engine kind,
 * affinity, storage, compiled-replay, trace-cache and bulk-I/O
 * switches) must not steer anything, and a config that turns the
 * pipeline or affinity on or compiled replay off is refused when a
 * simulator is built from it.
 */
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/config.hpp"
#include "common/error.hpp"
#include "sim/device_group.hpp"
#include "sim/simulator.hpp"

using namespace pypim;

namespace
{

/** Scoped setter restoring the previous value on destruction. */
class EnvVar
{
  public:
    EnvVar(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old) {
            had_ = true;
            old_ = old;
        }
        ::setenv(name, value, 1);
    }
    ~EnvVar()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

} // namespace

TEST(ConfigEnv, EngineAndAffinityHaveNoKnob)
{
    // One engine, unpinned threads: the retired PYPIM_ENGINE and
    // PYPIM_AFFINITY variables must not steer anything, whatever
    // their value.
    for (const char *v : {"serial", "sharded", "on", "junk"}) {
        EnvVar e("PYPIM_ENGINE", v);
        EnvVar a("PYPIM_AFFINITY", v);
        const EngineConfig c = EngineConfig::fromEnv();
        EXPECT_EQ(c.kind, EngineKind::Serial) << "'" << v << "'";
        EXPECT_FALSE(c.affinity) << "'" << v << "'";
    }
}

TEST(ConfigEnv, ThreadsRejectsNonNumeric)
{
    for (const char *bad : {"abc", "12abc", "1.5", "0x8", "", " 4",
                            "\n8", "\r8", "\t8", "+4", "-1",
                            "99999999999999999999"}) {
        EnvVar v("PYPIM_THREADS", bad);
        EXPECT_THROW(EngineConfig::fromEnv(), Error)
            << "PYPIM_THREADS='" << bad << "'";
    }
}

TEST(ConfigEnv, ThreadsRejectsOutOfRange)
{
    EnvVar v("PYPIM_THREADS", "1048577");  // > 2^20
    EXPECT_THROW(EngineConfig::fromEnv(), Error);
}

TEST(ConfigEnv, ThreadsParsesValidValues)
{
    {
        ::unsetenv("PYPIM_THREADS");
        EXPECT_EQ(EngineConfig::fromEnv().threads, 1u)
            << "one replay thread unless asked for more";
    }
    {
        EnvVar v("PYPIM_THREADS", "0");
        EXPECT_EQ(EngineConfig::fromEnv().threads, 0u);
    }
    {
        EnvVar v("PYPIM_THREADS", "16");
        EXPECT_EQ(EngineConfig::fromEnv().threads, 16u);
    }
}

TEST(ConfigEnv, DevicesRejectsMalformedAndNonPow2)
{
    for (const char *bad : {"abc", "2x", "0", "3", "6", "-2", ""}) {
        EnvVar v("PYPIM_DEVICES", bad);
        EXPECT_THROW(EngineConfig::fromEnv(), Error)
            << "PYPIM_DEVICES='" << bad << "'";
    }
}

TEST(ConfigEnv, DevicesParsesPowersOfTwo)
{
    for (uint32_t n : {1u, 2u, 4u, 16u}) {
        EnvVar v("PYPIM_DEVICES", std::to_string(n).c_str());
        EXPECT_EQ(EngineConfig::fromEnv().devices, n);
    }
}

TEST(ConfigEnv, StorageHasNoKnob)
{
    // Storage is adaptive per crossbar; the Dense oracle is chosen in
    // code. The retired PYPIM_XBAR_STORAGE variable must not steer it.
    EnvVar v("PYPIM_XBAR_STORAGE", "dense");
    EXPECT_EQ(EngineConfig::fromEnv().storage, XbarStorage::Paged);
}

TEST(ConfigEnv, TraceCacheAndBulkIoHaveNoKnob)
{
    // The uncached and element-wise oracles are selected in code: the
    // retired variables must not steer anything, whatever their value.
    for (const char *v : {"off", "0", "on", "junk"}) {
        EnvVar t("PYPIM_TRACE_CACHE", v);
        EnvVar b("PYPIM_BULK_IO", v);
        const EngineConfig c = EngineConfig::fromEnv();
        EXPECT_TRUE(c.traceCache) << "'" << v << "'";
        EXPECT_TRUE(c.bulkIo) << "'" << v << "'";
    }
}

TEST(ConfigEnv, CompiledReplayHasNoKnob)
{
    // Every segment replays compiled; the retired
    // PYPIM_COMPILED_REPLAY variable must not steer anything.
    for (const char *v : {"off", "0", "on", "junk"}) {
        EnvVar e("PYPIM_COMPILED_REPLAY", v);
        EXPECT_TRUE(EngineConfig::fromEnv().compiledReplay)
            << "PYPIM_COMPILED_REPLAY='" << v << "'";
    }
}

TEST(ConfigEnv, RetiredFieldsAreRejectedAtConstruction)
{
    const Geometry g = testGeometry();
    EXPECT_NO_THROW(rejectRetiredFields(EngineConfig::serial()));
    EngineConfig off = EngineConfig::serial();
    off.compiledReplay = false;
    EngineConfig piped = EngineConfig::serial();
    piped.pipeline = true;
    EngineConfig pinned = EngineConfig::serial();
    pinned.affinity = true;
    for (const EngineConfig &bad : {off, piped, pinned}) {
        EXPECT_THROW(rejectRetiredFields(bad), Error);
        EXPECT_THROW(Simulator s(g, bad), Error);
        const EngineConfig threaded = bad.withThreads(2);
        EXPECT_THROW(Simulator s(g, threaded), Error);
        EXPECT_THROW(SimulatorGroup grp(g, bad), Error);
        EXPECT_THROW(SimulatorGroup grp(g, bad.withDevices(2)), Error);
        // Refused before any worker process is forked.
        EXPECT_THROW(SimulatorGroup grp(g, bad.withDevices(2).withTransport(
                                               TransportKind::Socket)),
                     Error);
        // An engine swap is a construction too.
        Simulator sim(g, EngineConfig::serial());
        EXPECT_THROW(sim.setEngine(threaded), Error);
    }
}

TEST(ConfigEnv, DefaultsWhenUnset)
{
    ::unsetenv("PYPIM_THREADS");
    ::unsetenv("PYPIM_DEVICES");
    const EngineConfig c = EngineConfig::fromEnv();
    EXPECT_EQ(c.threads, 1u);
    EXPECT_EQ(c.devices, 1u);
    EXPECT_EQ(c.storage, XbarStorage::Paged)
        << "adaptive paged is the default storage; dense is the "
           "parity oracle set in code";
    EXPECT_TRUE(c.bulkIo)
        << "bulk I/O is the default; the element-wise path is the "
           "opt-in parity oracle";
    EXPECT_TRUE(c.compiledReplay)
        << "every segment replays compiled";
}

TEST(ConfigEnv, TransportParses)
{
    {
        EnvVar v("PYPIM_TRANSPORT", "inproc");
        EXPECT_EQ(EngineConfig::fromEnv().transport,
                  TransportKind::Inproc);
    }
    {
        EnvVar v("PYPIM_TRANSPORT", "socket");
        EXPECT_EQ(EngineConfig::fromEnv().transport,
                  TransportKind::Socket);
    }
}

TEST(ConfigEnv, TransportRejectsJunk)
{
    // Case-sensitive exact match only: a typo must fail loudly, not
    // silently keep the sub-devices in-process.
    for (const char *bad : {"Socket", "INPROC", "tcp", "1", "on",
                            " socket", "socket ", "sockets", ""}) {
        EnvVar v("PYPIM_TRANSPORT", bad);
        EXPECT_THROW(EngineConfig::fromEnv(), Error)
            << "PYPIM_TRANSPORT='" << bad << "'";
    }
}

TEST(ConfigEnv, TransportDefaultsToInproc)
{
    ::unsetenv("PYPIM_TRANSPORT");
    EXPECT_EQ(EngineConfig::fromEnv().transport, TransportKind::Inproc);
}

TEST(ConfigEnv, FaultsForwardedVerbatim)
{
    // The spec is stored raw and validated at device construction
    // (sim/fault.hpp), so fromEnv itself accepts any string.
    EnvVar v("PYPIM_FAULTS", "seed=7:flip=25:stuck=2");
    EXPECT_EQ(EngineConfig::fromEnv().faults, "seed=7:flip=25:stuck=2");
}

TEST(ConfigEnv, VerifyStateParses)
{
    {
        EnvVar v("PYPIM_VERIFY_STATE", "on");
        EXPECT_TRUE(EngineConfig::fromEnv().verifyState);
    }
    {
        EnvVar v("PYPIM_VERIFY_STATE", "0");
        EXPECT_FALSE(EngineConfig::fromEnv().verifyState);
    }
    for (const char *bad : {"yes", "true", "ON", " on"}) {
        EnvVar v("PYPIM_VERIFY_STATE", bad);
        EXPECT_THROW(EngineConfig::fromEnv(), Error)
            << "PYPIM_VERIFY_STATE='" << bad << "'";
    }
}

TEST(ConfigEnv, FaultDefaultsWhenUnset)
{
    ::unsetenv("PYPIM_FAULTS");
    ::unsetenv("PYPIM_VERIFY_STATE");
    const EngineConfig c = EngineConfig::fromEnv();
    EXPECT_TRUE(c.faults.empty())
        << "no injection unless explicitly requested";
    EXPECT_FALSE(c.verifyState)
        << "verification is opt-in (O(resident data) per batch)";
}
