/**
 * @file
 * Shared fixtures and helpers for the PyPIM test suite.
 */
#ifndef PYPIM_TESTS_PIM_TEST_UTIL_HPP
#define PYPIM_TESTS_PIM_TEST_UTIL_HPP

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "driver/bitvec.hpp"
#include "driver/driver.hpp"
#include "driver/gatebuilder.hpp"
#include "sim/crossbar.hpp"
#include "sim/simulator.hpp"

namespace pypim::test
{

/**
 * Runs every compiled replay in its scope, process-wide, on one
 * executor build (Crossbar::replayBuilds), then restores the one that
 * ran before. Tests that take a build index skip a build the host
 * cannot run.
 */
class ScopedReplayBuild
{
  public:
    explicit ScopedReplayBuild(const Crossbar::ReplayBuild &b)
        : prev_(Crossbar::replayBuild())
    {
        Crossbar::useReplayBuild(b);
    }
    ~ScopedReplayBuild() { Crossbar::useReplayBuild(prev_); }
    ScopedReplayBuild(const ScopedReplayBuild &) = delete;
    ScopedReplayBuild &operator=(const ScopedReplayBuild &) = delete;

  private:
    const Crossbar::ReplayBuild &prev_;
};

/** Run the rest of a test on replay build @p i, or skip it if the
 *  host cannot run that build. */
#define PYPIM_USE_REPLAY_BUILD(i)                                       \
    const ::pypim::Crossbar::ReplayBuild &replayBuild_ =                \
        ::pypim::Crossbar::replayBuilds()[i];                           \
    if (!replayBuild_.supported())                                      \
        GTEST_SKIP() << "host cannot run " << replayBuild_.name;        \
    ::pypim::test::ScopedReplayBuild useReplayBuild_(replayBuild_)

/** Test-name form of replay build @p i ("x86-64-v4" -> "x86_64_v4"). */
inline std::string
replayBuildName(size_t i)
{
    std::string s = Crossbar::replayBuilds()[i].name;
    std::replace(s.begin(), s.end(), '-', '_');
    return s;
}

/** Simulator + builder + BV ops over the small test geometry. */
class PimFixture : public ::testing::Test
{
  protected:
    PimFixture() : PimFixture(testGeometry()) {}

    explicit PimFixture(const Geometry &g)
        : geo(g),
          sim(geo),
          builder(sim, geo),
          bv(builder)
    {
        builder.setMasks(Range::all(geo.numCrossbars),
                         Range::all(geo.rows));
        builder.flush();
    }

    /** Write @p value to register @p slot of (warp, row) directly. */
    void
    pokeWord(uint32_t warp, uint32_t row, uint32_t slot, uint32_t value)
    {
        sim.crossbar(warp).writeRow(slot, value, row);
    }

    /** Read register @p slot of (warp, row) directly. */
    uint32_t
    peekWord(uint32_t warp, uint32_t row, uint32_t slot)
    {
        return sim.crossbar(warp).read(slot, row);
    }

    /** Read the cells of a BV in one (warp, row) as an integer. */
    uint64_t
    peekBV(uint32_t warp, uint32_t row, const BV &x)
    {
        uint64_t v = 0;
        for (uint32_t j = 0; j < x.width(); ++j)
            if (sim.crossbar(warp).bit(row, x[j]))
                v |= 1ull << j;
        return v;
    }

    /** Write an integer into the cells of a BV in one (warp, row). */
    void
    pokeBV(uint32_t warp, uint32_t row, const BV &x, uint64_t v)
    {
        for (uint32_t j = 0; j < x.width(); ++j)
            sim.crossbar(warp).setBit(row, x[j], (v >> j) & 1);
    }

    /** Read a single cell in one (warp, row). */
    bool
    peekCell(uint32_t warp, uint32_t row, uint32_t cell)
    {
        return sim.crossbar(warp).bit(row, cell);
    }

    Geometry geo;
    Simulator sim;
    GateBuilder builder;
    BVOps bv;
    Rng rng;
};

/** Simulator + Driver fixture: executes macro-instructions end to end. */
class DriverFixture : public ::testing::Test
{
  protected:
    explicit DriverFixture(Driver::Mode mode = Driver::Mode::Serial,
                           const Geometry &g = testGeometry())
        : geo(g),
          sim(geo),
          drv(sim, geo, mode)
    {
    }

    /** Total threads = rows * warps (one test value per thread). */
    uint32_t threads() const { return geo.rows * geo.numCrossbars; }

    /** Load one value per thread into a register (direct poke). */
    void
    loadReg(uint32_t slot, const std::vector<uint32_t> &vals)
    {
        ASSERT_EQ(vals.size(), threads());
        for (uint32_t w = 0; w < geo.numCrossbars; ++w)
            for (uint32_t r = 0; r < geo.rows; ++r)
                sim.crossbar(w).writeRow(slot, vals[w * geo.rows + r], r);
    }

    /** Read one value per thread from a register. */
    std::vector<uint32_t>
    readReg(uint32_t slot)
    {
        std::vector<uint32_t> out(threads());
        for (uint32_t w = 0; w < geo.numCrossbars; ++w)
            for (uint32_t r = 0; r < geo.rows; ++r)
                out[w * geo.rows + r] = sim.crossbar(w).read(slot, r);
        return out;
    }

    /** Execute op on all threads of all warps. */
    void
    run(ROp op, DType dtype, uint8_t rd, uint8_t ra, uint8_t rb = 0,
        uint8_t rc = 0)
    {
        RTypeInstr in;
        in.op = op;
        in.dtype = dtype;
        in.rd = rd;
        in.ra = ra;
        in.rb = rb;
        in.rc = rc;
        in.warps = Range::all(geo.numCrossbars);
        in.rows = Range::all(geo.rows);
        drv.execute(in);
    }

    Geometry geo;
    Simulator sim;
    Driver drv;
    Rng rng;
};

inline uint32_t
floatBits(float f)
{
    return std::bit_cast<uint32_t>(f);
}

inline float
bitsFloat(uint32_t u)
{
    return std::bit_cast<float>(u);
}

/**
 * Compare an expected float against produced bits: NaNs compare as
 * "both NaN" (payloads differ between x86 and the canonical gate
 * implementation), everything else bit-exact (covers ±0, subnormals,
 * infinities).
 */
inline ::testing::AssertionResult
floatBitsMatch(float expected, uint32_t gotBits)
{
    if (std::isnan(expected)) {
        if (std::isnan(bitsFloat(gotBits)))
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "expected NaN, got " << bitsFloat(gotBits)
               << " (0x" << std::hex << gotBits << ")";
    }
    if (floatBits(expected) == gotBits)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "expected " << expected << " (0x" << std::hex
           << floatBits(expected) << "), got " << bitsFloat(gotBits)
           << " (0x" << gotBits << ")";
}

} // namespace pypim::test

#endif // PYPIM_TESTS_PIM_TEST_UTIL_HPP
