/**
 * @file
 * Geometry sweep: the full stack (driver arithmetic, tensor ops,
 * views, reductions) must behave identically across memory shapes —
 * different row counts, crossbar counts, and register splits
 * (TEST_P / INSTANTIATE_TEST_SUITE_P over geometries). Catches hidden
 * assumptions about the default 64-row / 4-crossbar test shape.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pim/pypim.hpp"
#include "sim/checkpoint.hpp"
#include "sim/serialize.hpp"

using namespace pypim;

namespace
{

struct GeoCase
{
    const char *name;
    uint32_t rows;
    uint32_t crossbars;
    uint32_t userRegs;
};

class GeometrySweep : public ::testing::TestWithParam<GeoCase>
{
  protected:
    GeometrySweep()
        : geo([] {
              Geometry g = testGeometry();
              g.rows = GetParam().rows;
              g.numCrossbars = GetParam().crossbars;
              g.userRegs = GetParam().userRegs;
              return g;
          }()),
          dev(geo)
    {
    }

    Geometry geo;
    Device dev;
    Rng rng;
};

} // namespace

TEST_P(GeometrySweep, ArithmeticAcrossWarpBoundaries)
{
    const uint64_t n = geo.totalRows();
    std::vector<int32_t> va(n), vb(n);
    for (uint64_t i = 0; i < n; ++i) {
        va[i] = rng.int32In(-100000, 100000);
        vb[i] = rng.int32In(-100000, 100000);
    }
    Tensor a = Tensor::fromVector(va, &dev);
    Tensor b = Tensor::fromVector(vb, &dev);
    const auto sum = (a + b).toIntVector();
    const auto prd = (a * b).toIntVector();
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(sum[i], va[i] + vb[i]) << "i=" << i;
        // The PIM product wraps in two's complement: form the host
        // reference in 64 bits and narrow, never overflow int32_t.
        ASSERT_EQ(prd[i], static_cast<int32_t>(
                              static_cast<int64_t>(va[i]) * vb[i]))
            << "i=" << i;
    }
}

TEST_P(GeometrySweep, FloatAddStillBitExact)
{
    const uint64_t n = std::min<uint64_t>(geo.totalRows(), 512);
    std::vector<float> va = rng.floatVec(n, -1e6f, 1e6f);
    std::vector<float> vb = rng.floatVec(n, -1e-3f, 1e-3f);
    Tensor a = Tensor::fromVector(va, &dev);
    Tensor b = Tensor::fromVector(vb, &dev);
    const auto got = (a + b).toFloatVector();
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], va[i] + vb[i]) << "i=" << i;
}

TEST_P(GeometrySweep, StridedViewsAndReduction)
{
    const uint64_t n = geo.totalRows();
    std::vector<int32_t> v(n);
    std::iota(v.begin(), v.end(), -static_cast<int32_t>(n / 2));
    Tensor t = Tensor::fromVector(v, &dev);
    int64_t evens = 0, all = 0;
    for (uint64_t i = 0; i < n; ++i) {
        all += v[i];
        if (i % 2 == 0)
            evens += v[i];
    }
    EXPECT_EQ(t.sum<int32_t>(), static_cast<int32_t>(all));
    EXPECT_EQ(t.every(2).sum<int32_t>(), static_cast<int32_t>(evens));
    // Odd-stride views hit the per-warp segment path when the stride
    // does not divide the row count.
    Tensor s = t.every(3);
    int64_t third = 0;
    for (uint64_t i = 0; i < n; i += 3)
        third += v[i];
    EXPECT_EQ(s.sum<int32_t>(), static_cast<int32_t>(third));
}

TEST_P(GeometrySweep, SortFullMemory)
{
    const uint64_t n = geo.totalRows();  // power of two by geometry
    std::vector<int32_t> v(n);
    for (auto &x : v)
        x = rng.int32();
    Tensor t = Tensor::fromVector(v, &dev);
    if (geo.userRegs < 12) {
        // Bitonic sort holds ~11 live tensors per substage: with too
        // few ISA registers the allocator must fail cleanly, leaving
        // the input intact.
        EXPECT_THROW(t.sort(), Error);
        EXPECT_EQ(t.toIntVector(), v);
        return;
    }
    t.sort();
    std::sort(v.begin(), v.end());
    EXPECT_EQ(t.toIntVector(), v);
}

TEST_P(GeometrySweep, PagedStorageMatchesDenseFullStack)
{
    // The same program runs on a dense-storage and a paged-storage
    // device: readback AND the final bit-state of every crossbar must
    // be identical across every geometry shape (block-boundary row
    // counts, multi-crossbar spans, few-register splits).
    Device dense(geo, Driver::Mode::Parallel,
                 EngineConfig::fromEnv().withStorage(
                     XbarStorage::Dense));
    Device paged(geo, Driver::Mode::Parallel,
                 EngineConfig::fromEnv().withStorage(
                     XbarStorage::Paged));
    const uint64_t n = geo.totalRows();
    std::vector<int32_t> va(n), vb(n);
    for (uint64_t i = 0; i < n; ++i) {
        va[i] = rng.int32In(-100000, 100000);
        vb[i] = rng.int32In(-100000, 100000);
    }
    for (Device *dev : {&dense, &paged}) {
        Tensor a = Tensor::fromVector(va, dev);
        Tensor b = Tensor::fromVector(vb, dev);
        Tensor s = a + b;
        Tensor p = a * b;
        const auto sum = s.toIntVector();
        const auto prd = p.toIntVector();
        for (uint64_t i = 0; i < n; ++i) {
            ASSERT_EQ(sum[i], va[i] + vb[i]) << "i=" << i;
            ASSERT_EQ(prd[i],
                      static_cast<int32_t>(
                          static_cast<int64_t>(va[i]) * vb[i]))
                << "i=" << i;
        }
        dev->flush();
    }
    // Canonical checkpoint images are byte-identical from dense and
    // paged sources once the informational source-mode header field
    // is normalized — and they are the only state comparator that
    // also works when PYPIM_TRANSPORT=socket puts the crossbars in
    // worker processes.
    auto stateBytes = [](const SimulatorGroup &grp) {
        CheckpointImage img = buildGroupImage(grp);
        img.storage = XbarStorage::Paged;
        return encodeCheckpoint(img);
    };
    ASSERT_EQ(stateBytes(dense.group()), stateBytes(paged.group()))
        << "state diverged between storage modes";
    // Architectural statistics are storage-independent by definition.
    EXPECT_EQ(dense.stats(), paged.stats());
}

TEST_P(GeometrySweep, MovesAcrossTheHTree)
{
    if (geo.numCrossbars < 4)
        GTEST_SKIP();
    const uint64_t rows = geo.rows;
    std::vector<float> v = rng.floatVec(rows * 4, -10.f, 10.f);
    Tensor t = Tensor::fromVector(v, &dev);
    Tensor lo = t.slice(0, rows * 2);
    Tensor hi = t.slice(rows * 2, rows * 4);
    const auto got = (lo * hi).toFloatVector();
    for (uint64_t i = 0; i < rows * 2; ++i)
        ASSERT_EQ(got[i], v[i] * v[rows * 2 + i]) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometrySweep,
    ::testing::Values(GeoCase{"tiny", 64, 4, 14},
                      GeoCase{"tall", 256, 4, 14},
                      GeoCase{"wide", 64, 16, 14},
                      GeoCase{"fewRegs", 128, 4, 6},
                      GeoCase{"paperRows", 1024, 4, 14}),
    [](const auto &info) { return info.param.name; });
