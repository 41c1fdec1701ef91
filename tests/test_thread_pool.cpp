/**
 * @file
 * Tests for the execution engine's persistent worker pool: full task
 * coverage, caller participation, reuse across generations, and
 * exception propagation.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "sim/thread_pool.hpp"

using namespace pypim;

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    for (uint32_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.size(), threads);
        std::vector<std::atomic<uint32_t>> hits(97);
        pool.parallelFor(97, [&](uint32_t i) { ++hits[i]; });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1u);
    }
}

TEST(ThreadPool, ZeroAndFewerTasksThanThreads)
{
    ThreadPool pool(8);
    pool.parallelFor(0, [&](uint32_t) { FAIL(); });
    std::atomic<uint32_t> count{0};
    pool.parallelFor(3, [&](uint32_t) { ++count; });
    EXPECT_EQ(count.load(), 3u);
}

TEST(ThreadPool, ReusableAcrossManyGenerations)
{
    ThreadPool pool(4);
    std::atomic<uint64_t> sum{0};
    for (int round = 0; round < 200; ++round)
        pool.parallelFor(16, [&](uint32_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 200ull * (15 * 16 / 2));
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(4);
    std::atomic<uint32_t> ran{0};
    EXPECT_THROW(pool.parallelFor(32,
                                  [&](uint32_t i) {
                                      ++ran;
                                      if (i == 7)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 32u) << "remaining tasks must still run";
    // Pool must stay usable after an exception.
    std::atomic<uint32_t> ok{0};
    pool.parallelFor(8, [&](uint32_t) { ++ok; });
    EXPECT_EQ(ok.load(), 8u);
}

TEST(ThreadPool, ClampsZeroThreadsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    uint32_t hits = 0;
    pool.parallelFor(5, [&](uint32_t) { ++hits; });
    EXPECT_EQ(hits, 5u);
}
