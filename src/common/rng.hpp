/**
 * @file
 * Deterministic random data generation for tests and benchmarks.
 *
 * The paper evaluates correctness and performance on randomly-generated
 * tensors (artifact §C-4). A fixed-seed xoshiro-style generator keeps
 * test failures reproducible.
 */
#ifndef PYPIM_COMMON_RNG_HPP
#define PYPIM_COMMON_RNG_HPP

#include <cstdint>
#include <random>
#include <vector>

namespace pypim
{

/** Deterministic pseudo-random source for tests/benches. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) : gen_(seed) {}

    /** Uniform 32-bit word. */
    uint32_t
    word()
    {
        return static_cast<uint32_t>(gen_());
    }

    /** Uniform int32 over the full range. */
    int32_t
    int32()
    {
        return static_cast<int32_t>(word());
    }

    /** Uniform int32 in [lo, hi] inclusive. */
    int32_t
    int32In(int32_t lo, int32_t hi)
    {
        std::uniform_int_distribution<int64_t> d(lo, hi);
        return static_cast<int32_t>(d(gen_));
    }

    /** Random finite float32 drawn uniformly from [lo, hi]. */
    float
    floatIn(float lo, float hi)
    {
        std::uniform_real_distribution<float> d(lo, hi);
        return d(gen_);
    }

    /** Vector of finite floats in [lo, hi]. */
    std::vector<float>
    floatVec(size_t n, float lo, float hi)
    {
        std::vector<float> v(n);
        for (auto &x : v)
            x = floatIn(lo, hi);
        return v;
    }

    std::mt19937_64 &engine() { return gen_; }

  private:
    std::mt19937_64 gen_;
};

} // namespace pypim

#endif // PYPIM_COMMON_RNG_HPP
