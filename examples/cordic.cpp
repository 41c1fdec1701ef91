/**
 * @file
 * CORDIC sine/cosine on PIM tensors (the paper's §VI "CORDIC
 * Sine/Cosine" benchmark): rotation-mode CORDIC expressed purely with
 * the tensor API — comparisons, scalar multiplies, adds/subs and
 * muxes — computing sin and cos of a whole vector of angles in
 * parallel inside the memory.
 *
 * Build: cmake --build build && ./build/examples/cordic
 */
#include <cmath>
#include <cstdio>

#include "pim/pypim.hpp"

using namespace pypim;

int
main()
{
    Device &dev = Device::defaultDevice();
    const uint64_t n = 4096;

    // Angles spread over [-pi/2, pi/2].
    std::vector<float> angles(n);
    for (uint64_t i = 0; i < n; ++i)
        angles[i] = -1.5707963f +
                    3.1415926f * static_cast<float>(i) /
                        static_cast<float>(n - 1);
    Tensor z = Tensor::fromVector(angles);

    const int iters = 24;
    double kinv = 1.0;
    for (int k = 0; k < iters; ++k)
        kinv *= std::sqrt(1.0 + std::ldexp(1.0, -2 * k));

    Profiler prof(dev);
    Tensor x = Tensor::full(n, static_cast<float>(1.0 / kinv));
    Tensor y = Tensor::zeros(n, DType::Float32);
    for (int k = 0; k < iters; ++k) {
        const float ang =
            static_cast<float>(std::atan(std::ldexp(1.0, -k)));
        const float p2 = static_cast<float>(std::ldexp(1.0, -k));
        // Rotate towards zero residual angle; the per-element
        // direction comes from the sign of z (a 0/1 mask tensor).
        Tensor d = z >= 0.0f;
        Tensor xs = x * p2;
        Tensor ys = y * p2;
        Tensor xn = where(d, x - ys, x + ys);
        Tensor yn = where(d, y + xs, y - xs);
        Tensor zn = where(d, z - ang, z + ang);
        x = xn;
        y = yn;
        z = zn;
    }
    std::printf("CORDIC (%d iterations, %llu angles): %llu PIM cycles "
                "(%.2f ms at %.0f MHz)\n",
                iters, static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(prof.cycles()),
                prof.pimSeconds() * 1e3, dev.geometry().clockHz / 1e6);
    const Stats host = prof.driverDelta();
    std::printf("replay liveness: %llu INIT1 sections fused, %llu dead "
                "sections dropped, %llu sections replayed per "
                "crossbar\n",
                static_cast<unsigned long long>(host.sectionsFused),
                static_cast<unsigned long long>(host.sectionsDead),
                static_cast<unsigned long long>(host.sectionsReplayed));

    // Accuracy against the host libm.
    const auto sines = y.toFloatVector();
    const auto cosines = x.toFloatVector();
    double maxErr = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
        maxErr = std::max(
            maxErr, std::fabs(double(sines[i]) - std::sin(angles[i])));
        maxErr = std::max(
            maxErr,
            std::fabs(double(cosines[i]) - std::cos(angles[i])));
    }
    std::printf("max |error| vs libm over sin and cos: %.3g\n", maxErr);
    std::printf("samples: sin(%+.4f) = %+.6f, cos(%+.4f) = %+.6f\n",
                angles[n / 3], sines[n / 3], angles[n / 3],
                cosines[n / 3]);
    return maxErr < 1e-4 ? 0 : 1;
}
