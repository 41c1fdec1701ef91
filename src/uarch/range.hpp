/**
 * @file
 * Range-based mask pattern {start, start+step, ..., stop} (paper §III-B).
 *
 * Both the crossbar mask and the row mask use this pattern. The stop
 * bound is INCLUSIVE, exactly as defined in the paper ("where they must
 * satisfy that step divides stop - start"). The tensor library converts
 * Python/NumPy-style exclusive slices into this form at the boundary.
 */
#ifndef PYPIM_UARCH_RANGE_HPP
#define PYPIM_UARCH_RANGE_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace pypim
{

/** Inclusive arithmetic-progression mask {start, start+step, ..., stop}. */
struct Range
{
    uint32_t start = 0;
    uint32_t stop = 0;   //!< inclusive
    uint32_t step = 1;

    Range() = default;
    Range(uint32_t start_, uint32_t stop_, uint32_t step_ = 1)
        : start(start_), stop(stop_), step(step_) {}

    /** Mask selecting the single element @p i. */
    static Range single(uint32_t i) { return Range(i, i, 1); }

    /** Mask selecting [0, n) contiguously; @p n must be >= 1. */
    static Range all(uint32_t n) { return Range(0, n - 1, 1); }

    /** Number of selected elements. */
    uint32_t count() const { return (stop - start) / step + 1; }

    /** True iff @p i is selected by this mask. */
    bool
    contains(uint32_t i) const
    {
        return i >= start && i <= stop && (i - start) % step == 0;
    }

    /** i-th selected element (0-based). */
    uint32_t at(uint32_t i) const { return start + i * step; }

    /**
     * True iff every element of @p o is also selected by this mask
     * (exact for well-formed ranges: both are arithmetic
     * progressions, so it suffices that o's endpoints land on this
     * progression and o's step is a multiple of this step).
     */
    bool
    containsAll(const Range &o) const
    {
        if (o.start == o.stop)
            return contains(o.start);
        return o.start >= start && o.stop <= stop &&
               (o.start - start) % step == 0 && o.step % step == 0;
    }

    bool operator==(const Range &o) const = default;

    /** The predicate validate() enforces, without throwing: for
     *  scans and decoders that reject or skip instead. */
    bool
    valid(uint32_t limit) const
    {
        return step != 0 && start <= stop && stop < limit &&
               (stop - start) % step == 0;
    }

    /**
     * Throw pypim::Error unless the range is well-formed and within
     * [0, limit): start <= stop < limit, step >= 1, step | (stop-start).
     */
    void validate(uint32_t limit, const char *what) const;

    /**
     * Expand into a bit mask of ceil(limit/64) words; bit i set iff
     * element i is selected. Used to realize the row mask (paper
     * §III-B: "the row mask is expanded into a binary vector").
     */
    std::vector<uint64_t> expand(uint32_t limit) const;

    /**
     * Expand into @p words, reusing its storage (resized to
     * ceil(limit/64) and zeroed first). The allocation-free variant of
     * expand() for the simulator's per-RowMask-op hot path.
     */
    void expandInto(uint32_t limit, std::vector<uint64_t> &words) const;

    /** Invoke @p fn(i) for every selected element in ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (uint64_t i = start; i <= stop; i += step)
            fn(static_cast<uint32_t>(i));
    }

    std::string toString() const;
};

} // namespace pypim

#endif // PYPIM_UARCH_RANGE_HPP
