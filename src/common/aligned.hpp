/**
 * @file
 * Over-aligned allocation for std containers.
 */
#ifndef PYPIM_COMMON_ALIGNED_HPP
#define PYPIM_COMMON_ALIGNED_HPP

#include <cstddef>
#include <limits>
#include <new>

namespace pypim
{

/**
 * Allocator whose every allocation starts on a @p kAlign-byte
 * boundary (aligned operator new), so a vector's data() is aligned no
 * matter where the heap would have put it.
 */
template <typename T, std::size_t kAlign>
struct AlignedAllocator
{
    static_assert(kAlign >= alignof(T) && (kAlign & (kAlign - 1)) == 0,
                  "alignment must be a power of two covering T");

    using value_type = T;

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, kAlign>;
    };

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, kAlign> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
            throw std::bad_array_new_length();
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        ::operator delete(p, n * sizeof(T), std::align_val_t{kAlign});
    }

    template <typename U>
    bool
    operator==(const AlignedAllocator<U, kAlign> &) const noexcept
    {
        return true;
    }
};

} // namespace pypim

#endif // PYPIM_COMMON_ALIGNED_HPP
