/**
 * @file
 * The PyPIM tensor API (paper §V-A) — a C++ stand-in for the paper's
 * Python development library with the same semantics:
 *
 *  - factory functions (zeros/full/fromVector/iota),
 *  - elementwise operator overloading lowered to R-type instructions
 *    executed in parallel across all threads holding the tensor,
 *  - slicing views (x.every(2) == x[::2]) that lower to row masks and
 *    automatic move operations when operands are not aligned,
 *  - logarithmic-depth reductions (sum/prod/min/max),
 *  - bitonic sorting,
 *  - host I/O through read/write instructions.
 *
 * Tensors are reference handles (like numpy arrays): copies share
 * storage; slicing shares storage. Storage is freed when the last
 * handle dies. Elementwise results are fresh tensors allocated
 * thread-aligned with their left operand via the allocator's
 * reference hint.
 */
#ifndef PYPIM_PIM_TENSOR_HPP
#define PYPIM_PIM_TENSOR_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "isa/instruction.hpp"
#include "pim/device.hpp"

namespace pypim
{

/** Reference-counted tensor storage; frees its allocation on death. */
struct TensorStorage
{
    TensorStorage(Device &d, const Allocation &a, DType t)
        : dev(&d), alloc(a), dtype(t) {}
    ~TensorStorage() { dev->allocator().free(alloc); }
    TensorStorage(const TensorStorage &) = delete;
    TensorStorage &operator=(const TensorStorage &) = delete;

    Device *dev;
    Allocation alloc;
    DType dtype;
};

/**
 * A 1-D PIM tensor (possibly a strided view of shared storage).
 * Element i lives at storage row viewStart + i*viewStep; storage row s
 * maps to thread (warpStart + s/rows, s%rows).
 */
class Tensor
{
  public:
    Tensor() = default;

    // --- factories --------------------------------------------------

    static Tensor zeros(uint64_t n, DType dtype = DType::Float32,
                        Device *dev = nullptr);
    static Tensor ones(uint64_t n, DType dtype = DType::Float32,
                       Device *dev = nullptr);
    static Tensor full(uint64_t n, float value, Device *dev = nullptr);
    static Tensor full(uint64_t n, int32_t value, Device *dev = nullptr);
    static Tensor fromVector(const std::vector<float> &v,
                             Device *dev = nullptr);
    static Tensor fromVector(const std::vector<int32_t> &v,
                             Device *dev = nullptr);
    /** Int32 tensor holding 0..n-1 (built from masked constant
     *  writes: rows + warps instructions, not n). */
    static Tensor iota(uint64_t n, Device *dev = nullptr);
    /** Constant tensor thread-aligned with @p like. */
    static Tensor fullLike(const Tensor &like, float value);
    static Tensor fullLike(const Tensor &like, int32_t value);

    // --- metadata ---------------------------------------------------

    bool valid() const { return static_cast<bool>(st_); }
    uint64_t size() const { return len_; }
    DType dtype() const;
    Device &device() const;
    /** True iff this handle is a strided/offset view of its storage. */
    bool isView() const;

    // --- views (paper §V-A "Views and Data Movement") -----------------

    /** Python-style x[start:stop:step] with exclusive stop, step>=1. */
    Tensor slice(uint64_t start, uint64_t stop, uint64_t step = 1) const;
    /** Python-style x[offset::step]. */
    Tensor every(uint64_t step, uint64_t offset = 0) const;

    // --- host I/O ---------------------------------------------------

    float getF(uint64_t i) const;
    int32_t getI(uint64_t i) const;
    void set(uint64_t i, float value);
    void set(uint64_t i, int32_t value);
    std::vector<float> toFloatVector() const;
    std::vector<int32_t> toIntVector() const;
    /** Overwrite all elements from @p v (v.size() == size()), in one
     *  bulk transfer (sim/bulk_io.hpp) — one drain point instead of
     *  one per element; equal-value runs coalesce into masked Range
     *  writes even on the element-wise fallback path. */
    void setVector(const std::vector<float> &v);
    void setVector(const std::vector<int32_t> &v);

    // --- reductions (logarithmic depth, paper §V-A) --------------------

    /** Sum of all elements (T must match the dtype). */
    template <typename T = float> T sum() const;
    /** Product of all elements. */
    template <typename T = float> T prod() const;
    /** Minimum / maximum element. */
    template <typename T = float> T min() const;
    template <typename T = float> T max() const;

    // --- sorting (bitonic network; power-of-two length) ----------------

    /** Sort ascending in place (views are sorted through). */
    void sort();
    /** Sorted copy. */
    Tensor sorted() const;

    // --- data movement ------------------------------------------------

    /** Contiguous (canonical) copy of this view. */
    Tensor clone() const;
    /** Copy of this view's values placed at @p pattern's threads. */
    Tensor materializeLike(const Tensor &pattern) const;
    /** Overwrite this view's elements with @p src's (same length). */
    void assignFrom(const Tensor &src);

    // --- advanced / internal (used by the lowering engine) -------------

    const Allocation &allocation() const;
    uint32_t reg() const;
    uint64_t viewStart() const { return viewStart_; }
    uint64_t viewStep() const { return viewStep_; }
    /** Storage row of element i. */
    uint64_t
    storageRow(uint64_t i) const
    {
        return viewStart_ + i * viewStep_;
    }
    /** Absolute (warp, row) of element i. */
    std::pair<uint32_t, uint32_t> position(uint64_t i) const;
    /** Absolute storage row (across the whole memory) of element i. */
    uint64_t absoluteRow(uint64_t i) const;
    const std::shared_ptr<TensorStorage> &storage() const { return st_; }

    static Tensor wrap(std::shared_ptr<TensorStorage> st,
                       uint64_t start, uint64_t step, uint64_t len);

    std::string toString(uint64_t maxElems = 16) const;

  private:
    static Device &resolve(Device *dev);
    static Tensor allocate(uint64_t n, DType dtype, Device &dev,
                           const Allocation *hint);

    std::shared_ptr<TensorStorage> st_;
    uint64_t viewStart_ = 0;
    uint64_t viewStep_ = 1;
    uint64_t len_ = 0;
};

// --- elementwise operations (paper Fig. 2 / Fig. 12 style) -------------

Tensor operator+(const Tensor &a, const Tensor &b);
Tensor operator-(const Tensor &a, const Tensor &b);
Tensor operator*(const Tensor &a, const Tensor &b);
Tensor operator/(const Tensor &a, const Tensor &b);
Tensor operator%(const Tensor &a, const Tensor &b);
Tensor operator-(const Tensor &a);  //!< negation

Tensor operator<(const Tensor &a, const Tensor &b);
Tensor operator<=(const Tensor &a, const Tensor &b);
Tensor operator>(const Tensor &a, const Tensor &b);
Tensor operator>=(const Tensor &a, const Tensor &b);
Tensor operator==(const Tensor &a, const Tensor &b);
Tensor operator!=(const Tensor &a, const Tensor &b);

Tensor operator&(const Tensor &a, const Tensor &b);
Tensor operator|(const Tensor &a, const Tensor &b);
Tensor operator^(const Tensor &a, const Tensor &b);
Tensor operator~(const Tensor &a);

// Scalar broadcasts (the scalar type must match the dtype).
Tensor operator+(const Tensor &a, float s);
Tensor operator+(float s, const Tensor &a);
Tensor operator+(const Tensor &a, int32_t s);
Tensor operator-(const Tensor &a, float s);
Tensor operator-(float s, const Tensor &a);
Tensor operator-(const Tensor &a, int32_t s);
Tensor operator*(const Tensor &a, float s);
Tensor operator*(float s, const Tensor &a);
Tensor operator*(const Tensor &a, int32_t s);
Tensor operator/(const Tensor &a, float s);
Tensor operator/(float s, const Tensor &a);
Tensor operator<(const Tensor &a, float s);
Tensor operator>(const Tensor &a, float s);
Tensor operator<=(const Tensor &a, float s);
Tensor operator>=(const Tensor &a, float s);
Tensor operator==(const Tensor &a, float s);
Tensor operator==(const Tensor &a, int32_t s);

/** rd = cond ? a : b, per element (cond is an Int32 0/1 tensor). */
Tensor where(const Tensor &cond, const Tensor &a, const Tensor &b);
Tensor abs(const Tensor &a);
Tensor sign(const Tensor &a);
/** 1 where the element is (+-)0, else 0 (Table II "Zero"). */
Tensor isZero(const Tensor &a);
Tensor minimum(const Tensor &a, const Tensor &b);
Tensor maximum(const Tensor &a, const Tensor &b);

} // namespace pypim

#endif // PYPIM_PIM_TENSOR_HPP
