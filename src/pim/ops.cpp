/**
 * @file
 * Elementwise tensor operations: operator overloading (paper Fig. 2)
 * lowered through the alignment engine. Misaligned operands are
 * materialised onto the left operand's threads first (the paper's
 * fall-back copy, §V-A), then a single R-type instruction stream runs
 * on the shared threads.
 */
#include "pim/tensor.hpp"

#include "common/error.hpp"
#include "pim/lowering.hpp"

namespace pypim
{

namespace
{

/** Result dtype of an op over operands of dtype @p dt. */
DType
resultDtype(ROp op, DType dt)
{
    return ropProducesBool(op) ? DType::Int32 : dt;
}

Tensor
binaryOp(ROp op, const Tensor &a, const Tensor &b)
{
    fatalIf(!a.valid() || !b.valid(), "op: invalid tensor");
    if (a.size() != b.size())
        fatal("op: size mismatch (" + std::to_string(a.size()) + " vs " +
              std::to_string(b.size()) + ")");
    fatalIf(a.dtype() != b.dtype(), "op: dtype mismatch");
    fatalIf(&a.device() != &b.device(),
            "op: tensors on different devices");
    if (!ropSupported(op, a.dtype()))
        fatal(std::string("op ") + ropName(op) + " unsupported for " +
              dtypeName(a.dtype()));
    Tensor rhs = lowering::samePositions(a, b)
        ? b : b.materializeLike(a);
    Tensor out = lowering::allocLikePattern(a, resultDtype(op, a.dtype()));
    lowering::rtypeOp(op, a.dtype(), out, a, &rhs);
    return out;
}

Tensor
unaryOp(ROp op, const Tensor &a)
{
    fatalIf(!a.valid(), "op: invalid tensor");
    if (!ropSupported(op, a.dtype()))
        fatal(std::string("op ") + ropName(op) + " unsupported for " +
              dtypeName(a.dtype()));
    Tensor out = lowering::allocLikePattern(a, resultDtype(op, a.dtype()));
    lowering::rtypeOp(op, a.dtype(), out, a);
    return out;
}

Tensor
scalarRhs(const Tensor &a, float s)
{
    fatalIf(a.dtype() != DType::Float32,
            "op: float scalar with a non-float tensor");
    return Tensor::fullLike(a, s);
}

Tensor
scalarRhs(const Tensor &a, int32_t s)
{
    fatalIf(a.dtype() != DType::Int32,
            "op: int scalar with a non-int tensor");
    return Tensor::fullLike(a, s);
}

} // namespace

// --- arithmetic -----------------------------------------------------------

Tensor operator+(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::Add, a, b);
}

Tensor operator-(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::Sub, a, b);
}

Tensor operator*(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::Mul, a, b);
}

Tensor operator/(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::Div, a, b);
}

Tensor operator%(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::Mod, a, b);
}

Tensor operator-(const Tensor &a)
{
    return unaryOp(ROp::Neg, a);
}

// --- comparisons ------------------------------------------------------------

Tensor operator<(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::Lt, a, b);
}

Tensor operator<=(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::Le, a, b);
}

Tensor operator>(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::Gt, a, b);
}

Tensor operator>=(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::Ge, a, b);
}

Tensor operator==(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::Eq, a, b);
}

Tensor operator!=(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::Ne, a, b);
}

// --- bitwise ---------------------------------------------------------------

Tensor operator&(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::BitAnd, a, b);
}

Tensor operator|(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::BitOr, a, b);
}

Tensor operator^(const Tensor &a, const Tensor &b)
{
    return binaryOp(ROp::BitXor, a, b);
}

Tensor operator~(const Tensor &a)
{
    return unaryOp(ROp::BitNot, a);
}

// --- scalar broadcasts -------------------------------------------------------

Tensor operator+(const Tensor &a, float s)
{
    return binaryOp(ROp::Add, a, scalarRhs(a, s));
}

Tensor operator+(float s, const Tensor &a)
{
    return a + s;
}

Tensor operator+(const Tensor &a, int32_t s)
{
    return binaryOp(ROp::Add, a, scalarRhs(a, s));
}

Tensor operator-(const Tensor &a, float s)
{
    return binaryOp(ROp::Sub, a, scalarRhs(a, s));
}

Tensor operator-(float s, const Tensor &a)
{
    return binaryOp(ROp::Sub, scalarRhs(a, s), a);
}

Tensor operator-(const Tensor &a, int32_t s)
{
    return binaryOp(ROp::Sub, a, scalarRhs(a, s));
}

Tensor operator*(const Tensor &a, float s)
{
    return binaryOp(ROp::Mul, a, scalarRhs(a, s));
}

Tensor operator*(float s, const Tensor &a)
{
    return a * s;
}

Tensor operator*(const Tensor &a, int32_t s)
{
    return binaryOp(ROp::Mul, a, scalarRhs(a, s));
}

Tensor operator/(const Tensor &a, float s)
{
    return binaryOp(ROp::Div, a, scalarRhs(a, s));
}

Tensor operator/(float s, const Tensor &a)
{
    return binaryOp(ROp::Div, scalarRhs(a, s), a);
}

Tensor operator<(const Tensor &a, float s)
{
    return binaryOp(ROp::Lt, a, scalarRhs(a, s));
}

Tensor operator>(const Tensor &a, float s)
{
    return binaryOp(ROp::Gt, a, scalarRhs(a, s));
}

Tensor operator<=(const Tensor &a, float s)
{
    return binaryOp(ROp::Le, a, scalarRhs(a, s));
}

Tensor operator>=(const Tensor &a, float s)
{
    return binaryOp(ROp::Ge, a, scalarRhs(a, s));
}

Tensor operator==(const Tensor &a, float s)
{
    return binaryOp(ROp::Eq, a, scalarRhs(a, s));
}

Tensor operator==(const Tensor &a, int32_t s)
{
    return binaryOp(ROp::Eq, a, scalarRhs(a, s));
}

// --- miscellaneous ------------------------------------------------------------

Tensor
where(const Tensor &cond, const Tensor &a, const Tensor &b)
{
    fatalIf(!cond.valid() || !a.valid() || !b.valid(),
            "where: invalid tensor");
    fatalIf(cond.dtype() != DType::Int32,
            "where: condition must be an Int32 0/1 tensor");
    fatalIf(a.dtype() != b.dtype(), "where: dtype mismatch");
    fatalIf(cond.size() != a.size() || a.size() != b.size(),
            "where: size mismatch");
    Tensor rb = lowering::samePositions(a, b) ? b : b.materializeLike(a);
    Tensor rc = lowering::samePositions(a, cond)
        ? cond : cond.materializeLike(a);
    Tensor out = lowering::allocLikePattern(a, a.dtype());
    lowering::rtypeOp(ROp::Mux, a.dtype(), out, a, &rb, &rc);
    return out;
}

Tensor
abs(const Tensor &a)
{
    return unaryOp(ROp::Abs, a);
}

Tensor
sign(const Tensor &a)
{
    return unaryOp(ROp::Sign, a);
}

Tensor
isZero(const Tensor &a)
{
    return unaryOp(ROp::Zero, a);
}

Tensor
minimum(const Tensor &a, const Tensor &b)
{
    return where(a < b, a, b);
}

Tensor
maximum(const Tensor &a, const Tensor &b)
{
    return where(a < b, b, a);
}

} // namespace pypim
