/**
 * @file
 * The PyPIM instruction-set architecture (paper §IV).
 *
 * Crossbars are abstracted as warps of threads: each thread is one
 * crossbar row holding R N-bit registers (the memory itself, paper
 * Fig. 10). The ISA has four instruction kinds:
 *
 *  - R-type: register arithmetic performed in parallel across all
 *    mask-selected threads of all mask-selected warps (Table II).
 *  - Move: warp-parallel thread-serial data movement, either between
 *    threads of the same warp or between aligned threads of warp
 *    pairs following the H-tree pattern of §III-F.
 *  - Read: one register of one thread of one warp -> N-bit response.
 *  - Write: one register value, repeated across a range of threads
 *    and warps (typically used for constants).
 *
 * Thread masks reuse the flexible {start, stop, step} range pattern of
 * the microarchitecture.
 */
#ifndef PYPIM_ISA_INSTRUCTION_HPP
#define PYPIM_ISA_INSTRUCTION_HPP

#include <cstdint>
#include <string>

#include "uarch/range.hpp"

namespace pypim
{

/** Element datatypes supported by the ISA (Table II columns). */
enum class DType : uint8_t
{
    Int32 = 0,
    Float32 = 1
};

const char *dtypeName(DType t);

/** R-type operations (Table II). */
enum class ROp : uint8_t
{
    // Arithmetic
    Add, Sub, Mul, Div, Mod, Neg,
    // Comparison (results are 0/1 in an Int32 register)
    Lt, Le, Gt, Ge, Eq, Ne,
    // Bitwise
    BitNot, BitAnd, BitOr, BitXor,
    // Miscellaneous
    Sign, Zero, Abs, Mux,
    // Extension: register-to-register copy (used by the library)
    Copy
};

const char *ropName(ROp op);

/** Number of register sources read by @p op (excluding rd). */
uint32_t ropArity(ROp op);

/** True iff (op, dtype) is a supported combination (Table II). */
bool ropSupported(ROp op, DType dtype);

/** True iff the result register holds Int32 regardless of dtype. */
bool ropProducesBool(ROp op);

/**
 * R-type macro-instruction: rd <- op(ra [, rb [, rc]]) applied to the
 * selected threads (rows) of the selected warps (crossbars). For Mux,
 * rc selects: rd <- rc ? ra : rb (rc holds 0/1).
 */
struct RTypeInstr
{
    ROp op = ROp::Add;
    DType dtype = DType::Int32;
    uint8_t rd = 0;
    uint8_t ra = 0;
    uint8_t rb = 0;
    uint8_t rc = 0;
    Range warps;
    Range rows;

    std::string toString() const;
};

/** Write one N-bit constant into register @p reg of selected threads. */
struct WriteInstr
{
    uint8_t reg = 0;
    uint32_t value = 0;
    Range warps;
    Range rows;
};

/** Read register @p reg of thread @p row in warp @p warp. */
struct ReadInstr
{
    uint8_t reg = 0;
    uint32_t warp = 0;
    uint32_t row = 0;
};

/**
 * Move instruction (paper §IV, Fig. 11(b)): copies srcReg of thread
 * srcRow to dstReg of thread dstRow. IntraWarp moves act inside each
 * selected warp in parallel (lowered to vertical logic); InterWarp
 * moves transfer between warp pairs over the H-tree: each source warp
 * in @p warps sends to warp + (dstStartWarp - warps.start).
 */
struct MoveInstr
{
    enum class Kind : uint8_t { IntraWarp, InterWarp };

    Kind kind = Kind::IntraWarp;
    uint8_t srcReg = 0;
    uint8_t dstReg = 0;
    uint32_t srcRow = 0;
    uint32_t dstRow = 0;
    Range warps;
    uint32_t dstStartWarp = 0;  //!< InterWarp only

    bool operator==(const MoveInstr &) const = default;
};

} // namespace pypim

#endif // PYPIM_ISA_INSTRUCTION_HPP
