/**
 * @file
 * The 64-bit micro-operation format (paper §III, Fig. 5).
 *
 * Micro-operations are the words broadcast by the host driver to the
 * on-chip controller, which merely buffers and forwards them to all
 * crossbars. Seven operation types exist across the four families:
 *
 *  - CrossbarMask / RowMask: select active crossbars / rows as a
 *    range pattern {start, stop, step} (stop inclusive).
 *  - Read / Write: N-bit strided access at an intra-partition index
 *    (Fig. 6); the target crossbar/rows come from the current masks.
 *  - LogicH: horizontal stateful logic encoded with the half-gates
 *    technique: full column addresses for InA/InB/Out of the leftmost
 *    gate plus the periodic repetition pattern (pEnd, pStep)
 *    (§III-D3: 2 + 3 log w + 2 log N = 42 bits for the default
 *    geometry).
 *  - LogicV: vertical (transposed) logic between two rows, applied at
 *    one intra-partition index of every partition (§III-E).
 *  - Move: distributed inter-crossbar transfer over the H-tree; the
 *    source set is the current crossbar mask and the destination start
 *    is stored directly to avoid signed distances (§III-F, fn. 2).
 *
 * The encoding leaves spare bits (the paper reports 19 unused bits)
 * so larger geometries still fit; encode() validates field widths.
 */
#ifndef PYPIM_UARCH_MICROOP_HPP
#define PYPIM_UARCH_MICROOP_HPP

#include <cstdint>
#include <string>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "uarch/range.hpp"

namespace pypim
{

/** Wire format of one micro-operation. */
using Word = uint64_t;

/** Micro-operation type (3-bit field). */
enum class OpType : uint8_t
{
    CrossbarMask = 0,
    RowMask = 1,
    Read = 2,
    Write = 3,
    LogicH = 4,
    LogicV = 5,
    Move = 6
};

/**
 * Stateful-logic gate set (paper §III-D2): INIT0/INIT1 are constant
 * gates (write-driver semantics), NOT and NOR switch the output from
 * its initialised 1 towards 0. Vertical ops support only
 * {INIT0, INIT1, NOT} (§III-E).
 */
enum class Gate : uint8_t
{
    Init0 = 0,
    Init1 = 1,
    Not = 2,
    Nor = 3
};

const char *gateName(Gate g);
const char *opTypeName(OpType t);

/** Bit-field layout constants for the 64-bit format. */
namespace fmt
{
    constexpr uint32_t typeLo = 61, typeW = 3;
    // Mask ops
    constexpr uint32_t startLo = 0, stopLo = 16, stepLo = 32, maskW = 16;
    // Read / Write
    constexpr uint32_t idxLo = 0, idxW = 6;
    constexpr uint32_t valLo = 6, valW = 32;
    // LogicH
    constexpr uint32_t gateLo = 0, gateW = 2;
    constexpr uint32_t inALo = 2, inBLo = 12, outLo = 22, colW = 10;
    constexpr uint32_t pEndLo = 32, pStepLo = 38, partW = 6;
    // LogicV
    constexpr uint32_t rowInLo = 2, rowOutLo = 18, rowW = 16;
    constexpr uint32_t vIdxLo = 34;
    // Move
    constexpr uint32_t dstStartLo = 0;
    constexpr uint32_t srcRowLo = 16, dstRowLo = 32;
    constexpr uint32_t srcIdxLo = 48, dstIdxLo = 54;
} // namespace fmt

/**
 * Decoded micro-operation. Only the fields relevant to @c type are
 * meaningful; factory functions zero the rest so that the default
 * equality comparison is exact for encode/decode round trips.
 */
struct MicroOp
{
    OpType type = OpType::CrossbarMask;
    Gate gate = Gate::Init0;
    Range range;                       //!< mask ops
    uint32_t index = 0;                //!< read/write/logicV slot
    uint32_t value = 0;                //!< write payload
    uint32_t inA = 0, inB = 0, out = 0; //!< logicH column addresses
    uint32_t pEnd = 0, pStep = 0;      //!< logicH repetition pattern
    uint32_t rowIn = 0, rowOut = 0;    //!< logicV rows
    uint32_t dstStart = 0;             //!< move destination start
    uint32_t srcRow = 0, dstRow = 0;   //!< move rows
    uint32_t srcIdx = 0, dstIdx = 0;   //!< move slots

    bool operator==(const MicroOp &o) const = default;

    // --- factories -----------------------------------------------------

    static MicroOp
    crossbarMask(Range r)
    {
        MicroOp op;
        op.type = OpType::CrossbarMask;
        op.range = r;
        return op;
    }

    static MicroOp
    rowMask(Range r)
    {
        MicroOp op;
        op.type = OpType::RowMask;
        op.range = r;
        return op;
    }

    static MicroOp
    read(uint32_t index)
    {
        MicroOp op;
        op.type = OpType::Read;
        op.index = index;
        return op;
    }

    static MicroOp
    write(uint32_t index, uint32_t value)
    {
        MicroOp op;
        op.type = OpType::Write;
        op.index = index;
        op.value = value;
        return op;
    }

    /**
     * Horizontal logic. @p inA/@p inB/@p out are full column addresses
     * of the leftmost gate. For Not, @p inB is ignored (canonicalised
     * to inA); for Init0/Init1 both inputs are canonicalised to 0.
     * @p pEnd is the partition holding the output of the last repeated
     * gate (== partition of @p out when not repeated); @p pStep is the
     * repetition stride (0 when not repeated).
     */
    static MicroOp
    logicH(Gate g, uint32_t inA, uint32_t inB, uint32_t out,
           uint32_t pEnd, uint32_t pStep)
    {
        MicroOp op;
        op.type = OpType::LogicH;
        op.gate = g;
        if (g == Gate::Init0 || g == Gate::Init1) {
            op.inA = 0;
            op.inB = 0;
        } else if (g == Gate::Not) {
            op.inA = inA;
            op.inB = inA;
        } else {
            op.inA = inA;
            op.inB = inB;
        }
        op.out = out;
        op.pEnd = pEnd;
        op.pStep = pStep;
        return op;
    }

    /** Vertical logic at intra-partition @p index of every partition. */
    static MicroOp
    logicV(Gate g, uint32_t rowIn, uint32_t rowOut, uint32_t index)
    {
        panicIf(g == Gate::Nor, "vertical logic supports only "
                "{INIT0, INIT1, NOT} (paper III-E)");
        MicroOp op;
        op.type = OpType::LogicV;
        op.gate = g;
        op.rowIn = (g == Gate::Init0 || g == Gate::Init1) ? 0 : rowIn;
        op.rowOut = rowOut;
        op.index = index;
        return op;
    }

    /** Inter-crossbar move (source set = current crossbar mask). */
    static MicroOp
    move(uint32_t dstStart, uint32_t srcRow, uint32_t dstRow,
         uint32_t srcIdx, uint32_t dstIdx)
    {
        MicroOp op;
        op.type = OpType::Move;
        op.dstStart = dstStart;
        op.srcRow = srcRow;
        op.dstRow = dstRow;
        op.srcIdx = srcIdx;
        op.dstIdx = dstIdx;
        return op;
    }

    // --- wire format ----------------------------------------------------

    /** Pack into the 64-bit wire format; panics if a field overflows. */
    Word encode() const;

    /** Unpack from the wire format. */
    static MicroOp decode(Word w);

    std::string toString() const;
};

/**
 * Fast inline encoders for the host driver's hot emission path.
 * Field-width checks are kept (they are branch-predictable and make
 * driver bugs fail loudly) but everything inlines into the caller.
 */
namespace enc
{

inline Word
typeBits(OpType t)
{
    return static_cast<Word>(t) << fmt::typeLo;
}

inline Word
maskOp(OpType t, const Range &r)
{
    using namespace fmt;
    panicIf(!fitsIn(r.start, maskW) || !fitsIn(r.stop, maskW) ||
            !fitsIn(r.step, maskW), "mask op field overflow");
    return typeBits(t) |
           (static_cast<Word>(r.start) << startLo) |
           (static_cast<Word>(r.stop) << stopLo) |
           (static_cast<Word>(r.step) << stepLo);
}

inline Word
crossbarMask(const Range &r)
{
    return maskOp(OpType::CrossbarMask, r);
}

inline Word
rowMask(const Range &r)
{
    return maskOp(OpType::RowMask, r);
}

inline Word
read(uint32_t index)
{
    panicIf(!fitsIn(index, fmt::idxW), "read index overflow");
    return typeBits(OpType::Read) | (static_cast<Word>(index));
}

inline Word
write(uint32_t index, uint32_t value)
{
    panicIf(!fitsIn(index, fmt::idxW), "write index overflow");
    return typeBits(OpType::Write) | static_cast<Word>(index) |
           (static_cast<Word>(value) << fmt::valLo);
}

inline Word
logicH(Gate g, uint32_t inA, uint32_t inB, uint32_t out,
       uint32_t pEnd, uint32_t pStep)
{
    using namespace fmt;
    panicIf(!fitsIn(inA, colW) || !fitsIn(inB, colW) ||
            !fitsIn(out, colW) || !fitsIn(pEnd, partW) ||
            !fitsIn(pStep, partW), "logicH field overflow");
    return typeBits(OpType::LogicH) |
           (static_cast<Word>(g) << gateLo) |
           (static_cast<Word>(inA) << inALo) |
           (static_cast<Word>(inB) << inBLo) |
           (static_cast<Word>(out) << outLo) |
           (static_cast<Word>(pEnd) << pEndLo) |
           (static_cast<Word>(pStep) << pStepLo);
}

inline Word
logicV(Gate g, uint32_t rowIn, uint32_t rowOut, uint32_t index)
{
    using namespace fmt;
    panicIf(!fitsIn(rowIn, rowW) || !fitsIn(rowOut, rowW) ||
            !fitsIn(index, idxW), "logicV field overflow");
    return typeBits(OpType::LogicV) |
           (static_cast<Word>(g) << gateLo) |
           (static_cast<Word>(rowIn) << rowInLo) |
           (static_cast<Word>(rowOut) << rowOutLo) |
           (static_cast<Word>(index) << vIdxLo);
}

inline Word
move(uint32_t dstStart, uint32_t srcRow, uint32_t dstRow,
     uint32_t srcIdx, uint32_t dstIdx)
{
    using namespace fmt;
    panicIf(!fitsIn(dstStart, maskW) || !fitsIn(srcRow, rowW) ||
            !fitsIn(dstRow, rowW) || !fitsIn(srcIdx, idxW) ||
            !fitsIn(dstIdx, idxW), "move field overflow");
    return typeBits(OpType::Move) |
           (static_cast<Word>(dstStart) << dstStartLo) |
           (static_cast<Word>(srcRow) << srcRowLo) |
           (static_cast<Word>(dstRow) << dstRowLo) |
           (static_cast<Word>(srcIdx) << srcIdxLo) |
           (static_cast<Word>(dstIdx) << dstIdxLo);
}

/** Op type of an encoded word (cheap peek without a full decode). */
inline OpType
peekType(Word w)
{
    return static_cast<OpType>(bitsGet(w, fmt::typeLo, fmt::typeW));
}

} // namespace enc

} // namespace pypim

#endif // PYPIM_UARCH_MICROOP_HPP
