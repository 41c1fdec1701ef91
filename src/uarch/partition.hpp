/**
 * @file
 * Half-gates expansion of horizontal logic micro-operations
 * (paper §III-D2/D3, Table I, Fig. 8).
 *
 * A horizontal logic op names the InA/InB/Out columns of its leftmost
 * gate plus a periodic repetition pattern (pEnd, pStep). Expansion
 * reconstructs, per partition, the 3-bit half-gate opcode:
 *
 *      bit 2: apply the InA input voltage at intra index iA
 *      bit 1: apply the InB input voltage at intra index iB
 *      bit 0: apply the Out output voltage at intra index iOut
 *
 * (Table I indices: 000 = "-", 001 = "? -> Out", ..., 111 =
 * "(InA, InB) -> Out").
 *
 * Transistor selects are DEDUCED from the opcodes (third restriction):
 * for a left-to-right gate (pA <= pOut), the transistor between
 * partitions t and t+1 is non-conducting iff partition t has an Out
 * half or partition t+1 has an InA half; mirrored for pA > pOut.
 *
 * The expansion then derives the dynamic row sections (maximal runs of
 * conducting transistors) and the effective operand columns of each,
 * validating the restricted partition model as a real chip's periphery
 * would behave: malformed combinations (two output halves in one
 * section, an input half with no output half, the inner input outside
 * the gate span, ...) raise pypim::InternalError, because only a buggy
 * driver can produce them.
 */
#ifndef PYPIM_UARCH_PARTITION_HPP
#define PYPIM_UARCH_PARTITION_HPP

#include <array>
#include <cstdint>

#include "common/config.hpp"
#include "uarch/microop.hpp"

namespace pypim
{

/** Maximum partitions supported by the fixed-size expansion buffers. */
constexpr uint32_t maxPartitions = 64;

/** Half-gate opcode bits (Table I). */
namespace halfgate
{
    constexpr uint8_t inA = 0b100;
    constexpr uint8_t inB = 0b010;
    constexpr uint8_t out = 0b001;
} // namespace halfgate

/** One dynamic section with its effective gate operands. */
struct Section
{
    uint32_t begin = 0;   //!< first partition (inclusive)
    uint32_t end = 0;     //!< last partition (exclusive)
    int32_t outCol = -1;  //!< output column, or -1 if idle section
    std::array<int32_t, 2> inCol{-1, -1};
    uint32_t numIn = 0;

    /** True iff any voltage is applied inside this section. */
    bool active() const { return outCol >= 0 || numIn > 0; }
};

/** Result of expanding one horizontal logic op. */
struct HalfGates
{
    Gate gate = Gate::Nor;
    uint32_t numPartitions = 0;
    /** Per-partition opcode (Table I bits). */
    std::array<uint8_t, maxPartitions> opcodes{};
    /** conducting[t] == true iff the transistor between t and t+1
     *  conducts. */
    std::array<bool, maxPartitions> conducting{};
    std::array<Section, maxPartitions> sections{};
    uint32_t numSections = 0;
    /** Number of concurrent gates encoded by the op. */
    uint32_t numGates = 0;
};

/**
 * Expand and validate a LogicH micro-op against @p geo in
 * O(gates + partitions), allocation-free unless it throws.
 * Panics (InternalError) on any violation of the restricted
 * partition model.
 */
HalfGates expandLogicH(const MicroOp &op, const Geometry &geo);

} // namespace pypim

#endif // PYPIM_UARCH_PARTITION_HPP
