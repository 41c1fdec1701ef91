/**
 * @file
 * Host I/O for tensors: element get/set and bulk vector transfer via
 * read/write instructions (the standard memory interface retained by
 * the PIM architecture, paper §III-C).
 *
 * Host readback is a synchronisation point: every read funnels
 * through the driver into OperationSink::performRead, which observes
 * every submitted batch (and surfaces any error a socket worker is
 * holding). Writes stream through submitBatch like any other
 * instruction.
 *
 * Vector transfers take the bulk block-transfer path
 * (Driver::readBulk/writeBulk over the crossbars' tile-transpose
 * gather/scatter kernels, sim/bulk_io.hpp): ONE drain point per
 * transfer instead of one per element, with values and architectural
 * Stats bit-identical to the element loop kept below as the fallback
 * oracle (Driver::setBulkIoEnabled(false), or a sink without bulk
 * support).
 */
#include "pim/tensor.hpp"

#include <bit>

#include "common/error.hpp"

namespace pypim
{

namespace
{

uint32_t
readBits(const Tensor &t, uint64_t i)
{
    const auto [warp, row] = t.position(i);
    ReadInstr rd;
    rd.reg = static_cast<uint8_t>(t.reg());
    rd.warp = warp;
    rd.row = row;
    return t.device().driver().execute(rd);
}

void
writeBits(Tensor &t, uint64_t i, uint32_t bits)
{
    const auto [warp, row] = t.position(i);
    WriteInstr w;
    w.reg = static_cast<uint8_t>(t.reg());
    w.value = bits;
    w.warps = Range::single(warp);
    w.rows = Range::single(row);
    t.device().driver().execute(w);
}

/**
 * Whole-view readback into out[0..size): bulk path first, element
 * loop when the driver declines (knob off, masks unknown, or a sink
 * without bulk support).
 */
void
readVector(const Tensor &t, uint32_t *out)
{
    if (t.size() == 0)
        return;
    Driver &drv = t.device().driver();
    if (drv.readBulk(static_cast<uint8_t>(t.reg()),
                     t.allocation().warpStart, t.viewStart(),
                     t.viewStep(), t.size(), out))
        return;
    for (uint64_t i = 0; i < t.size(); ++i)
        out[i] = readBits(t, i);
}

/** Whole-view upload from values[0..size) (never falls back: the
 *  driver emits the canonical run stream itself when bulk is off). */
void
writeVector(Tensor &t, const uint32_t *values)
{
    if (t.size() == 0)
        return;
    t.device().driver().writeBulk(static_cast<uint8_t>(t.reg()),
                                  t.allocation().warpStart,
                                  t.viewStart(), t.viewStep(),
                                  t.size(), values);
}

} // namespace

float
Tensor::getF(uint64_t i) const
{
    fatalIf(!valid(), "getF: invalid tensor");
    fatalIf(dtype() != DType::Float32, "getF: tensor is not float32");
    return std::bit_cast<float>(readBits(*this, i));
}

int32_t
Tensor::getI(uint64_t i) const
{
    fatalIf(!valid(), "getI: invalid tensor");
    fatalIf(dtype() != DType::Int32, "getI: tensor is not int32");
    return static_cast<int32_t>(readBits(*this, i));
}

void
Tensor::set(uint64_t i, float value)
{
    fatalIf(!valid(), "set: invalid tensor");
    fatalIf(dtype() != DType::Float32, "set: tensor is not float32");
    writeBits(*this, i, std::bit_cast<uint32_t>(value));
}

void
Tensor::set(uint64_t i, int32_t value)
{
    fatalIf(!valid(), "set: invalid tensor");
    fatalIf(dtype() != DType::Int32, "set: tensor is not int32");
    writeBits(*this, i, static_cast<uint32_t>(value));
}

std::vector<float>
Tensor::toFloatVector() const
{
    fatalIf(!valid(), "toFloatVector: invalid tensor");
    fatalIf(dtype() != DType::Float32,
            "toFloatVector: tensor is not float32");
    std::vector<uint32_t> bits(len_);
    readVector(*this, bits.data());
    std::vector<float> out(len_);
    for (uint64_t i = 0; i < len_; ++i)
        out[i] = std::bit_cast<float>(bits[i]);
    return out;
}

std::vector<int32_t>
Tensor::toIntVector() const
{
    fatalIf(!valid(), "toIntVector: invalid tensor");
    fatalIf(dtype() != DType::Int32, "toIntVector: tensor is not int32");
    // An int32_t may be accessed through its unsigned type: the
    // transfer fills the result's own storage, with no staging copy.
    std::vector<int32_t> out(len_);
    readVector(*this, reinterpret_cast<uint32_t *>(out.data()));
    return out;
}

void
Tensor::setVector(const std::vector<float> &v)
{
    fatalIf(!valid(), "setVector: invalid tensor");
    fatalIf(dtype() != DType::Float32,
            "setVector: tensor is not float32");
    fatalIf(v.size() != len_, "setVector: length mismatch");
    std::vector<uint32_t> bits(len_);
    for (uint64_t i = 0; i < len_; ++i)
        bits[i] = std::bit_cast<uint32_t>(v[i]);
    writeVector(*this, bits.data());
}

void
Tensor::setVector(const std::vector<int32_t> &v)
{
    fatalIf(!valid(), "setVector: invalid tensor");
    fatalIf(dtype() != DType::Int32, "setVector: tensor is not int32");
    fatalIf(v.size() != len_, "setVector: length mismatch");
    writeVector(*this, reinterpret_cast<const uint32_t *>(v.data()));
}

} // namespace pypim
