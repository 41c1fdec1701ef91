/**
 * @file
 * Compact, versioned wire format for device checkpoints.
 *
 * The ROADMAP's "serialize the paged blocks" item: a crossbar image
 * serializes PRESENT-BLOCKS-ONLY — per crossbar, the ascending
 * (column, block) records of every non-zero kBlockWords-word block,
 * word-aligned (the BitMagic `bmserial.h` shape: a block table plus
 * raw word payloads). The image is CANONICAL: an all-zero block is
 * never written, whether it is elided (paged) or materialised (dense),
 * so the same state produces byte-identical files from either storage
 * representation — the property the checkpoint bit-identity suite
 * asserts. Cost is O(live data), never O(geometry).
 *
 * File layout (all integers little-endian):
 *
 *   magic "PYPIMCK1" | u32 version | geometry (7 fields) |
 *   u8 storage | u32 deviceCount | u32 sectionCount |
 *   sections: [u32 tag | u64 payloadLen | u32 crc32 | payload]*
 *
 * Each section carries its own CRC32; loadCheckpoint fails LOUDLY
 * (pypim::Error) on a bad magic, unknown version, corrupt CRC,
 * truncated payload or trailing junk — a damaged checkpoint must
 * never silently restore garbage. Geometry is recorded so a restore
 * into a mismatched device is refused; storage mode and source device
 * count are informational only (the image is global-coordinate and
 * canonical, so any PYPIM_DEVICES count and either storage mode can
 * load it).
 *
 * The allocator and driver sections are OPAQUE BLOBS produced by
 * MemoryManager::exportState, Driver::exportStreamCache and Device
 * (driver Stats, the gate builder's known masks) with the
 * ByteWriter/ByteReader helpers below: the sim layer frames and
 * checksums them without depending on the host layers above it.
 */
#ifndef PYPIM_SIM_SERIALIZE_HPP
#define PYPIM_SIM_SERIALIZE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "uarch/range.hpp"

namespace pypim
{

/** Little-endian append-only byte buffer (serialization producer). */
class ByteWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }
    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    void
    bytes(const uint8_t *p, size_t n)
    {
        buf_.insert(buf_.end(), p, p + n);
    }

    const std::vector<uint8_t> &data() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/** Bounds-checked little-endian reader; overruns throw pypim::Error. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *p, size_t n) : p_(p), n_(n) {}
    explicit ByteReader(const std::vector<uint8_t> &v)
        : ByteReader(v.data(), v.size()) {}

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();
    void bytes(uint8_t *out, size_t n);

    size_t remaining() const { return n_ - pos_; }
    /** Throw unless the payload was consumed exactly. */
    void expectEnd(const char *what) const;

  private:
    void need(size_t n) const;

    const uint8_t *p_;
    size_t n_;
    size_t pos_ = 0;
};

/** CRC-32 (IEEE 802.3, reflected) of @p n bytes. */
uint32_t crc32(const uint8_t *p, size_t n);

/** Serialize / deserialize one full Stats counter block. */
void writeStats(ByteWriter &w, const Stats &s);
Stats readStats(ByteReader &r);

/** Serialize / deserialize an inclusive Range mask. */
void writeRange(ByteWriter &w, const Range &r);
Range readRange(ByteReader &r);

/** One non-zero block of a crossbar image: words of block @p block of
 *  column @p col (the tail block of a column may be short). */
struct BlockRecord
{
    uint32_t col = 0;
    uint32_t block = 0;
    std::vector<uint64_t> words;
};

/** Present-blocks-only image of one crossbar (global id @p xb).
 *  Records are ascending (col, block) and never all-zero. */
struct CrossbarImage
{
    uint32_t xb = 0;
    std::vector<BlockRecord> blocks;
};

/**
 * In-memory checkpoint of one logical device: the unit saveCheckpoint
 * streams out and the RecoverySink keeps as its rollback baseline.
 * Crossbar coordinates are GLOBAL, so the image is independent of the
 * sub-device count it was captured from.
 */
struct CheckpointImage
{
    Geometry geo;
    XbarStorage storage = XbarStorage::Paged;  //!< source (informational)
    uint32_t deviceCount = 1;                  //!< source (informational)
    Range maskXb;   //!< live crossbar mask at the drain point
    Range maskRow;  //!< live row mask at the drain point
    Stats archStats;
    /** Crossbars with at least one non-zero block, ascending by id. */
    std::vector<CrossbarImage> crossbars;
    /** Opaque MemoryManager::exportState blob (may be empty). */
    std::vector<uint8_t> allocState;
    /** Opaque Driver::exportStreamCache blob (may be empty). */
    std::vector<uint8_t> driverCache;
    /** Serialized driver-side Stats (may be empty). */
    std::vector<uint8_t> driverStats;
    /** Serialized known masks of the driver's gate builder, which
     *  decide the mask ops it emits next (may be empty). */
    std::vector<uint8_t> driverMasks;
};

/** Write @p img to @p path; returns bytes written. Throws on I/O. */
uint64_t saveCheckpoint(const CheckpointImage &img,
                        const std::string &path);

/** Parse @p path, failing loudly on any corruption (see file header). */
CheckpointImage loadCheckpoint(const std::string &path);

/** Encode @p img to bytes (saveCheckpoint without the file). */
std::vector<uint8_t> encodeCheckpoint(const CheckpointImage &img);
/** Decode bytes produced by encodeCheckpoint. */
CheckpointImage decodeCheckpoint(const std::vector<uint8_t> &bytes);

} // namespace pypim

#endif // PYPIM_SIM_SERIALIZE_HPP
