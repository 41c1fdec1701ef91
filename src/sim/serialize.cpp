#include "sim/serialize.hpp"

#include <array>
#include <cstdio>
#include <memory>

#include "common/error.hpp"

namespace pypim
{

namespace
{

constexpr char kMagic[8] = {'P', 'Y', 'P', 'I', 'M', 'C', 'K', '1'};
// v2: the Stats block grew the shard-transport wire counters.
// v3: the driver's known-mask section.
constexpr uint32_t kVersion = 3;

// Section tags. New sections get new tags; unknown tags are an error
// (version bumps cover format evolution — a checkpoint is a precise
// artifact, not a forward-compatible container).
constexpr uint32_t kSecMask = 1;
constexpr uint32_t kSecStats = 2;
constexpr uint32_t kSecCrossbars = 3;
constexpr uint32_t kSecAlloc = 4;
constexpr uint32_t kSecDriverCache = 5;
constexpr uint32_t kSecDriverStats = 6;
constexpr uint32_t kSecDriverMasks = 7;

/**
 * Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
 * t[0] is the bytewise table, and t[k][i] advances t[k-1][i] by one
 * zero byte, so eight input bytes fold in with eight lookups.
 */
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

const CrcTables &
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (uint32_t i = 0; i < 256; ++i)
            for (size_t k = 1; k < t.size(); ++k)
                t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
        return t;
    }();
    return tables;
}

void
writeSection(ByteWriter &w, uint32_t tag,
             const std::vector<uint8_t> &payload)
{
    w.u32(tag);
    w.u64(payload.size());
    w.u32(crc32(payload.data(), payload.size()));
    w.bytes(payload.data(), payload.size());
}

} // namespace

// --- ByteReader ---------------------------------------------------------

void
ByteReader::need(size_t n) const
{
    if (pos_ + n > n_)
        fatal("checkpoint: truncated payload (need " + std::to_string(n) +
                  " bytes at offset " + std::to_string(pos_) + " of " +
                  std::to_string(n_) + ")");
}

uint8_t
ByteReader::u8()
{
    need(1);
    return p_[pos_++];
}

uint32_t
ByteReader::u32()
{
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p_[pos_++]) << (8 * i);
    return v;
}

uint64_t
ByteReader::u64()
{
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p_[pos_++]) << (8 * i);
    return v;
}

void
ByteReader::bytes(uint8_t *out, size_t n)
{
    need(n);
    std::copy(p_ + pos_, p_ + pos_ + n, out);
    pos_ += n;
}

void
ByteReader::expectEnd(const char *what) const
{
    if (pos_ != n_)
        fatal(std::string("checkpoint: trailing bytes in ") + what +
              " section");
}

uint32_t
crc32(const uint8_t *p, size_t n)
{
    const CrcTables &t = crcTables();
    uint32_t c = 0xFFFFFFFFu;
    for (; n >= 8; p += 8, n -= 8) {
        // Bytes are assembled little-endian by hand, so the result does
        // not depend on the host's byte order or on p's alignment.
        const uint32_t lo = (static_cast<uint32_t>(p[0]) |
                             static_cast<uint32_t>(p[1]) << 8 |
                             static_cast<uint32_t>(p[2]) << 16 |
                             static_cast<uint32_t>(p[3]) << 24) ^
                            c;
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; n; ++p, --n)
        c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// --- shared codecs ------------------------------------------------------

void
writeStats(ByteWriter &w, const Stats &s)
{
    for (uint64_t v : s.opCount)
        w.u64(v);
    for (uint64_t v : s.cycleCount)
        w.u64(v);
    w.u64(s.logicGates);
    w.u64(s.logicInits);
    w.u64(s.instructions);
    w.u64(s.traceCacheHits);
    w.u64(s.traceCacheMisses);
    w.u64(s.fusionWaw);
    w.u64(s.fusionInitChain);
    w.u64(s.fusionWindow);
    w.u64(s.fusionWriteStripe);
    w.u64(s.bulkReads);
    w.u64(s.bulkWrites);
    w.u64(s.ioWordsTransposed);
    w.u64(s.ioDrains);
    w.u64(s.faultsInjected);
    w.u64(s.faultsDetected);
    w.u64(s.recoveries);
    w.u64(s.checkpointBytes);
    w.u64(s.wireBytesTx);
    w.u64(s.wireBytesRx);
    w.u64(s.wireRoundTrips);
    w.u64(s.wireTraceHits);
}

Stats
readStats(ByteReader &r)
{
    Stats s;
    for (uint64_t &v : s.opCount)
        v = r.u64();
    for (uint64_t &v : s.cycleCount)
        v = r.u64();
    s.logicGates = r.u64();
    s.logicInits = r.u64();
    s.instructions = r.u64();
    s.traceCacheHits = r.u64();
    s.traceCacheMisses = r.u64();
    s.fusionWaw = r.u64();
    s.fusionInitChain = r.u64();
    s.fusionWindow = r.u64();
    s.fusionWriteStripe = r.u64();
    s.bulkReads = r.u64();
    s.bulkWrites = r.u64();
    s.ioWordsTransposed = r.u64();
    s.ioDrains = r.u64();
    s.faultsInjected = r.u64();
    s.faultsDetected = r.u64();
    s.recoveries = r.u64();
    s.checkpointBytes = r.u64();
    s.wireBytesTx = r.u64();
    s.wireBytesRx = r.u64();
    s.wireRoundTrips = r.u64();
    s.wireTraceHits = r.u64();
    return s;
}

void
writeRange(ByteWriter &w, const Range &r)
{
    w.u32(r.start);
    w.u32(r.stop);
    w.u32(r.step);
}

Range
readRange(ByteReader &r)
{
    Range out;
    out.start = r.u32();
    out.stop = r.u32();
    out.step = r.u32();
    return out;
}

// --- checkpoint encode / decode -----------------------------------------

std::vector<uint8_t>
encodeCheckpoint(const CheckpointImage &img)
{
    ByteWriter w;
    w.bytes(reinterpret_cast<const uint8_t *>(kMagic), sizeof(kMagic));
    w.u32(kVersion);
    w.u32(img.geo.rows);
    w.u32(img.geo.cols);
    w.u32(img.geo.partitions);
    w.u32(img.geo.wordBits);
    w.u32(img.geo.numCrossbars);
    w.u32(img.geo.userRegs);
    w.u64(img.geo.clockHz);
    w.u8(static_cast<uint8_t>(img.storage));
    w.u32(img.deviceCount);

    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> sections;
    {
        ByteWriter p;
        writeRange(p, img.maskXb);
        writeRange(p, img.maskRow);
        sections.emplace_back(kSecMask, p.take());
    }
    {
        ByteWriter p;
        writeStats(p, img.archStats);
        sections.emplace_back(kSecStats, p.take());
    }
    {
        ByteWriter p;
        p.u32(static_cast<uint32_t>(img.crossbars.size()));
        for (const CrossbarImage &ci : img.crossbars) {
            p.u32(ci.xb);
            p.u32(static_cast<uint32_t>(ci.blocks.size()));
            for (const BlockRecord &b : ci.blocks) {
                p.u32(b.col);
                p.u32(b.block);
                p.u32(static_cast<uint32_t>(b.words.size()));
                for (uint64_t word : b.words)
                    p.u64(word);
            }
        }
        sections.emplace_back(kSecCrossbars, p.take());
    }
    if (!img.allocState.empty())
        sections.emplace_back(kSecAlloc, img.allocState);
    if (!img.driverCache.empty())
        sections.emplace_back(kSecDriverCache, img.driverCache);
    if (!img.driverStats.empty())
        sections.emplace_back(kSecDriverStats, img.driverStats);
    if (!img.driverMasks.empty())
        sections.emplace_back(kSecDriverMasks, img.driverMasks);

    w.u32(static_cast<uint32_t>(sections.size()));
    for (const auto &[tag, payload] : sections)
        writeSection(w, tag, payload);
    return w.take();
}

CheckpointImage
decodeCheckpoint(const std::vector<uint8_t> &bytes)
{
    ByteReader r(bytes);
    char magic[8];
    r.bytes(reinterpret_cast<uint8_t *>(magic), sizeof(magic));
    fatalIf(!std::equal(magic, magic + sizeof(magic), kMagic),
            "checkpoint: bad magic (not a PyPIM checkpoint file)");
    const uint32_t version = r.u32();
    if (version != kVersion)
        fatal("checkpoint: unsupported format version " +
                  std::to_string(version) + " (expected " +
                  std::to_string(kVersion) + ")");
    CheckpointImage img;
    img.geo.rows = r.u32();
    img.geo.cols = r.u32();
    img.geo.partitions = r.u32();
    img.geo.wordBits = r.u32();
    img.geo.numCrossbars = r.u32();
    img.geo.userRegs = r.u32();
    img.geo.clockHz = r.u64();
    const uint8_t storage = r.u8();
    if (storage > static_cast<uint8_t>(XbarStorage::Paged))
        fatal("checkpoint: unknown storage mode " +
                  std::to_string(storage));
    img.storage = static_cast<XbarStorage>(storage);
    img.deviceCount = r.u32();
    img.geo.validate();

    const uint32_t sectionCount = r.u32();
    bool sawMask = false, sawStats = false, sawCrossbars = false;
    for (uint32_t s = 0; s < sectionCount; ++s) {
        const uint32_t tag = r.u32();
        const uint64_t len = r.u64();
        const uint32_t crc = r.u32();
        if (len > r.remaining())
            fatal("checkpoint: section " + std::to_string(tag) +
                  " claims " + std::to_string(len) + " bytes, " +
                  std::to_string(r.remaining()) + " left");
        std::vector<uint8_t> payload(len);
        r.bytes(payload.data(), payload.size());
        if (crc32(payload.data(), payload.size()) != crc)
            fatal("checkpoint: CRC mismatch in section " +
                      std::to_string(tag) + " (corrupt file)");
        ByteReader p(payload);
        switch (tag) {
          case kSecMask:
            img.maskXb = readRange(p);
            img.maskRow = readRange(p);
            p.expectEnd("mask");
            img.maskXb.validate(img.geo.numCrossbars,
                                "checkpoint crossbar mask");
            img.maskRow.validate(img.geo.rows, "checkpoint row mask");
            sawMask = true;
            break;
          case kSecStats:
            img.archStats = readStats(p);
            p.expectEnd("stats");
            sawStats = true;
            break;
          case kSecCrossbars: {
            // Bound each count by the records the bytes left can hold
            // before reserving: a crossbar record is at least its id
            // and block count, a block record at least col, block,
            // word count and one word.
            constexpr size_t kMinCrossbarRecord = 8;
            constexpr size_t kMinBlockRecord = 20;
            const uint32_t nXb = p.u32();
            if (nXb > p.remaining() / kMinCrossbarRecord)
                fatal("checkpoint: crossbar count " + std::to_string(nXb) +
                      " exceeds the section");
            img.crossbars.reserve(nXb);
            for (uint32_t i = 0; i < nXb; ++i) {
                CrossbarImage ci;
                ci.xb = p.u32();
                if (ci.xb >= img.geo.numCrossbars)
                    fatal("checkpoint: crossbar id " +
                              std::to_string(ci.xb) +
                              " outside the geometry");
                const uint32_t nBlocks = p.u32();
                if (nBlocks > p.remaining() / kMinBlockRecord)
                    fatal("checkpoint: block count " +
                          std::to_string(nBlocks) + " exceeds the section");
                ci.blocks.reserve(nBlocks);
                for (uint32_t b = 0; b < nBlocks; ++b) {
                    BlockRecord rec;
                    rec.col = p.u32();
                    rec.block = p.u32();
                    fatalIf(rec.col >= img.geo.cols,
                            "checkpoint: block column out of range");
                    const uint32_t nWords = p.u32();
                    if (nWords == 0 || nWords > 8)
                        fatal("checkpoint: bad block word count " +
                                  std::to_string(nWords));
                    rec.words.resize(nWords);
                    for (uint64_t &word : rec.words)
                        word = p.u64();
                    ci.blocks.push_back(std::move(rec));
                }
                img.crossbars.push_back(std::move(ci));
            }
            p.expectEnd("crossbars");
            sawCrossbars = true;
            break;
          }
          case kSecAlloc:
            img.allocState = std::move(payload);
            break;
          case kSecDriverCache:
            img.driverCache = std::move(payload);
            break;
          case kSecDriverStats:
            img.driverStats = std::move(payload);
            break;
          case kSecDriverMasks:
            img.driverMasks = std::move(payload);
            break;
          default:
            fatal("checkpoint: unknown section tag " +
                  std::to_string(tag));
        }
    }
    fatalIf(r.remaining() != 0,
            "checkpoint: trailing bytes after the last section");
    fatalIf(!sawMask || !sawStats || !sawCrossbars,
            "checkpoint: missing a mandatory section "
            "(mask/stats/crossbars)");
    return img;
}

uint64_t
saveCheckpoint(const CheckpointImage &img, const std::string &path)
{
    const std::vector<uint8_t> bytes = encodeCheckpoint(img);
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "wb"), &std::fclose);
    fatalIf(!f, "checkpoint: cannot open '" + path + "' for writing");
    const size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), f.get());
    fatalIf(written != bytes.size(),
            "checkpoint: short write to '" + path + "'");
    return bytes.size();
}

CheckpointImage
loadCheckpoint(const std::string &path)
{
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "rb"), &std::fclose);
    fatalIf(!f, "checkpoint: cannot open '" + path + "'");
    std::fseek(f.get(), 0, SEEK_END);
    const long size = std::ftell(f.get());
    fatalIf(size < 0, "checkpoint: cannot stat '" + path + "'");
    std::fseek(f.get(), 0, SEEK_SET);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    const size_t got =
        std::fread(bytes.data(), 1, bytes.size(), f.get());
    fatalIf(got != bytes.size(),
            "checkpoint: short read from '" + path + "'");
    return decodeCheckpoint(bytes);
}

} // namespace pypim
