#include "common/config.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace pypim
{

void
Geometry::validate() const
{
    fatalIf(!isPow2(rows), "geometry: rows must be a power of two");
    fatalIf(!isPow2(cols), "geometry: cols must be a power of two");
    fatalIf(!isPow2(partitions),
            "geometry: partitions must be a power of two");
    fatalIf(cols % partitions != 0,
            "geometry: cols must be divisible by partitions");
    fatalIf(wordBits != partitions,
            "geometry: wordBits must equal partitions (paper N); "
            "got wordBits=" + std::to_string(wordBits) +
            " partitions=" + std::to_string(partitions));
    fatalIf(wordBits > 32,
            "geometry: wordBits > 32 exceeds the 32-bit host word that "
            "reads, writes and bulk transfers carry; got wordBits=" +
                std::to_string(wordBits));
    fatalIf(!isPow4(numCrossbars),
            "geometry: numCrossbars must be a power of four "
            "(H-tree arity)");
    fatalIf(userRegs == 0 || userRegs > slots(),
            "geometry: userRegs must be in [1, cols/partitions]");
    fatalIf(scratchSlots() < 4,
            "geometry: at least 4 scratch slots are required by the "
            "host driver");
    fatalIf(clockHz == 0, "geometry: clockHz must be nonzero");
    fatalIf(rows < 2, "geometry: at least two rows are required");
    // Micro-op bit-field capacities (uarch/microop.hpp fmt constants).
    fatalIf(cols > 1024,
            "geometry: cols > 1024 exceeds the 10-bit column fields "
            "of the micro-op format");
    fatalIf(rows > 65536,
            "geometry: rows > 65536 exceeds the 16-bit row fields");
    fatalIf(numCrossbars > 65536,
            "geometry: numCrossbars > 65536 exceeds the 16-bit "
            "crossbar mask fields");
    fatalIf(slots() > 64,
            "geometry: more than 64 register slots exceeds the 6-bit "
            "index fields");
}

Geometry
tableIIIGeometry()
{
    Geometry g;
    g.rows = 1024;
    g.cols = 1024;
    g.partitions = 32;
    g.wordBits = 32;
    g.numCrossbars = 65536;  // 8 GB / (1024 * 1024 / 8) bytes
    g.clockHz = 300'000'000;
    g.userRegs = 14;
    return g;
}

const char *
engineKindName(EngineKind k)
{
    return k == EngineKind::Serial ? "serial" : "unknown";
}

const char *
xbarStorageName(XbarStorage s)
{
    switch (s) {
      case XbarStorage::Dense: return "dense";
      case XbarStorage::Paged: return "paged";
      default:                 return "unknown";
    }
}

const char *
transportKindName(TransportKind t)
{
    switch (t) {
      case TransportKind::Inproc: return "inproc";
      case TransportKind::Socket: return "socket";
      default:                    return "unknown";
    }
}

namespace
{

/**
 * Strict decimal parse of a count-valued environment variable:
 * rejects empty strings, trailing junk ("8x"), signs, and values
 * outside [min, max] with a clear Error naming the variable — a
 * malformed knob must never silently misconfigure the stack (atol
 * would read "abc" as 0 and "12abc" as 12).
 */
uint32_t
parseCountEnv(const char *name, const char *value, uint32_t minV,
              uint32_t maxV)
{
    const std::string s(value);
    errno = 0;
    char *end = nullptr;
    const long long n = std::strtoll(s.c_str(), &end, 10);
    // First character must be a digit: strtoll itself skips leading
    // whitespace (any kind) and accepts signs, both of which the
    // strictness contract rejects.
    fatalIf(s.empty() ||
                !std::isdigit(static_cast<unsigned char>(s[0])) ||
                end != s.c_str() + s.size() || errno == ERANGE ||
                n < 0,
            std::string(name) + ": '" + s +
                "' is not a non-negative integer");
    fatalIf(n < static_cast<long long>(minV) ||
                n > static_cast<long long>(maxV),
            std::string(name) + ": " + s + " out of range [" +
                std::to_string(minV) + ", " + std::to_string(maxV) +
                "]");
    return static_cast<uint32_t>(n);
}

/** Strict on|off|1|0 parse of a boolean environment variable. */
bool
parseSwitchEnv(const char *name, const char *value, bool fallback)
{
    const std::string s(value);
    if (s == "on" || s == "1")
        return true;
    if (s == "off" || s == "0")
        return false;
    fatalIf(!s.empty(), std::string(name) + ": unknown value '" + s +
                            "' (expected on|off)");
    return fallback;
}

} // namespace

EngineConfig
EngineConfig::fromEnv()
{
    EngineConfig c;
    if (const char *t = std::getenv("PYPIM_THREADS"))
        c.threads = parseCountEnv("PYPIM_THREADS", t, 0, 1u << 20);
    if (const char *d = std::getenv("PYPIM_DEVICES")) {
        c.devices = parseCountEnv("PYPIM_DEVICES", d, 1, 1u << 16);
        fatalIf(!isPow2(c.devices),
                "PYPIM_DEVICES: " + std::string(d) +
                    " is not a power of two (sub-devices cut the "
                    "crossbar space at H-tree group boundaries)");
    }
    // Validated by FaultSpec::parse at device-group construction, so
    // the error names the bad key/value rather than the variable.
    if (const char *f = std::getenv("PYPIM_FAULTS"))
        c.faults = f;
    if (const char *vs = std::getenv("PYPIM_VERIFY_STATE"))
        c.verifyState =
            parseSwitchEnv("PYPIM_VERIFY_STATE", vs, c.verifyState);
    if (const char *tr = std::getenv("PYPIM_TRANSPORT")) {
        const std::string s(tr);
        if (s == "socket")
            c.transport = TransportKind::Socket;
        else if (s != "inproc")
            fatal("PYPIM_TRANSPORT: unknown transport '" + s +
                  "' (expected inproc|socket)");
    }
    return c;
}

void
rejectRetiredFields(const EngineConfig &c)
{
    fatalIf(c.pipeline,
            "pipeline=true is not supported: the simulator executes "
            "synchronously");
    fatalIf(!c.compiledReplay,
            "compiledReplay=false is not supported: every segment "
            "replays as a compiled program");
    fatalIf(c.affinity,
            "affinity=true is not supported: replay threads are not "
            "pinned to cores");
}

uint32_t
EngineConfig::resolvedThreads() const
{
    if (threads != 0)
        return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

Geometry
testGeometry()
{
    Geometry g;
    g.rows = 64;
    g.cols = 1024;
    g.partitions = 32;
    g.wordBits = 32;
    g.numCrossbars = 4;
    g.clockHz = 300'000'000;
    g.userRegs = 14;
    return g;
}

} // namespace pypim
