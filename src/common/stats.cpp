#include "common/stats.hpp"

#include <sstream>

namespace pypim
{

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::CrossbarMask: return "crossbar_mask";
      case OpClass::RowMask:      return "row_mask";
      case OpClass::Read:         return "read";
      case OpClass::Write:        return "write";
      case OpClass::LogicH:       return "logic_h";
      case OpClass::LogicV:       return "logic_v";
      case OpClass::Move:         return "move";
      default:                    return "unknown";
    }
}

uint64_t
Stats::totalOps() const
{
    uint64_t sum = 0;
    for (auto v : opCount)
        sum += v;
    return sum;
}

uint64_t
Stats::totalCycles() const
{
    uint64_t sum = 0;
    for (auto v : cycleCount)
        sum += v;
    return sum;
}

void
Stats::clear()
{
    opCount.fill(0);
    cycleCount.fill(0);
    logicGates = 0;
    logicInits = 0;
    instructions = 0;
    traceCacheHits = 0;
    traceCacheMisses = 0;
    fusionWaw = 0;
    fusionInitChain = 0;
    fusionWindow = 0;
    fusionWriteStripe = 0;
    sectionsFused = 0;
    sectionsDead = 0;
    sectionsReplayed = 0;
    bulkReads = 0;
    bulkWrites = 0;
    ioWordsTransposed = 0;
    ioDrains = 0;
    faultsInjected = 0;
    faultsDetected = 0;
    recoveries = 0;
    checkpointBytes = 0;
    wireBytesTx = 0;
    wireBytesRx = 0;
    wireRoundTrips = 0;
    wireTraceHits = 0;
}

Stats
Stats::operator-(const Stats &other) const
{
    Stats out;
    for (size_t i = 0; i < numClasses; ++i) {
        out.opCount[i] = opCount[i] - other.opCount[i];
        out.cycleCount[i] = cycleCount[i] - other.cycleCount[i];
    }
    out.logicGates = logicGates - other.logicGates;
    out.logicInits = logicInits - other.logicInits;
    out.instructions = instructions - other.instructions;
    out.traceCacheHits = traceCacheHits - other.traceCacheHits;
    out.traceCacheMisses = traceCacheMisses - other.traceCacheMisses;
    out.fusionWaw = fusionWaw - other.fusionWaw;
    out.fusionInitChain = fusionInitChain - other.fusionInitChain;
    out.fusionWindow = fusionWindow - other.fusionWindow;
    out.fusionWriteStripe =
        fusionWriteStripe - other.fusionWriteStripe;
    out.sectionsFused = sectionsFused - other.sectionsFused;
    out.sectionsDead = sectionsDead - other.sectionsDead;
    out.sectionsReplayed = sectionsReplayed - other.sectionsReplayed;
    out.bulkReads = bulkReads - other.bulkReads;
    out.bulkWrites = bulkWrites - other.bulkWrites;
    out.ioWordsTransposed = ioWordsTransposed - other.ioWordsTransposed;
    out.ioDrains = ioDrains - other.ioDrains;
    out.faultsInjected = faultsInjected - other.faultsInjected;
    out.faultsDetected = faultsDetected - other.faultsDetected;
    out.recoveries = recoveries - other.recoveries;
    out.checkpointBytes = checkpointBytes - other.checkpointBytes;
    out.wireBytesTx = wireBytesTx - other.wireBytesTx;
    out.wireBytesRx = wireBytesRx - other.wireBytesRx;
    out.wireRoundTrips = wireRoundTrips - other.wireRoundTrips;
    out.wireTraceHits = wireTraceHits - other.wireTraceHits;
    return out;
}

Stats &
Stats::operator+=(const Stats &other)
{
    for (size_t i = 0; i < numClasses; ++i) {
        opCount[i] += other.opCount[i];
        cycleCount[i] += other.cycleCount[i];
    }
    logicGates += other.logicGates;
    logicInits += other.logicInits;
    instructions += other.instructions;
    traceCacheHits += other.traceCacheHits;
    traceCacheMisses += other.traceCacheMisses;
    fusionWaw += other.fusionWaw;
    fusionInitChain += other.fusionInitChain;
    fusionWindow += other.fusionWindow;
    fusionWriteStripe += other.fusionWriteStripe;
    sectionsFused += other.sectionsFused;
    sectionsDead += other.sectionsDead;
    sectionsReplayed += other.sectionsReplayed;
    bulkReads += other.bulkReads;
    bulkWrites += other.bulkWrites;
    ioWordsTransposed += other.ioWordsTransposed;
    ioDrains += other.ioDrains;
    faultsInjected += other.faultsInjected;
    faultsDetected += other.faultsDetected;
    recoveries += other.recoveries;
    checkpointBytes += other.checkpointBytes;
    wireBytesTx += other.wireBytesTx;
    wireBytesRx += other.wireBytesRx;
    wireRoundTrips += other.wireRoundTrips;
    wireTraceHits += other.wireTraceHits;
    return *this;
}

Stats
Stats::merged(std::span<const Stats> shards)
{
    Stats out;
    for (const Stats &s : shards)
        out += s;
    return out;
}

std::string
Stats::summary() const
{
    std::ostringstream os;
    os << "micro-ops by class (ops / cycles):\n";
    for (size_t i = 0; i < numClasses; ++i) {
        if (opCount[i] == 0)
            continue;
        os << "  " << opClassName(static_cast<OpClass>(i)) << ": "
           << opCount[i] << " / " << cycleCount[i] << "\n";
    }
    os << "  total: " << totalOps() << " / " << totalCycles() << "\n";
    os << "  logic gates / inits: " << logicGates << " / "
       << logicInits << "\n";
    os << "  macro-instructions: " << instructions << "\n";
    if (traceCacheHits || traceCacheMisses)
        os << "  trace cache: " << traceCacheHits << " hits / "
           << traceCacheMisses << " misses\n";
    if (sectionsFused || sectionsDead || sectionsReplayed)
        os << "  replay liveness: " << sectionsFused
           << " INIT1 sections fused, " << sectionsDead
           << " dead sections dropped, " << sectionsReplayed
           << " sections replayed per crossbar\n";
    if (bulkReads || bulkWrites)
        os << "  bulk I/O: " << bulkReads << " reads / " << bulkWrites
           << " writes, " << ioWordsTransposed << " words transposed, "
           << ioDrains << " drains\n";
    if (faultsInjected || faultsDetected || recoveries ||
        checkpointBytes)
        os << "  fault tolerance: " << faultsInjected << " injected / "
           << faultsDetected << " detected, " << recoveries
           << " recoveries, " << checkpointBytes
           << " checkpoint bytes\n";
    if (wireBytesTx || wireBytesRx || wireRoundTrips || wireTraceHits)
        os << "  shard transport: " << wireBytesTx << " B tx / "
           << wireBytesRx << " B rx, " << wireRoundTrips
           << " round-trips, " << wireTraceHits
           << " trace wire hits\n";
    return os.str();
}

} // namespace pypim
