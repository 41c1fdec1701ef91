/**
 * @file
 * Versioned BatchTrace wire format — the other half of the fleet wire
 * protocol (sim/serialize.hpp built the state half in PR 9).
 *
 * A frozen BatchTrace crosses a shard-transport link as one
 * self-contained image, content-addressed by traceSignature() (FNV-1a
 * of the source micro-op words plus the fusion flag — the same
 * identity the driver's stream cache keys on, so identical workloads
 * produce identical wire addresses). The image carries:
 *
 *  - the RAW SOURCE STREAM: the receiver rebuilds the trace
 *    deterministically with buildBatchTrace/fuseBatchTrace on its own
 *    arenas and compiles it there (compileBatchTrace), where it
 *    replays;
 *  - the batch's architectural epilogue (Stats, final masks) as a
 *    CROSS-CHECK: the rebuilt trace must reproduce it exactly, so a
 *    sender/receiver decode divergence fails loudly instead of
 *    silently corrupting the replicated-stats invariant.
 *
 * Nothing else: compiled programs never cross the wire. Every field
 * of the image is therefore either guarded by a check or an input to
 * the rebuild the checks verify, and a worker never installs offsets
 * or column indices it did not derive itself.
 *
 * Framing (CRC, length prefix) is the transport's job
 * (sim/transport.hpp); this codec still magic/version-guards and
 * bounds-checks every field and throws pypim::Error on any damage —
 * a corrupt trace image must never install partial state.
 */
#ifndef PYPIM_SIM_TRACE_WIRE_HPP
#define PYPIM_SIM_TRACE_WIRE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "uarch/microop.hpp"

namespace pypim
{

struct BatchTrace;
class HTree;

/** Content address of a frozen trace: FNV-1a over the source micro-op
 *  words plus the fusion flag. */
uint64_t traceSignature(const Word *ops, size_t n, bool fuse);

/**
 * Build a frozen, wire-addressable BatchTrace from a self-contained
 * stream WITHOUT a Simulator: the host-side mirror of
 * Simulator::prepareTrace for transports whose sub-device state lives
 * elsewhere. Returns null when the stream does not lead with both
 * masks; otherwise the trace is built, optionally fused, stamped with
 * its wire identity (BatchTrace::wireSig/sourceOps/sourceFuse) and
 * stripped of its segment arenas: the host never replays it, it only
 * ships the source stream and walks the Move items. Unlike the
 * Simulator path, a malformed stream throws without any stats side
 * effect — the caller owns no counters.
 */
std::shared_ptr<const BatchTrace>
buildWireTrace(const Word *ops, size_t n, bool fuse,
               const Geometry &geo, const HTree &htree);

/** Encode @p trace (which must carry its wire identity) into one
 *  self-contained image. */
std::vector<uint8_t> encodeTraceWire(const BatchTrace &trace);

/**
 * Decode an image produced by encodeTraceWire into a freshly rebuilt
 * frozen trace for @p geo, verifying the magic/version/geometry
 * guards, the signature, and the architectural epilogue cross-check,
 * then compiles it for replay (a socket worker's install path).
 * Throws pypim::Error on any mismatch or truncation, including an
 * image of another version.
 */
std::shared_ptr<const BatchTrace>
decodeTraceWire(const uint8_t *bytes, size_t n, const Geometry &geo,
                const HTree &htree);

} // namespace pypim

#endif // PYPIM_SIM_TRACE_WIRE_HPP
