/**
 * @file
 * Shard worker: the process-side half of the socket transport
 * (sim/transport.hpp).
 *
 * A worker is one slice Simulator wrapped in a framed message loop
 * over a Unix-domain socket. It is forked (not exec'd) by the host's
 * SocketTransport, services messages until Shutdown or EOF, and
 * _exit()s — it never returns control to the host's code paths.
 *
 * ERROR CONTRACT (the report-at-sync rule). Asynchronous messages
 * (submit, trace install/replay, landing writes) cannot carry a reply,
 * so a failure there goes STICKY: the worker stops applying
 * state-mutating messages and answers every synchronous request with
 * kMsgErr carrying the original typed exception, until a StateRestore
 * — the recovery path — clears the sticky error and rebuilds the
 * slice. Synchronous failures reply kMsgErr immediately; only the
 * DeviceFault family (corruption, injected faults) goes sticky, a
 * plain user Error leaves the worker serviceable, mirroring the
 * in-process sink. Trace INSTALLS are processed even while sticky:
 * the host tracks each worker's cache contents, and the cache is pure
 * data — installing it touches no simulator state.
 */
#ifndef PYPIM_SIM_SHARD_WORKER_HPP
#define PYPIM_SIM_SHARD_WORKER_HPP

#include <cstdint>

#include "common/config.hpp"

namespace pypim
{

/**
 * Run the worker message loop for the slice
 * [@p sliceLo, @p sliceLo + @p sliceCount) of @p geo, speaking the
 * framed protocol on @p fd. @p sub is the group's per-sub-device
 * config (fault and verify-state flags included);
 * @p deviceIndex seeds the fault injector exactly as the in-process
 * group would. Returns only when the host shuts the channel down (or
 * the stream is damaged beyond recovery); never throws.
 */
void runShardWorker(int fd, const Geometry &geo, const EngineConfig &sub,
                    uint32_t sliceLo, uint32_t sliceCount,
                    uint32_t deviceIndex) noexcept;

} // namespace pypim

#endif // PYPIM_SIM_SHARD_WORKER_HPP
