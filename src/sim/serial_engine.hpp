/**
 * @file
 * The reference execution engine: the bit-accurate serial replay loop
 * that used to live inside Simulator::performBatch. Every micro-op is
 * decoded and applied to all mask-selected crossbars on the calling
 * thread, in stream order (op-major). This is the default backend and,
 * over XbarStorage::Dense, the one behavioural oracle the sharded
 * engine and every compiled ReplayProgram are tested
 * against — deliberately free of the decode-once/fusion/compile
 * machinery it validates.
 */
#ifndef PYPIM_SIM_SERIAL_ENGINE_HPP
#define PYPIM_SIM_SERIAL_ENGINE_HPP

#include "sim/engine.hpp"

namespace pypim
{

/** Single-threaded full-array replay backend. */
class SerialEngine : public ExecutionEngine
{
  public:
    using ExecutionEngine::ExecutionEngine;

    const char *name() const override { return "serial"; }

    void execute(const Word *ops, size_t n) override;
};

} // namespace pypim

#endif // PYPIM_SIM_SERIAL_ENGINE_HPP
