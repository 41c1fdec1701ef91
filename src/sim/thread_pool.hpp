/**
 * @file
 * Persistent worker pool for the execution engine's compiled replay.
 *
 * Batch execution dispatches one task per shard many thousands of
 * times per second, so workers must be persistent (spawning threads
 * per batch would dwarf the simulation work). The pool spawns
 * size()-1 workers and the calling thread executes its own share
 * inside parallelFor, so a pool of size 1 degenerates to an inline
 * loop with zero synchronisation.
 */
#ifndef PYPIM_SIM_THREAD_POOL_HPP
#define PYPIM_SIM_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pypim
{

/** Fixed-size fork-join pool with a work-stealing parallel-for. */
class ThreadPool
{
  public:
    /**
     * @p threads is the TOTAL parallelism including the calling
     * thread; the pool spawns threads-1 workers. 0 is clamped to 1.
     */
    explicit ThreadPool(uint32_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism (workers + calling thread). */
    uint32_t size() const { return nThreads_; }

    /**
     * Invoke fn(i) for every i in [0, tasks), distributing indices
     * over the workers and the calling thread; returns when all
     * invocations completed. The first exception thrown by any fn is
     * rethrown here (remaining tasks still run to completion).
     * Not reentrant: one parallelFor at a time per pool. @p fn is
     * called through a plain pointer, never copied, so dispatch
     * allocates nothing.
     */
    template <typename Fn>
    void
    parallelFor(uint32_t tasks, Fn &&fn)
    {
        run(tasks, const_cast<void *>(static_cast<const void *>(&fn)),
            [](void *f, uint32_t i) {
                (*static_cast<std::remove_reference_t<Fn> *>(f))(i);
            });
    }

  private:
    using TaskFn = void (*)(void *, uint32_t);

    void run(uint32_t tasks, void *ctx, TaskFn call);
    void workerLoop();
    void runTasks();

    const uint32_t nThreads_;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable cvStart_;
    std::condition_variable cvDone_;
    uint64_t generation_ = 0;
    uint32_t tasks_ = 0;
    uint32_t busyWorkers_ = 0;
    void *ctx_ = nullptr;     //!< the running parallelFor's callable
    TaskFn call_ = nullptr;   //!< invokes ctx_ on one task index
    std::atomic<uint32_t> next_{0};
    std::exception_ptr error_;
    bool stop_ = false;
};

} // namespace pypim

#endif // PYPIM_SIM_THREAD_POOL_HPP
