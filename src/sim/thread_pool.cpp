#include "sim/thread_pool.hpp"

#include <algorithm>

namespace pypim
{

ThreadPool::ThreadPool(uint32_t threads)
    : nThreads_(std::max(1u, threads))
{
    workers_.reserve(nThreads_ - 1);
    for (uint32_t i = 0; i + 1 < nThreads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cvStart_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::runTasks()
{
    for (;;) {
        const uint32_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= tasks_)
            return;
        try {
            call_(ctx_, i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!error_)
                error_ = std::current_exception();
        }
    }
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            cvStart_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
        }
        runTasks();
        {
            std::lock_guard<std::mutex> lock(mu_);
            --busyWorkers_;
        }
        cvDone_.notify_one();
    }
}

void
ThreadPool::run(uint32_t tasks, void *ctx, TaskFn call)
{
    if (tasks == 0)
        return;
    if (workers_.empty() || tasks == 1) {
        for (uint32_t i = 0; i < tasks; ++i)
            call(ctx, i);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        ctx_ = ctx;
        call_ = call;
        tasks_ = tasks;
        next_.store(0, std::memory_order_relaxed);
        error_ = nullptr;
        busyWorkers_ = static_cast<uint32_t>(workers_.size());
        ++generation_;
    }
    cvStart_.notify_all();
    runTasks();  // the calling thread takes its share
    {
        std::unique_lock<std::mutex> lock(mu_);
        cvDone_.wait(lock, [&] { return busyWorkers_ == 0; });
        ctx_ = nullptr;
        call_ = nullptr;
        if (error_)
            std::rethrow_exception(error_);
    }
}

} // namespace pypim
