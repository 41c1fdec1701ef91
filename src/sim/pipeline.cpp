#include "sim/pipeline.hpp"

#include "sim/engine.hpp"
#include "sim/htree.hpp"
#include "sim/replay_program.hpp"

namespace pypim
{

SimulatorPipeline::SimulatorPipeline(
    const Geometry &geo, const HTree &htree, MaskState &mask,
    Stats &stats, std::unique_ptr<ExecutionEngine> &engine,
    std::function<void()> preReplay, std::function<void()> postReplay)
    : geo_(geo),
      htree_(htree),
      mask_(mask),
      stats_(stats),
      engine_(engine),
      preReplay_(std::move(preReplay)),
      postReplay_(std::move(postReplay))
{
    free_.reserve(kBuffers);
    for (uint32_t i = 0; i < kBuffers; ++i)
        free_.push_back(i);
    consumer_ = std::thread([this] { consumerLoop(); });
}

SimulatorPipeline::~SimulatorPipeline()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cvConsumer_.notify_one();
    consumer_.join();
}

void
SimulatorPipeline::submit(const Word *ops, size_t n)
{
    uint32_t buf;
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (error_)
            std::rethrow_exception(error_);
        cvProducer_.wait(lock, [&] { return !free_.empty(); });
        buf = free_.back();
        free_.pop_back();
    }
    BatchTrace &batch = buffers_[buf];
    batch.clear();
    try {
        buildBatchTrace(ops, n, geo_, htree_, mask_, batch);
    } catch (...) {
        // Report the malformed op at the submitBatch that contained
        // it; none of this batch reached a crossbar, but the valid
        // prefix was recorded, exactly like the synchronous trace
        // engines.
        stats_ += batch.stats;
        std::lock_guard<std::mutex> lock(mu_);
        free_.push_back(buf);
        cvProducer_.notify_all();
        throw;
    }
    stats_ += batch.stats;
    if (batch.items.empty()) {
        // Fully absorbed (mask-only and data-less-read traffic).
        std::lock_guard<std::mutex> lock(mu_);
        free_.push_back(buf);
        cvProducer_.notify_all();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        queued_.push_back(Pending{buf, nullptr});
    }
    cvConsumer_.notify_one();
}

void
SimulatorPipeline::submitShared(std::shared_ptr<const BatchTrace> trace)
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (error_)
            std::rethrow_exception(error_);
        cvProducer_.wait(lock,
                         [&] { return queued_.size() < kMaxQueued; });
    }
    // Producer-side effects, same as a freshly built batch: the
    // pre-recorded architectural stats and the stream's final mask
    // state apply at submit time (the consumer applies pre-validated
    // crossbar changes only).
    stats_ += trace->stats;
    mask_.xb = trace->finalXb;
    mask_.setRow(trace->finalRow, geo_.rows);
    if (trace->items.empty())
        return;  // mask-only stream: nothing to replay
    {
        std::lock_guard<std::mutex> lock(mu_);
        queued_.push_back(Pending{kNoBuffer, std::move(trace)});
    }
    cvConsumer_.notify_one();
}

void
SimulatorPipeline::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    cvProducer_.wait(lock,
                     [&] { return queued_.empty() && !replaying_; });
    if (error_)
        std::rethrow_exception(error_);
}

void
SimulatorPipeline::clearError()
{
    std::unique_lock<std::mutex> lock(mu_);
    cvProducer_.wait(lock,
                     [&] { return queued_.empty() && !replaying_; });
    error_ = nullptr;
}

void
SimulatorPipeline::consumerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        cvConsumer_.wait(lock,
                         [&] { return stop_ || !queued_.empty(); });
        if (queued_.empty())
            return;  // stop requested and nothing left to replay
        Pending p = std::move(queued_.front());
        queued_.pop_front();
        replaying_ = true;
        const bool skip = static_cast<bool>(error_);
        lock.unlock();
        std::exception_ptr err;
        if (!skip) {
            try {
                // The consumer owns an arena batch until it frees the
                // buffer below, so it may compile the batch in place.
                if (!p.shared)
                    compileBatchTrace(buffers_[p.buf], geo_);
                const BatchTrace &batch =
                    p.shared ? *p.shared : buffers_[p.buf];
                if (preReplay_)
                    preReplay_();
                busy_.store(true, std::memory_order_release);
                engine_->replayBatch(batch);
                busy_.store(false, std::memory_order_release);
                if (postReplay_)
                    postReplay_();
            } catch (...) {
                busy_.store(false, std::memory_order_release);
                err = std::current_exception();
            }
        }
        p.shared.reset();  // release the refcount outside the lock
        lock.lock();
        if (err && !error_)
            error_ = err;  // sticky: rethrown at every sync point
        replaying_ = false;
        if (p.buf != kNoBuffer)
            free_.push_back(p.buf);
        cvProducer_.notify_all();
    }
}

} // namespace pypim
