#include "runner/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/logging.hh"

namespace mithril::runner
{

namespace
{

/** The pool whose worker is the current thread, if any. */
thread_local ThreadPool *t_currentPool = nullptr;

} // namespace

unsigned
defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool *
ThreadPool::current()
{
    return t_currentPool;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    threads_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wakeCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    MITHRIL_ASSERT(task);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        MITHRIL_ASSERT_MSG(!stop_, "submit() on a stopping pool");
        queue_.push_back(std::move(task));
    }
    wakeCv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    t_currentPool = this;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wakeCv_.wait(lock,
                         [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // Stopping, and the queue is drained.
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;

    // Index-claiming participation: the indices live in a shared
    // atomic counter, and the pool receives one *participation* task
    // per worker (not one task per index). A nested caller claims
    // indices too, so it makes progress even when every worker is
    // busy. No caller executes unrelated queued work while waiting
    // (which could deadlock on an event sequenced after this call
    // returns).
    struct State
    {
        std::atomic<std::size_t> next{0};
        std::mutex mutex;
        std::condition_variable doneCv;
        std::size_t completed = 0;
        std::exception_ptr error;
    };
    auto state = std::make_shared<State>();

    // Captures fn by reference: safe, because fn is only invoked for
    // a freshly claimed index, and the caller cannot return before
    // every claimed index completed. A participation task that starts
    // late finds the counter exhausted and exits without touching fn.
    auto run_indices = [state, &fn, count] {
        for (;;) {
            const std::size_t i = state->next.fetch_add(1);
            if (i >= count)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state->mutex);
                if (!state->error)
                    state->error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(state->mutex);
            if (++state->completed == count)
                state->doneCv.notify_all();
        }
    };

    // A nested caller (already on this pool) must participate —
    // every worker may be busy, and only its own loop guarantees
    // progress. An external caller must NOT: it would run as an
    // extra body beside the pool's workers and silently break the
    // `threads` concurrency cap callers sized the pool by (a
    // jobs=1 sweep must run one simulation at a time).
    const bool nested = t_currentPool == this;
    const std::size_t participants = std::min<std::size_t>(
        nested ? count - 1 : count, size());
    for (std::size_t p = 0; p < participants; ++p)
        submit(run_indices);
    if (nested)
        run_indices();

    std::unique_lock<std::mutex> lock(state->mutex);
    state->doneCv.wait(lock,
                       [&] { return state->completed == count; });
    if (state->error)
        std::rethrow_exception(state->error);
}

} // namespace mithril::runner
