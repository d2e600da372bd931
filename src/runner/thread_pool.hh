/**
 * @file
 * Thread pool for the experiment runner.
 *
 * The workers share one FIFO task queue under one mutex. Balancing
 * needs no more than that: parallelFor() queues one participation
 * task per worker, and those tasks claim indices from one atomic
 * counter, so a worker that finishes a short job simply claims the
 * next index. Tasks are coarse (whole simulations), so the queue's
 * lock is never contended in practice.
 */

#ifndef MITHRIL_RUNNER_THREAD_POOL_HH
#define MITHRIL_RUNNER_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mithril::runner
{

/** Number of workers used when a caller passes `threads == 0`. */
unsigned defaultThreadCount();

/**
 * Fixed-size pool of worker threads over one FIFO task queue. The
 * pool itself imposes no ordering: callers that need deterministic
 * output must index results by task id, never by completion order
 * (SweepRunner does exactly that).
 */
class ThreadPool
{
  public:
    /** Spawn `threads` workers (0 = defaultThreadCount()). */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(threads_.size()); }

    /** Enqueue one task; it may start immediately. */
    void submit(std::function<void()> task);

    /**
     * Run `fn(0) .. fn(count - 1)` on the pool and block until every
     * call returned. Calls run concurrently and in no particular
     * order. The first exception thrown by any call is rethrown here
     * (remaining calls still run to completion).
     *
     * The indices are claimed from a shared counter by per-worker
     * participation tasks; a caller already running on this pool
     * claims indices itself too, so the call is safe from inside a
     * pool task — a sweep job that shards its own work re-enters the
     * pool it is running on without deadlock and without
     * oversubscribing a second pool. An external caller only waits:
     * at most size() calls run concurrently (the cap the pool was
     * sized by), and the waiting caller never executes unrelated
     * queued tasks.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn);

    /**
     * The pool whose worker is executing the current thread, or
     * nullptr outside any pool task. Lets nested work (e.g. a sharded
     * engine run inside a sweep job) reuse the ambient pool instead
     * of spawning a competing one.
     */
    static ThreadPool *current();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable wakeCv_;
    std::deque<std::function<void()>> queue_; //!< Guarded by mutex_.
    bool stop_ = false;                        //!< Guarded by mutex_.
    /** Declared last: the workers use every member above. */
    std::vector<std::thread> threads_;
};

} // namespace mithril::runner

#endif // MITHRIL_RUNNER_THREAD_POOL_HH
