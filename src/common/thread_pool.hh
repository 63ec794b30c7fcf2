/**
 * @file
 * A small fixed-size worker pool with a FIFO task queue, the
 * concurrency substrate of the cell executor (runPlan(),
 * sim/job.hh).
 *
 * Tasks are plain std::function<void()> closures. An exception
 * escaping a task does not kill the worker: the first one is captured
 * and rethrown from the next wait(), so callers observe task failures
 * at a well-defined point.
 */

#ifndef DIRSIM_COMMON_THREAD_POOL_HH
#define DIRSIM_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dirsim
{

/** Fixed-size thread pool executing submitted tasks FIFO. */
class ThreadPool
{
  public:
    /**
     * Start @p num_threads workers.
     *
     * @throws UsageError when @p num_threads is zero
     */
    explicit ThreadPool(unsigned num_threads);

    /** Drains the queue (discarding pending tasks) and joins. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Workers owned by the pool. */
    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers.size());
    }

    /** Enqueue @p task; it runs on some worker in FIFO order. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished.
     *
     * @throws whatever the first failing task threw since the last
     *         wait(); remaining tasks still ran to completion
     */
    void wait();

    /** Tasks submitted but not yet finished. */
    std::size_t pendingTasks() const;

    /**
     * std::thread::hardware_concurrency() clamped to >= 1 (the
     * standard allows it to return 0 when undeterminable).
     */
    static unsigned hardwareThreads();

  private:
    void workerLoop();

    mutable std::mutex mutex;
    std::condition_variable taskReady;
    std::condition_variable allDone;
    std::deque<std::function<void()>> tasks;
    std::vector<std::thread> workers;
    std::size_t inFlight = 0;
    std::exception_ptr firstError;
    bool stopping = false;
};

} // namespace dirsim

#endif // DIRSIM_COMMON_THREAD_POOL_HH
