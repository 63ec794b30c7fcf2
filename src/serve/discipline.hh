/**
 * @file
 * The daemon's run queue: the order its worker drains queued sweeps.
 *
 * The worker ThreadPool is a shared resource exactly like the bus in
 * the service-discipline literature: with one arrival-order queue,
 * one client submitting a giant sweep makes every later client wait
 * the whole campaign out. The queue therefore arbitrates *across
 * clients* (one FIFO per X-Dirsim-Client identity, drained in
 * rotation), so interactive one-cell sweeps interleave with batch
 * campaigns regardless of arrival order. Submissions without the
 * header share one anonymous identity, so a daemon whose clients
 * send none serves in arrival order.
 *
 * The queue orders runs only — it is a plain data structure, not
 * thread-safe; the server serializes access under its state mutex
 * (and tests drive it directly).
 */

#ifndef DIRSIM_SERVE_DISCIPLINE_HH
#define DIRSIM_SERVE_DISCIPLINE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>

namespace dirsim
{

/** One queued sweep awaiting the worker. */
struct QueuedRun
{
    std::uint64_t id = 0;
    /** Submitting client's identity (X-Dirsim-Client; "" =
     *  anonymous — all anonymous submissions share one identity). */
    std::string client;

    bool operator==(const QueuedRun &) const = default;
};

/**
 * Round-robin across clients: per-client FIFO queues drained in a
 * fixed rotation, continuing after the last-served client. A client
 * with ten queued sweeps yields after each one to every other
 * waiting client; a single identity is served in arrival order.
 */
class RoundRobinDiscipline
{
  public:
    /** Add a run to the queue. */
    void enqueue(const QueuedRun &run);

    /** Remove and return the next run to serve; nullopt when empty. */
    std::optional<QueuedRun> dequeue();

    /** Drop a queued run (cancellation).
     *  @return true when it was queued */
    bool remove(std::uint64_t id);

    std::size_t size() const;

    bool empty() const { return rotation.empty(); }

  private:
    /** Client rotation in first-appearance order; clients whose
     *  queues drain are removed and re-enter at the back when they
     *  submit again. */
    std::deque<std::string> rotation;
    std::map<std::string, std::deque<QueuedRun>> queues;
};

} // namespace dirsim

#endif // DIRSIM_SERVE_DISCIPLINE_HH
