#include "serve/discipline.hh"

#include <algorithm>

namespace dirsim
{

void
RoundRobinDiscipline::enqueue(const QueuedRun &run)
{
    auto &queue = queues[run.client];
    if (queue.empty()
        && std::find(rotation.begin(), rotation.end(), run.client)
            == rotation.end())
        rotation.push_back(run.client);
    queue.push_back(run);
}

std::optional<QueuedRun>
RoundRobinDiscipline::dequeue()
{
    if (rotation.empty())
        return std::nullopt;
    const std::string client = rotation.front();
    rotation.pop_front();
    auto &queue = queues[client];
    QueuedRun run = queue.front();
    queue.pop_front();
    if (queue.empty())
        queues.erase(client);
    else
        rotation.push_back(client); // serve the others first
    return run;
}

bool
RoundRobinDiscipline::remove(std::uint64_t id)
{
    for (auto &[client, queue] : queues) {
        const auto it = std::find_if(
            queue.begin(), queue.end(),
            [&](const QueuedRun &run) { return run.id == id; });
        if (it == queue.end())
            continue;
        queue.erase(it);
        if (queue.empty()) {
            const std::string drained = client;
            const auto spot = std::find(rotation.begin(),
                                        rotation.end(), drained);
            if (spot != rotation.end())
                rotation.erase(spot);
            queues.erase(drained);
        }
        return true;
    }
    return false;
}

std::size_t
RoundRobinDiscipline::size() const
{
    std::size_t total = 0;
    for (const auto &[client, queue] : queues)
        total += queue.size();
    return total;
}

} // namespace dirsim
