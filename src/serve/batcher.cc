#include "serve/batcher.hh"

#include <vector>

namespace pcause::serve
{

Batcher::Batcher(const AttackService &service, BatcherConfig config)
    : svc(service), cfg(config), drain([this] { drainLoop(); })
{
}

Batcher::~Batcher()
{
    {
        std::lock_guard<std::mutex> lock(m);
        stopping = true;
    }
    wake.notify_all();
    drain.join();
}

std::optional<IdentifyVerdict>
Batcher::submit(IdentifyRequest req)
{
    std::future<IdentifyVerdict> verdict;
    {
        std::lock_guard<std::mutex> lock(m);
        if (stopping || queue.size() >= cfg.queueCap)
            return std::nullopt;
        Pending p;
        p.req = std::move(req);
        verdict = p.reply.get_future();
        queue.push_back(std::move(p));
    }
    wake.notify_one();
    return verdict.get();
}

std::size_t
Batcher::served() const
{
    std::lock_guard<std::mutex> lock(m);
    return servedCount;
}

std::size_t
Batcher::batches() const
{
    std::lock_guard<std::mutex> lock(m);
    return batchCount;
}

void
Batcher::drainLoop()
{
    for (;;) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(m);
            wake.wait(lock,
                      [this] { return stopping || !queue.empty(); });
            if (queue.empty() && stopping)
                return;

            const std::size_t take =
                std::min(queue.size(), cfg.batchMax);
            batch.reserve(take);
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue.front()));
                queue.pop_front();
            }
        }

        // Group runs of identical options; one identifyBatch per
        // group keeps the contract "a batch shares one option set".
        std::size_t start = 0;
        while (start < batch.size()) {
            std::size_t end = start + 1;
            while (end < batch.size() &&
                   batch[end].req.options ==
                       batch[start].req.options)
                ++end;

            std::vector<BitVec> strings;
            strings.reserve(end - start);
            for (std::size_t i = start; i < end; ++i)
                strings.push_back(
                    std::move(batch[i].req.errorString));

            const std::vector<IdentifyVerdict> verdicts =
                svc.identifyBatch(strings,
                                  batch[start].req.options);
            for (std::size_t i = start; i < end; ++i)
                batch[i].reply.set_value(verdicts[i - start]);

            {
                std::lock_guard<std::mutex> lock(m);
                servedCount += end - start;
                ++batchCount;
            }
            start = end;
        }
    }
}

} // namespace pcause::serve
