/**
 * @file
 * Adaptive micro-batcher: coalesces concurrent identify requests
 * into AttackService::identifyBatch calls.
 *
 * Connection threads submit() one request each and block on a
 * future; a single drain thread pulls everything queued, groups the
 * requests by QueryOptions (a batch shares one option set), and
 * runs each group through identifyBatch — the queryBatch path that
 * spreads work across the thread pool. The drain never lingers: it
 * takes whatever is queued. Under light load a request is drained
 * alone and the batcher adds one handoff; under heavy load the
 * queue naturally accumulates while the previous batch runs, so
 * batch size adapts to load with no tuning.
 *
 * The queue is bounded. A full queue rejects the submit — the
 * server turns that into an explicit BUSY reply (backpressure, not
 * a silent drop).
 */

#ifndef PCAUSE_SERVE_BATCHER_HH
#define PCAUSE_SERVE_BATCHER_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

#include "core/service.hh"

namespace pcause::serve
{

/** Batcher tuning; defaults suit a loopback benchmark. */
struct BatcherConfig
{
    /** Submits rejected (BUSY) beyond this many queued requests.
     *  Zero rejects everything — the backpressure test hook. */
    std::size_t queueCap = 1024;

    /** Upper bound on one identifyBatch call. */
    std::size_t batchMax = 256;
};

/** Coalesces identify requests into batched service calls. */
class Batcher
{
  public:
    Batcher(const AttackService &service, BatcherConfig config);

    /** Stops the drain thread; pending requests still complete. */
    ~Batcher();

    Batcher(const Batcher &) = delete;
    Batcher &operator=(const Batcher &) = delete;

    /**
     * Enqueue @p req and wait for its verdict. Empty when the
     * bounded queue is full (the caller answers BUSY).
     */
    std::optional<IdentifyVerdict> submit(IdentifyRequest req);

    /** Requests answered so far (batched or solo). */
    std::size_t served() const;

    /** identifyBatch calls issued (served()/batches() = mean batch
     *  size; the adaptivity observable). */
    std::size_t batches() const;

  private:
    struct Pending
    {
        IdentifyRequest req;
        std::promise<IdentifyVerdict> reply;
    };

    void drainLoop();

    const AttackService &svc;
    const BatcherConfig cfg;

    mutable std::mutex m;
    std::condition_variable wake;
    std::deque<Pending> queue;
    bool stopping = false;
    std::size_t servedCount = 0;
    std::size_t batchCount = 0;

    std::thread drain;
};

} // namespace pcause::serve

#endif // PCAUSE_SERVE_BATCHER_HH
