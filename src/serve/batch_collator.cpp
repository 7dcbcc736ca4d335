#include "serve/batch_collator.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace evedge::serve {

namespace {

/// One "queue.wait" span per popped frame: enqueue_tp -> pop, the
/// queue-residency lane of the trace timeline. The pop stamp stays on
/// the frame, where the worker's collate.wait span picks it up.
void trace_queue_wait(ReadyFrame& frame) {
  if (!obs::Tracer::enabled()) return;
  frame.pop_ns = obs::now_ns();
  obs::Tracer::span("queue", "queue.wait",
                    obs::to_trace_ns(frame.enqueue_tp), frame.pop_ns,
                    "stream", frame.stream_id, "seq", frame.seq);
}

}  // namespace

BatchCollator::BatchCollator(CollatorConfig config) : config_(config) {
  if (config_.max_batch < 1) {
    throw std::invalid_argument("BatchCollator: max_batch must be >= 1");
  }
  if (config_.max_wait_us < 0.0) {
    throw std::invalid_argument("BatchCollator: max_wait_us must be >= 0");
  }
}

bool BatchCollator::collect(FrameQueue& queue,
                            std::vector<ReadyFrame>& out,
                            int max_batch_override) {
  out.clear();
  const int max_batch =
      max_batch_override > 0 ? max_batch_override : config_.max_batch;
  std::optional<ReadyFrame> first = queue.pop();
  if (!first.has_value()) return false;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(
          static_cast<long long>(config_.max_wait_us));
  trace_queue_wait(*first);
  out.push_back(std::move(*first));
  while (static_cast<int>(out.size()) < max_batch) {
    std::optional<ReadyFrame> next = queue.pop_until(deadline);
    if (!next.has_value()) break;  // deadline, or closed and drained
    trace_queue_wait(*next);
    out.push_back(std::move(*next));
  }
  return true;
}

}  // namespace evedge::serve
