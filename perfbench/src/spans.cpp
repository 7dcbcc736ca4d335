#include "spans.hpp"

#include <map>
#include <string_view>

#include "obs/trace.hpp"
#include "obs/trace_io.hpp"

namespace perfbench {

namespace {

[[nodiscard]] std::vector<SpanExtent> extents(const std::vector<Span>& spans) {
  std::vector<SpanExtent> out;
  out.reserve(spans.size());
  for (const Span& s : spans) out.push_back(SpanExtent{s.t0, s.t1, s.parent});
  return out;
}

}  // namespace

double ThreadSpans::coverage() const {
  return tiling_coverage(extents(spans_), begin_ns_, end_ns_);
}

std::uint64_t SpanRecorder::dropped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& t : threads_) total += t->dropped();
  return total;
}

std::size_t SpanRecorder::span_count() const noexcept {
  std::size_t total = 0;
  for (const auto& t : threads_) total += t->spans().size();
  return total;
}

std::vector<LayerTotals> SpanRecorder::layer_totals() const {
  std::vector<LayerTotals> out;
  std::map<std::string_view, std::size_t> index;
  for (const auto& thread : threads_) {
    const std::vector<Span>& spans = thread->spans();
    const std::vector<std::uint64_t> self = self_times(extents(spans));
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      auto [it, fresh] = index.try_emplace(s.name, out.size());
      if (fresh) out.push_back(LayerTotals{s.name, s.kind});
      LayerTotals& totals = out[it->second];
      ++totals.count;
      totals.total_ns += s.t1 > s.t0 ? s.t1 - s.t0 : 0;
      totals.self_ns += self[i];
    }
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path,
                                      std::string* error) const {
  const std::uint64_t epoch = steady_ns(evedge::obs::trace_epoch());
  std::vector<evedge::obs::TraceEvent> events;
  events.reserve(span_count());
  for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
    for (const Span& s : threads_[tid]->spans()) {
      evedge::obs::TraceEvent e;
      e.t_ns = s.t0 > epoch ? s.t0 - epoch : 0;
      e.dur_ns = s.t1 > s.t0 ? s.t1 - s.t0 : 0;
      e.cat = "perfbench";
      e.name = s.name;
      e.arg0_key = "stream";
      e.arg0 = s.stream;
      e.arg1_key = "seq";
      e.arg1 = s.seq;
      e.tid = static_cast<std::uint32_t>(tid);
      events.push_back(e);
    }
  }
  return evedge::obs::write_chrome_trace_file(path, events, error);
}

}  // namespace perfbench
