#include "obs/trace.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>

namespace evedge::obs {

const char* intern_name(std::string_view name) {
  static std::mutex mutex;
  // Deliberately leaked: interned names must stay valid through any
  // static-teardown-time trace export, so the pool is never destroyed.
  // unordered_set is node-based — c_str() pointers survive rehashing.
  static auto* const pool = new std::unordered_set<std::string>();
  const std::lock_guard<std::mutex> lock(mutex);
  return pool->emplace(name).first->c_str();
}

std::atomic<bool> Tracer::enabled_{false};

std::chrono::steady_clock::time_point trace_epoch() noexcept {
  // Latched once, process-wide: static-local initialization is
  // thread-safe, and everything downstream (spans, journal t_ms) is a
  // difference against this instant.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::uint64_t to_trace_ns(
    std::chrono::steady_clock::time_point tp) noexcept {
  const auto d = tp - trace_epoch();
  if (d.count() < 0) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_ring_capacity(std::size_t capacity) {
  capacity_.store(std::max<std::size_t>(1, capacity),
                  std::memory_order_relaxed);
}

std::size_t Tracer::ring_capacity() const noexcept {
  return capacity_.load(std::memory_order_relaxed);
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const std::unique_ptr<Ring>& ring : rings_) {
    ring->count.store(0, std::memory_order_release);
    ring->dropped.store(0, std::memory_order_relaxed);
  }
}

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<TraceEvent> out;
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const std::unique_ptr<Ring>& ring : rings_) {
    const std::uint32_t n = ring->count.load(std::memory_order_acquire);
    out.insert(out.end(), ring->slots, ring->slots + n);
  }
  return out;
}

std::uint64_t Tracer::dropped() const noexcept {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  std::uint64_t total = 0;
  for (const std::unique_ptr<Ring>& ring : rings_) {
    total += ring->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t Tracer::ring_count() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  return rings_.size();
}

Tracer::Ring& Tracer::local_ring() {
  // First emit on a thread registers its ring (the only locked path on
  // the way to a slot); afterwards the thread-local pointer short-cuts
  // straight to it. Rings are owned by the registry and outlive their
  // threads, so a snapshot after a worker joined still sees its events.
  // The ring is built before the lock is taken, so concurrent first
  // emits serialise only on the registration itself.
  thread_local Ring* ring = nullptr;
  thread_local const Tracer* owner = nullptr;
  if (ring == nullptr || owner != this) {
    auto fresh =
        std::make_unique<Ring>(capacity_.load(std::memory_order_relaxed));
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    fresh->tid = static_cast<std::uint32_t>(rings_.size());
    rings_.push_back(std::move(fresh));
    ring = rings_.back().get();
    owner = this;
  }
  return *ring;
}

void Tracer::push(TraceEvent event) noexcept {
  Ring& ring = local_ring();
  const std::uint32_t idx = ring.count.load(std::memory_order_relaxed);
  if (idx >= ring.capacity) {
    ring.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  event.tid = ring.tid;
  std::construct_at(ring.slots + idx, event);
  ring.count.store(idx + 1, std::memory_order_release);
}

void Tracer::span(const char* cat, const char* name, std::uint64_t t0_ns,
                  std::uint64_t t1_ns, const char* arg0_key,
                  std::int64_t arg0, const char* arg1_key,
                  std::int64_t arg1) noexcept {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = Phase::kSpan;
  e.cat = cat;
  e.name = name;
  e.t_ns = t0_ns;
  e.dur_ns = t1_ns >= t0_ns ? t1_ns - t0_ns : 0;
  e.arg0_key = arg0_key;
  e.arg0 = arg0;
  e.arg1_key = arg1_key;
  e.arg1 = arg1;
  instance().push(e);
}

void Tracer::instant(const char* cat, const char* name,
                     const char* arg0_key, std::int64_t arg0,
                     const char* arg1_key, std::int64_t arg1) noexcept {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = Phase::kInstant;
  e.cat = cat;
  e.name = name;
  e.t_ns = now_ns();
  e.arg0_key = arg0_key;
  e.arg0 = arg0;
  e.arg1_key = arg1_key;
  e.arg1 = arg1;
  instance().push(e);
}

void Tracer::counter(const char* cat, const char* name,
                     std::int64_t value) noexcept {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = Phase::kCounter;
  e.cat = cat;
  e.name = name;
  e.t_ns = now_ns();
  e.arg0_key = "value";
  e.arg0 = value;
  instance().push(e);
}

}  // namespace evedge::obs
