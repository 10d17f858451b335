// Host timing helpers, the span tracer, and the per-layer metric list.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "perfbench/bench.h"

namespace vdb::perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisSince(Clock::time_point start) {
  return 1e3 * SecondsSince(start);
}

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  size_t index = static_cast<size_t>(rank);
  if (static_cast<double>(index) == rank && index > 0) --index;
  return values[std::min(index, values.size() - 1)];
}

// ---------------------------------------------------------------------------
// Tracing

int64_t TraceBuffer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int32_t TraceBuffer::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void TraceBuffer::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

TraceBuffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>(epoch_));
  return buffers_.back().get();
}

uint64_t Tracer::NextOp() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_op_++;
}

TraceSummary Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  TraceSummary summary;
  for (const std::unique_ptr<TraceBuffer>& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans();
    // Children of one span ran on this thread inside it, one after the
    // other, so their summed durations are the part of it they cover.
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double total_ms = 1e-6 * static_cast<double>(span.end_ns -
                                                         span.start_ns);
      const double self_ms =
          total_ms - 1e-6 * static_cast<double>(child_ns[i]);
      int32_t root = static_cast<int32_t>(i);
      while (spans[static_cast<size_t>(root)].parent >= 0) {
        root = spans[static_cast<size_t>(root)].parent;
      }
      const std::string kind = spans[static_cast<size_t>(root)].name;
      LayerTime& time =
          span.parent < 0 ? summary.ops[kind] : summary.layers[span.name];
      ++time.spans;
      time.total_ms += total_ms;
      time.self_ms += self_ms;
      time.durations_ms.push_back(total_ms);
      if (span.parent >= 0) summary.layer_self_ms[kind] += self_ms;
    }
  }
  return summary;
}

Status Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  for (size_t b = 0; b < buffers_.size(); ++b) {
    const std::vector<Span>& spans = buffers_[b]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%zu,\"parent\":%d,\"op\":%llu,"
                   "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   b, i, s.parent, static_cast<unsigned long long>(s.op),
                   s.name, 1e-3 * static_cast<double>(s.start_ns),
                   1e-3 * static_cast<double>(s.end_ns));
    }
  }
  if (std::fclose(f) != 0) return Status::IOError("short write to " + path);
  return Status::OK();
}

double TraceSummary::MeanMs(const std::string& layer) const {
  auto it = layers.find(layer);
  if (it == layers.end() || it->second.spans == 0) return 0.0;
  return it->second.total_ms / static_cast<double>(it->second.spans);
}

double TraceSummary::MedianMs(const std::string& layer) const {
  auto it = layers.find(layer);
  return it == layers.end() ? 0.0 : Median(it->second.durations_ms);
}

double TraceSummary::Coverage(const std::string& op_kind) const {
  auto op = ops.find(op_kind);
  auto self = layer_self_ms.find(op_kind);
  if (op == ops.end() || op->second.total_ms <= 0.0) return 0.0;
  const double layer_ms = self == layer_self_ms.end() ? 0.0 : self->second;
  return layer_ms / op->second.total_ms;
}

// ---------------------------------------------------------------------------
// Metrics

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

void ZeroLayerMetrics(MetricSet* out) {
  static const char* const kLayers[][2] = {
      {"sql.parse_us", "us"},
      {"plan.bind_us", "us"},
      {"optimizer.optimize_us", "us"},
      {"calib.lookup_us", "us"},
      {"calib.grid_s", "s"},
      {"core.search_ms", "ms"},
      {"core.search_1t_ms", "ms"},
      {"core.probes", "count"},
      {"core.cache_hit_ratio", "ratio"},
      {"core.probe_ms", "ms"},
      {"util.cpu_busy_cores", "cores"},
      {"util.pool_queue_wait_ms", "ms"},
      {"exec.host_ms", "ms"},
      {"exec.scan_rows_per_s", "rows/s"},
      {"exec.morsels", "count"},
      {"exec.spill_mb", "MB"},
      {"storage.hit_rate", "ratio"},
      {"storage.pages_read", "count"},
      {"storage.pruned_share", "ratio"},
      {"server.queue_ms", "ms"},
      {"server.host_ms", "ms"},
      {"server.transport_ms", "ms"},
      {"server.budget_abort_share", "ratio"},
      {"server.neighbor_ops_per_s", "1/s"},
      {"sim.elapsed_s", "s"},
      {"sim.charge_mismatches", "count"},
      {"obs.trace_overhead", "ratio"},
  };
  for (const auto& layer : kLayers) out->Set(layer[0], 0.0, layer[1]);
}

}  // namespace vdb::perfbench
