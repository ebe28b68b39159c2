#include "spans.h"

#include <cstdio>
#include <deque>

namespace perfbench {
namespace {

struct NameRegistry {
  std::mutex mu;
  std::deque<std::string> names;  // stable references
};

NameRegistry& registry() {
  static NameRegistry r;
  return r;
}

struct TlsTrack {
  const Tracer* owner = nullptr;
  std::uint64_t epoch = ~0ULL;
  void* track = nullptr;
};
thread_local TlsTrack tls;

}  // namespace

NameId span_name(std::string_view name) {
  NameRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < r.names.size(); ++i) {
    if (r.names[i] == name) return static_cast<NameId>(i);
  }
  r.names.emplace_back(name);
  return static_cast<NameId>(r.names.size() - 1);
}

const std::string& span_name_text(NameId id) {
  NameRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.names.at(id);
}

std::string_view span_layer(std::string_view name) {
  const std::size_t dot = name.find('.');
  return dot == std::string_view::npos ? name : name.substr(0, dot);
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::reset(bool enabled, std::size_t raw_cap) {
  std::lock_guard<std::mutex> lock(mu_);
  tracks_.clear();
  raw_cap_ = raw_cap;
  epoch_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(enabled, std::memory_order_relaxed);
  // Register the caller first: track 0 is the main track.
  tracks_.push_back(std::make_unique<Track>());
  tls = TlsTrack{this, epoch_.load(std::memory_order_relaxed),
                 tracks_.back().get()};
}

Tracer::Track& Tracer::track() {
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (tls.owner != this || tls.epoch != epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    tracks_.push_back(std::make_unique<Track>());
    tls = TlsTrack{this, epoch, tracks_.back().get()};
  }
  return *static_cast<Track*>(tls.track);
}

void Tracer::begin(NameId name, std::uint64_t root_id) {
  Track& t = track();
  if (t.stack.empty()) t.root = root_id;
  std::int32_t raw_index = -1;
  if (t.raw.size() < raw_cap_) {
    raw_index = static_cast<std::int32_t>(t.raw.size());
    const std::int32_t parent =
        t.stack.empty() ? -1 : t.stack.back().raw_index;
    t.raw.push_back(Raw{name, parent, t.root, 0, 0});
  }
  t.stack.push_back(Open{name, now_ns(), 0, raw_index});
}

void Tracer::end() {
  const std::int64_t end = now_ns();
  Track& t = track();
  if (t.stack.empty()) return;
  const Open o = t.stack.back();
  t.stack.pop_back();
  const std::int64_t dur = end - o.start;
  if (t.by_name.size() <= o.name) t.by_name.resize(o.name + 1u);
  NameStats& s = t.by_name[o.name];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - o.child_ns;
  s.durations_ns.add(static_cast<double>(dur));
  if (!t.stack.empty()) t.stack.back().child_ns += dur;
  if (o.raw_index >= 0) {
    Raw& r = t.raw[static_cast<std::size_t>(o.raw_index)];
    r.name = o.name;
    r.start = o.start;
    r.end = end;
  }
}

void Tracer::rename_top(NameId name) {
  Track& t = track();
  if (!t.stack.empty()) t.stack.back().name = name;
}

NameStats Tracer::stats(NameId name) const {
  std::lock_guard<std::mutex> lock(mu_);
  NameStats out;
  for (const auto& t : tracks_) {
    if (t->by_name.size() <= name) continue;
    const NameStats& s = t->by_name[name];
    out.count += s.count;
    out.total_ns += s.total_ns;
    out.self_ns += s.self_ns;
    out.durations_ns.merge(s.durations_ns);
  }
  return out;
}

std::int64_t Tracer::layer_self_ns(std::string_view layer,
                                   bool main_track) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t sum = 0;
  for (std::size_t ti = 0; ti < tracks_.size(); ++ti) {
    if ((ti == 0) != main_track) continue;
    const Track& t = *tracks_[ti];
    for (std::size_t n = 0; n < t.by_name.size(); ++n) {
      if (t.by_name[n].count == 0) continue;
      if (span_layer(span_name_text(static_cast<NameId>(n))) == layer) {
        sum += t.by_name[n].self_ns;
      }
    }
  }
  return sum;
}

std::vector<std::string> Tracer::layers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& t : tracks_) {
    for (std::size_t n = 0; n < t->by_name.size(); ++n) {
      if (t->by_name[n].count == 0) continue;
      const std::string layer(
          span_layer(span_name_text(static_cast<NameId>(n))));
      bool seen = false;
      for (const std::string& l : out) seen = seen || l == layer;
      if (!seen) out.push_back(layer);
    }
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "track,index,parent,root,name,start_ns,end_ns\n");
  for (std::size_t ti = 0; ti < tracks_.size(); ++ti) {
    const Track& t = *tracks_[ti];
    for (std::size_t i = 0; i < t.raw.size(); ++i) {
      const Raw& r = t.raw[i];
      if (r.end == 0) continue;  // still open when the run ended
      std::fprintf(f, "%zu,%zu,%d,%llu,%s,%lld,%lld\n", ti, i, r.parent,
                   static_cast<unsigned long long>(r.root),
                   span_name_text(r.name).c_str(),
                   static_cast<long long>(r.start),
                   static_cast<long long>(r.end));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
