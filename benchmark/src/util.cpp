#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

extern char** environ;

namespace bench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Outcome::fail(const std::string& what, std::uint64_t failures) {
  failed += failures;
  errors.push_back(what);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void check_golden(const Options& opt, const std::string& key,
                  const std::string& value, Outcome& out) {
  std::fprintf(stderr, "digest %s = %s (seed %llu)\n", key.c_str(),
               value.c_str(), static_cast<unsigned long long>(opt.seed));
  if (opt.seed != 42) return;
  std::optional<std::string> want;
  std::ifstream in(opt.golden);
  for (std::string k, v; !want && in >> k >> v;) {
    if (k == key) want = v;
  }
  if (!want) {
    out.fail("no recorded digest for " + key + " in " + opt.golden);
  } else if (*want != value) {
    out.fail(key + " digest " + value + " differs from the recorded " + *want);
  }
}

// --- tracing ----------------------------------------------------------------

namespace {

thread_local int t_current_span = -1;

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(const std::string& workload) {
  std::lock_guard lock(mutex_);
  enabled_ = true;
  workload_ = workload;
  epoch_ = Clock::now();
}

int Tracer::begin(const char* name, int parent) {
  const double now_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  std::lock_guard lock(mutex_);
  spans_.push_back(Rec{name, now_us, -1, parent, thread_tag()});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const double now_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_us = now_us;
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, int parent) {
  if (!enabled_) return;
  const double s = std::chrono::duration<double, std::micro>(start - epoch_).count();
  const double e = std::chrono::duration<double, std::micro>(end - epoch_).count();
  std::lock_guard lock(mutex_);
  spans_.push_back(Rec{name, s, e, parent, thread_tag()});
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Rec& r : spans_) {
    if (r.name == name && r.end_us >= 0) out.push_back((r.end_us - r.start_us) / 1e3);
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::lock_guard lock(mutex_);
  // Self time: a span's duration minus the union of its children's
  // intervals (children on pool threads may overlap each other).
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Rec& r : spans_) {
    if (r.parent >= 0 && r.end_us >= 0)
      kids[static_cast<std::size_t>(r.parent)].emplace_back(r.start_us, r.end_us);
  }
  struct Total {
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Total> totals;
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    if (r.end_us < 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = -1, hi = -1;
    for (const auto& [s, e] : iv) {
      const double cs = std::max(s, r.start_us), ce = std::min(e, r.end_us);
      if (ce <= cs) continue;
      if (cs > hi) {
        if (hi > lo) covered += hi - lo;
        lo = cs;
        hi = ce;
      } else {
        hi = std::max(hi, ce);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[i] = (r.end_us - r.start_us - covered) / 1e3;
    Total& t = totals[r.name];
    ++t.count;
    t.total_ms += (r.end_us - r.start_us) / 1e3;
    t.self_ms += self[i];
  }

  std::ofstream out(path);
  out << "{\"workload\": \"" << json_escape(workload_) << "\",\n \"layers\": {";
  bool first = true;
  for (const auto& [name, t] : totals) {
    out << (first ? "\n" : ",\n") << "  \"" << json_escape(name)
        << "\": {\"count\": " << t.count << ", \"total_ms\": " << t.total_ms
        << ", \"self_ms\": " << t.self_ms << "}";
    first = false;
  }
  out << "},\n \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
        << json_escape(r.name) << "\", \"workload\": \"" << json_escape(workload_)
        << "\", \"start_us\": " << r.start_us << ", \"end_us\": " << r.end_us
        << ", \"self_ms\": " << self[i] << ", \"parent\": " << r.parent
        << ", \"thread\": " << (r.thread % 100000) << "}";
  }
  out << "\n]}\n";
}

Span::Span(const char* name) : Span(name, t_current_span) {}

Span::Span(const char* name, int parent) {
  Tracer& t = Tracer::global();
  if (!t.enabled()) return;
  id_ = t.begin(name, parent);
  prev_ = t_current_span;
  t_current_span = id_;
}

Span::~Span() {
  if (id_ < 0) return;
  Tracer::global().end(id_);
  t_current_span = prev_;
}

// --- processes --------------------------------------------------------------

Child::Child(const std::vector<std::string>& argv, const std::string& out_path,
             const std::string& err_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int rc = posix_spawn(&pid_, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) throw std::runtime_error("cannot start " + argv[0]);
}

Child::~Child() {
  if (!reaped_ && pid_ > 0) {
    ::kill(pid_, SIGKILL);
    wait(5.0);
  }
}

bool Child::running() {
  if (reaped_) return false;
  const pid_t r = ::wait4(pid_, &status_, WNOHANG, &usage_);
  if (r == pid_) reaped_ = true;
  return !reaped_;
}

void Child::signal(int sig) {
  if (!reaped_) ::kill(pid_, sig);
}

int Child::wait(double timeout_s) {
  const auto t0 = Clock::now();
  bool killed = false;
  while (!reaped_) {
    const pid_t r = ::wait4(pid_, &status_, WNOHANG, &usage_);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
      reaped_ = true;
      break;
    }
    if (!killed && seconds_since(t0) > timeout_s) {
      ::kill(pid_, SIGKILL);
      killed = true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  if (WIFEXITED(status_)) return WEXITSTATUS(status_);
  if (WIFSIGNALED(status_)) return 128 + WTERMSIG(status_);
  return -1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t file_size(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::size_t>(st.st_size);
}

double peak_rss_mb(const rusage& u) {
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double peak_rss_mb_self() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return peak_rss_mb(u);
}

double cpu_seconds(const rusage& u) {
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double cpu_seconds_self() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return cpu_seconds(u);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace bench
