#include "campaign/isolate.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "campaign/journal.hpp"
#include "campaign/jsonio.hpp"
#include "campaign/spec.hpp"

#if !defined(_WIN32)
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace gttsch::campaign {
namespace {

using jsonio::Cursor;
using jsonio::escape;
using jsonio::parse_object;

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

JobOutcome failed_outcome(const std::string& detail) {
  JobOutcome out;
  out.status = JobStatus::kFailed;
  out.detail = detail;
  return out;
}

/// Test-only chaos hook: GTTSCH_CHAOS_POINT=<label>:<crash|hang> makes the
/// child for that grid point die (SIGABRT) or livelock — exercised by the
/// CI chaos smoke and the fault CLI test. The label is everything before
/// the LAST colon, so labels containing ':' still match.
void apply_chaos_hook(const std::string& label) {
  const char* env = std::getenv("GTTSCH_CHAOS_POINT");
  if (env == nullptr) return;
  const std::string spec = env;
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || spec.substr(0, colon) != label) return;
  const std::string mode = spec.substr(colon + 1);
  if (mode == "crash") std::abort();
  if (mode == "hang") {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}

}  // namespace

std::string render_job_envelope(const JobEnvelope& e) {
  std::string out = "{\"point_index\": " + std::to_string(e.point_index) +
                    ", \"seed_index\": " + std::to_string(e.seed_index) +
                    ", \"label\": \"" + escape(e.label) + "\", \"config\": ";
  render_config_exact(e.config, &out);
  out += '}';
  return out;
}

bool parse_job_envelope(const std::string& line, JobEnvelope* out,
                        std::string* error) {
  *out = JobEnvelope{};
  Cursor cur(line);
  const bool ok = parse_object(cur, [&](const std::string& key) {
    if (key == "point_index") {
      std::uint64_t v = 0;
      if (!cur.parse_u64(&v)) return false;
      out->point_index = static_cast<std::size_t>(v);
      return true;
    }
    if (key == "seed_index") {
      std::uint64_t v = 0;
      if (!cur.parse_u64(&v)) return false;
      out->seed_index = static_cast<std::size_t>(v);
      return true;
    }
    if (key == "label") return cur.parse_string(&out->label);
    if (key == "config") return parse_config_exact(cur, &out->config);
    return cur.skip_value();
  });
  if (!ok || !cur.at_end()) {
    return fail(error, "malformed job envelope: " +
                           (line.size() > 80 ? line.substr(0, 80) + "..." : line));
  }
  return true;
}

int run_job_protocol(std::FILE* in, std::FILE* out) {
  std::string line;
  for (int c = std::fgetc(in); c != EOF && c != '\n'; c = std::fgetc(in)) {
    line += static_cast<char>(c);
  }
  JobEnvelope envelope;
  std::string error;
  if (!parse_job_envelope(line, &envelope, &error)) {
    std::fprintf(stderr, "run-job: %s\n", error.c_str());
    return 2;
  }
  apply_chaos_hook(envelope.label);

  JournalRecord record;
  record.point_index = envelope.point_index;
  record.seed_index = envelope.seed_index;
  record.seed = envelope.config.seed;
  record.label = envelope.label;
  record.result = run_scenario(envelope.config);

  const std::string rendered = render_journal_line(record);
  if (std::fputs(rendered.c_str(), out) == EOF || std::fputc('\n', out) == EOF) {
    return 1;
  }
  std::fflush(out);
  return std::ferror(out) != 0 ? 1 : 0;
}

#if defined(_WIN32)

JobOutcome run_job_isolated(const std::string&, double, const JobEnvelope&) {
  return failed_outcome("--isolate is not supported on this platform");
}

#else

#if defined(__linux__) || defined(__FreeBSD__) || defined(__NetBSD__) || \
    defined(__OpenBSD__)
#define GTTSCH_HAVE_PIPE2 1
#else
#define GTTSCH_HAVE_PIPE2 0
#endif

namespace {

// The protocol pipes must be O_CLOEXEC: worker threads run
// run_job_isolated concurrently, and a sibling job's fork() landing
// between our pipe() and the parent-side close() below hands the
// sibling's child copies of these fds that survive its exec for that
// child's whole lifetime. A leaked from_child[1] write end means this
// job's parent never sees EOF after its own child exits — a hung sibling
// then blocks a finished healthy job forever (no --job-timeout) or gets
// it misclassified kTimeout. dup2 in the child clears CLOEXEC on the
// stdio copies, so the pipes still cross the exec as fds 0/1.
bool pipe_cloexec(int fds[2]) {
#if GTTSCH_HAVE_PIPE2
  return ::pipe2(fds, O_CLOEXEC) == 0;
#else
  if (::pipe(fds) != 0) return false;
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
  return true;
#endif
}

#if !GTTSCH_HAVE_PIPE2
// Without atomic pipe2, FD_CLOEXEC lands an instant after the fds exist;
// serializing every pipe+fork sequence closes that last window too.
std::mutex g_spawn_mutex;
#endif

}  // namespace

JobOutcome run_job_isolated(const std::string& exec_path, double timeout_s,
                            const JobEnvelope& envelope) {
  // A child dying before it reads the whole envelope turns our write into
  // SIGPIPE; classify that via waitpid instead of dying with it.
  static std::once_flag sigpipe_once;
  std::call_once(sigpipe_once, [] { ::signal(SIGPIPE, SIG_IGN); });

#if !GTTSCH_HAVE_PIPE2
  std::unique_lock<std::mutex> spawn_lock(g_spawn_mutex);
#endif
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (!pipe_cloexec(to_child)) {
    return failed_outcome(std::string("pipe() failed: ") + std::strerror(errno));
  }
  if (!pipe_cloexec(from_child)) {
    const std::string detail = std::strerror(errno);
    ::close(to_child[0]);
    ::close(to_child[1]);
    return failed_outcome("pipe() failed: " + detail);
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    const std::string detail = std::strerror(errno);
    for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]})
      ::close(fd);
    return failed_outcome("fork() failed: " + detail);
  }
  if (pid == 0) {
    // Child: protocol pipes become stdin/stdout, then re-enter the tool.
    // fork() in a multithreaded parent leaves only this thread alive, so
    // nothing but async-signal-safe calls until exec.
    //
    // Own process group first: a terminal Ctrl-C delivers SIGINT to the
    // whole foreground group, which would kill every in-flight child and
    // journal them quarantined — contradicting the drain-on-first-SIGINT
    // contract (and a later plain --resume would skip them). The timeout
    // watchdog kills by pid, so leaving the group costs nothing.
    ::setpgid(0, 0);
    ::dup2(to_child[0], 0);
    ::dup2(from_child[1], 1);
    for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]})
      ::close(fd);
    ::execl(exec_path.c_str(), exec_path.c_str(), "run-job",
            static_cast<char*>(nullptr));
    _exit(127);  // exec failed; parent reports kFailed with exit_code 127
  }
#if !GTTSCH_HAVE_PIPE2
  spawn_lock.unlock();  // fds are CLOEXEC now; sibling forks are harmless
#endif
  ::close(to_child[0]);
  ::close(from_child[1]);

  {
    const std::string line = render_job_envelope(envelope) + "\n";
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::write(to_child[1], line.data() + off, line.size() - off);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EPIPE etc.: the child died early; waitpid classifies it
    }
  }
  ::close(to_child[1]);

  // Drain the child's stdout under the wall-clock deadline.
  using Clock = std::chrono::steady_clock;
  const bool bounded = timeout_s > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(bounded ? timeout_s : 0));
  std::string output;
  bool timed_out = false;
  char buf[4096];
  for (;;) {
    int wait_ms = -1;
    if (bounded) {
      const long long left_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                Clock::now())
              .count();
      if (left_ms <= 0) {
        timed_out = true;
        break;
      }
      wait_ms = static_cast<int>(std::min<long long>(left_ms, 60'000));
    }
    struct pollfd pfd;
    pfd.fd = from_child[0];
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int polled = ::poll(&pfd, 1, wait_ms);
    if (polled < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (polled == 0) continue;  // poll timeout: re-check the deadline
    const ssize_t n = ::read(from_child[0], buf, sizeof buf);
    if (n > 0) {
      output.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF (child exited) or read error
  }
  ::close(from_child[0]);

  if (timed_out) ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  JobOutcome out;
  if (timed_out) {
    out.status = JobStatus::kTimeout;
    out.detail = "job exceeded the --job-timeout wall-clock budget";
    return out;
  }
  if (WIFSIGNALED(status)) {
    out.status = JobStatus::kCrashed;
    out.term_signal = WTERMSIG(status);
    out.detail = "child killed by signal " + std::to_string(out.term_signal);
    return out;
  }
  const int exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  if (exit_code != 0) {
    out.status = JobStatus::kFailed;
    out.exit_code = exit_code;
    out.detail = "child exited with code " + std::to_string(exit_code);
    return out;
  }

  // The child's stdout carries exactly one journal-record line; take the
  // last non-empty line defensively.
  while (!output.empty() && (output.back() == '\n' || output.back() == '\r')) {
    output.pop_back();
  }
  const std::size_t nl = output.rfind('\n');
  const std::string line =
      nl == std::string::npos ? output : output.substr(nl + 1);
  JournalRecord record;
  std::string error;
  if (line.empty() || !parse_journal_line(line, &record, &error)) {
    return failed_outcome("child exited 0 but produced no parsable result" +
                          (error.empty() ? "" : ": " + error));
  }
  if (record.point_index != envelope.point_index ||
      record.seed_index != envelope.seed_index) {
    return failed_outcome("child result identifies a different job");
  }
  out.result = record.result;
  return out;
}

#endif  // !_WIN32

}  // namespace gttsch::campaign
