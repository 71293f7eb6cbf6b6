#include "check/crash.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/rng.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#define GH_CRASH_FUZZER_POSIX 1
#endif

namespace greenhetero::check {

namespace {

#ifdef GH_CRASH_FUZZER_POSIX

/// One fully-derived crash scenario (all from (seed, run index)).
struct CrashScenario {
  /// The subcommand and its scenario flags, e.g. {"simulate", "--days",
  /// "3"}; the outputs and checkpoint flags are appended per run.
  std::vector<std::string> args;
  int kills = 1;
};

CrashScenario derive_scenario(std::uint64_t seed, int run_index,
                              int max_kills) {
  Rng rng = Rng{seed}.fork(static_cast<std::uint64_t>(run_index) + 1);
  CrashScenario s;
  if (rng.bernoulli(0.25)) {
    s.args = {"simulate", "--days", std::to_string(rng.uniform_int(2, 5))};
  } else {
    const int racks = rng.uniform_int(2, 4);
    const int hours = rng.uniform_int(48, 120);
    const int threads = rng.bernoulli(0.5) ? 4 : 1;
    const bool proportional = rng.bernoulli(0.75);
    s.args = {"fleet", "--racks", std::to_string(racks),
              "--hours", std::to_string(hours),
              "--threads", std::to_string(threads),
              "--mode", proportional ? "proportional" : "static",
              "--rollup-window", "60"};
  }
  s.kills = rng.uniform_int(1, std::max(1, max_kills));
  return s;
}

std::vector<std::string> child_argv(const CrashFuzzOptions& options,
                                    const CrashScenario& s,
                                    const std::filesystem::path& dir,
                                    bool resume) {
  std::vector<std::string> argv{options.binary};
  argv.insert(argv.end(), s.args.begin(), s.args.end());
  argv.insert(argv.end(), {
      "--trace-out", (dir / "trace.jsonl").string(),
      "--rollup-out", (dir / "rollup.jsonl").string(),
      "--metrics-out", (dir / "metrics.prom").string(),
      "--checkpoint-dir", (dir / "ckpt").string(),
      "--checkpoint-every", "1",
  });
  if (resume) {
    argv.push_back("--resume");
    argv.push_back((dir / "ckpt").string());
  }
  return argv;
}

/// fork + execv with stdout/stderr appended to `log_path`.  Returns the
/// child pid; throws when the fork itself fails (exec failures surface as
/// exit code 127 through waitpid).
pid_t spawn(const std::vector<std::string>& argv,
            const std::filesystem::path& log_path) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("crash fuzzer: fork failed");
  }
  if (pid == 0) {
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                          0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  return pid;
}

/// Wait for `pid`; returns the exit code, or -signal when it died on one.
int wait_child(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      throw std::runtime_error("crash fuzzer: waitpid failed");
    }
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -1;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("crash fuzzer: cannot read " + path.string());
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Drop the wall-clock-dependent series (latency histograms and the sink's
/// backpressure gauges) — everything else must match exactly.
std::string filter_metrics(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("_ns") != std::string::npos) continue;
    if (line.find("gh_trace_stalls") != std::string::npos) continue;
    if (line.find("gh_trace_queue_depth") != std::string::npos) continue;
    if (line.find("gh_trace_queue_residency") != std::string::npos) continue;
    if (line.find("gh_rack_epochs_per_sec") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// Compare one output file between the reference and crash directories;
/// returns a failure description or empty when identical.
std::string compare_file(const std::filesystem::path& ref_dir,
                         const std::filesystem::path& crash_dir,
                         const std::string& name, bool metrics) {
  std::string ref = read_file(ref_dir / name);
  std::string got = read_file(crash_dir / name);
  if (metrics) {
    ref = filter_metrics(ref);
    got = filter_metrics(got);
  }
  if (ref == got) return {};
  std::size_t at = 0;
  while (at < ref.size() && at < got.size() && ref[at] == got[at]) ++at;
  return name + " diverges at byte " + std::to_string(at) + " (" +
         std::to_string(ref.size()) + " vs " + std::to_string(got.size()) +
         " bytes)";
}

#endif  // GH_CRASH_FUZZER_POSIX

}  // namespace

#ifdef GH_CRASH_FUZZER_POSIX

CrashFuzzReport run_crash_fuzzer(const CrashFuzzOptions& options) {
  if (options.binary.empty() ||
      !std::filesystem::exists(options.binary)) {
    throw std::runtime_error("crash fuzzer: binary not found: " +
                             options.binary);
  }
  const bool made_work_dir =
      std::filesystem::create_directories(options.work_dir);

  CrashFuzzReport report;
  for (int run = 0; run < options.runs; ++run) {
    const CrashScenario scenario =
        derive_scenario(options.seed, run, options.max_kills);
    Rng kill_rng =
        Rng{options.seed}.fork(static_cast<std::uint64_t>(run) + 1000);
    const std::filesystem::path run_dir =
        options.work_dir / ("run-" + std::to_string(run));
    const std::filesystem::path ref_dir = run_dir / "ref";
    const std::filesystem::path crash_dir = run_dir / "crash";
    std::filesystem::remove_all(run_dir);
    std::filesystem::create_directories(ref_dir);
    std::filesystem::create_directories(crash_dir);
    if (options.log) {
      *options.log << "crash run " << run << ":";
      for (const std::string& arg : scenario.args) *options.log << ' ' << arg;
      *options.log << ", up to " << scenario.kills << " kill(s)\n"
                   << std::flush;
    }

    ++report.runs_executed;
    const auto fail = [&](const std::string& what) {
      ++report.runs_failed;
      report.failures.push_back("run " + std::to_string(run) + ": " + what);
      if (options.log) {
        *options.log << "crash run " << run << ": FAILED: " << what << "\n"
                     << std::flush;
      }
    };

    // Reference: uninterrupted, same flags (checkpointing on) so the only
    // difference the crash side adds is the kills and --resume.
    {
      const pid_t pid = spawn(child_argv(options, scenario, ref_dir, false),
                              ref_dir / "child.log");
      const int code = wait_child(pid);
      if (code != 0) {
        fail("reference run exited with " + std::to_string(code));
        continue;
      }
    }

    // Crash side: kill, resume, repeat; then one final run to completion.
    bool harness_ok = true;
    int kills_left = scenario.kills;
    bool first = true;
    while (true) {
      const pid_t pid =
          spawn(child_argv(options, scenario, crash_dir, !first),
                crash_dir / "child.log");
      if (!first) ++report.resumes;
      first = false;
      if (kills_left > 0) {
        --kills_left;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kill_rng.uniform_int(25, 250)));
        ::kill(pid, SIGKILL);
        const int code = wait_child(pid);
        if (code == -SIGKILL) {
          ++report.kills_delivered;
          continue;  // landed mid-run; resume next iteration
        }
        if (code == 0) continue;  // finished before the kill; resume anyway
        fail("crashed child exited with " + std::to_string(code));
        harness_ok = false;
        break;
      }
      const int code = wait_child(pid);
      if (code != 0) {
        fail("resumed run exited with " + std::to_string(code));
        harness_ok = false;
      }
      break;
    }
    if (!harness_ok) continue;

    std::string what = compare_file(ref_dir, crash_dir, "trace.jsonl", false);
    if (what.empty()) {
      what = compare_file(ref_dir, crash_dir, "rollup.jsonl", false);
    }
    if (what.empty()) {
      what = compare_file(ref_dir, crash_dir, "metrics.prom", true);
    }
    if (!what.empty()) {
      fail(what);
      continue;
    }
    if (options.log) {
      *options.log << "crash run " << run << ": ok (" << report.kills_delivered
                   << " kill(s) so far)\n"
                   << std::flush;
    }
    std::filesystem::remove_all(run_dir);  // keep failures, drop clean runs
  }
  // A clean run leaves no trace of a work directory it made.
  std::error_code ec;
  if (made_work_dir && std::filesystem::is_empty(options.work_dir, ec)) {
    std::filesystem::remove(options.work_dir, ec);
  }
  return report;
}

#else  // !GH_CRASH_FUZZER_POSIX

CrashFuzzReport run_crash_fuzzer(const CrashFuzzOptions& options) {
  CrashFuzzReport report;
  if (options.log) {
    *options.log << "crash fuzzer: unsupported on this platform (needs "
                    "fork/SIGKILL)\n";
  }
  return report;
}

#endif

}  // namespace greenhetero::check
