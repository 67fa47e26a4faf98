// perfbench: the path-query benchmark program.
//
//   perfbench --workload hit_view|miss_answer|fault_churn --seed N
//             --seconds S --trace 0|1 [--commit REV] [--out DIR]
//
// --trace 0 sets the workload up kSetupReps times (setup_s is the median),
// runs its closed loop for S seconds, verifies the seeded answer sample and
// reports the end-to-end metrics. --trace 1 runs the same closed loop for
// S/2 seconds untraced and up to S/2 seconds with spans around every layer
// call, then the per-layer ladder, writes every span to DIR, and reports
// the per-layer metrics. Both print a readable report and end with one JSON
// line: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The exit code is 0 only when every answer was correct.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "perfbench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

thread_local std::uint64_t t_allocations = 0;

}  // namespace

// Counting replacements for the global allocation functions (the array and
// nothrow forms forward to these): construct.heap_allocs_per_call reads the
// per-thread count.
void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t thread_allocations() noexcept { return t_allocations; }

namespace {

constexpr int kSetupReps = 5;
constexpr std::size_t kMaxCallers = 4;
constexpr std::size_t kTraceSpansPerCaller = std::size_t{1} << 16;
constexpr std::size_t kLadderSpans = std::size_t{1} << 16;
constexpr std::size_t kLadderThreadSpans = std::size_t{1} << 12;

struct Args {
  WorkloadKind workload = WorkloadKind::kHitView;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
  std::string out = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // readable report only
};

[[nodiscard]] const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

[[nodiscard]] std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

[[nodiscard]] std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

[[nodiscard]] double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

[[nodiscard]] double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + std::string{flag};
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto kind = parse_workload(value);
        if (!kind) {
          error = "unknown workload '" + value + "'";
          return false;
        }
        args.workload = *kind;
        have_workload = true;
      } else if (flag == "--seed") {
        std::size_t used = 0;
        args.seed = std::stoull(value, &used);
        have_seed = used == value.size();
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--out") {
        args.out = value;
      } else {
        error = "unknown option " + std::string{flag};
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value '" + value + "' for " + std::string{flag};
      return false;
    }
  }
  if (!have_workload || !have_seed) {
    error = "--workload and --seed are required";
  } else if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    error = "--seconds must be in (0, 600]";
  } else if (args.trace < 0) {
    error = "--trace must be 0 or 1";
  } else {
    return true;
  }
  return false;
}

void print_meta(const Args& args, std::size_t callers,
                const std::vector<std::pair<std::string, std::string>>& extra) {
  std::string meta = "{\"workload\": " + json_string(workload_name(args.workload)) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + json_number(args.seconds) +
                     ", \"trace\": " + std::to_string(args.trace) +
                     ", \"callers\": " + std::to_string(callers) +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                     ", \"compiler\": " + json_string(compiler()) +
                     ", \"commit\": " + json_string(args.commit);
  for (const auto& [key, value] : extra) {
    meta += ", " + json_string(key) + ": " + value;
  }
  std::printf("# meta %s}\n", meta.c_str());
}

// The readable report, then the result line the harness parses. fail_frac
// is read off that line's failed / attempted, so it is printed here only.
void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %18.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("  %-32s %18.6f %-8s (%llu of %llu)\n", "fail_frac",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              "frac", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i == 0 ? "" : ", ") + json_string(m.name) +
            ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
}

void report_failures(const VerifyResult& check) {
  for (const std::string& reason : check.reasons) {
    std::fprintf(stderr, "perfbench: verification failed: %s\n",
                 reason.c_str());
  }
}

std::string count_note(std::uint64_t n) { return "(n=" + std::to_string(n) + ")"; }

// Median over the phase's slices of f(slice).
template <typename F>
double slice_median(const PhaseResult& phase, F&& f) {
  std::vector<double> values;
  for (const LatencyBins& slice : phase.slices) values.push_back(f(slice));
  return median(std::move(values));
}

int run_end_to_end(const Args& args, std::size_t callers) {
  std::vector<double> setup_seconds;
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    workload.reset();  // one set-up alive at a time
    const std::uint64_t start = now_ns();
    workload = make_workload(args.workload, args.seed, callers);
    setup_seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  const PhaseResult phase = workload->run(args.seconds, true, nullptr);
  const VerifyResult check = workload->verify();
  report_failures(check);

  const std::uint64_t failed = phase.not_ok + check.failed;
  const std::uint64_t samples = phase.latency.count();
  std::string setups = "[";
  for (const double s : setup_seconds) {
    setups += (setups.size() > 1 ? ", " : "") + json_number(s);
  }
  print_meta(args, callers,
             {{"setup_seconds", setups + "]"},
              {"latency_samples", std::to_string(samples)},
              {"prefix_answers", std::to_string(phase.prefix_answers)},
              {"verified_answers", std::to_string(check.checked)},
              {"digest_all", json_string(std::to_string(phase.digest_all))},
              {"digest_prefix",
               json_string(std::to_string(phase.digest_prefix))}});
  std::vector<double> slice_qps;
  std::printf("# slice qps:");
  for (const LatencyBins& slice : phase.slices) {
    slice_qps.push_back(
        ratio(static_cast<double>(slice.count()), phase.slice_seconds));
    std::printf(" %.0f", slice_qps.back());
  }
  std::printf("\n");
  const std::string per_slice =
      "(median of " + std::to_string(phase.slices.size()) + " slices; " +
      std::to_string(samples) + " queries in " +
      json_number(phase.wall_seconds) + " s)";
  const std::vector<Metric> metrics{
      {"qps", median(slice_qps), "1/s", per_slice},
      {"latency_p50_us", slice_median(phase, [](const LatencyBins& slice) {
         return slice.percentile_ns(0.50) / 1e3;
       }),
       "us", per_slice},
      {"latency_p99_us", slice_median(phase, [](const LatencyBins& slice) {
         return slice.percentile_ns(0.99) / 1e3;
       }),
       "us", per_slice},
      {"delivered_frac",
       ratio(static_cast<double>(phase.prefix_delivered),
             static_cast<double>(phase.prefix_answers)),
       "frac", count_note(phase.prefix_answers)},
      {"path_len_mean",
       ratio(static_cast<double>(phase.prefix_hops),
             static_cast<double>(phase.prefix_delivered)),
       "hops", count_note(phase.prefix_delivered)},
      {"setup_s", median(setup_seconds), "s",
       "(median of " + std::to_string(kSetupReps) + ")"},
      {"peak_rss_mb", peak_rss_mb(), "MB", ""},
  };
  print_result(phase.attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

[[nodiscard]] std::uint64_t counter(const hhc::obs::MetricsSnapshot& snapshot,
                                    std::string_view name) {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return value;
  }
  return 0;
}

int run_traced(const Args& args, std::size_t callers) {
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, callers);
  hhc::query::PathService& service = workload->service();
  const hhc::query::ServiceStats before = service.stats();
  const PhaseResult plain = workload->run(args.seconds / 2, true, nullptr);
  const VerifyResult check = workload->verify();
  report_failures(check);
  std::vector<SpanLog> logs;
  logs.reserve(callers);
  for (std::size_t c = 0; c < callers; ++c) {
    logs.emplace_back(kTraceSpansPerCaller);
  }
  const PhaseResult traced = workload->run(args.seconds / 2, false, &logs);
  const hhc::query::ServiceStats after = service.stats();

  SpanLog ladder_log{kLadderSpans};
  std::vector<SpanLog> ladder_threads;
  ladder_threads.reserve(callers);
  for (std::size_t c = 0; c < callers; ++c) {
    ladder_threads.emplace_back(kLadderThreadSpans);
  }
  const LadderResult ladder =
      run_ladder(args.seed, callers, ladder_log, ladder_threads);

  std::vector<const SpanLog*> workload_logs;
  for (const SpanLog& log : logs) workload_logs.push_back(&log);
  std::vector<const SpanLog*> all_logs = workload_logs;
  all_logs.push_back(&ladder_log);
  for (const SpanLog& log : ladder_threads) all_logs.push_back(&log);
  const std::string span_path =
      args.out + "/spans-" + workload_name(args.workload) + ".csv";
  if (!write_spans(span_path, all_logs)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", span_path.c_str());
  }

  // Where one query of this workload spent its time, from its own spans.
  std::printf("# %s traced query spans (median self ns):\n",
              workload_name(args.workload));
  for (auto& [name, values] : self_times(workload_logs)) {
    const std::size_t n = values.size();
    std::printf("#   %-28s %12.1f (n=%zu)\n", name.c_str(),
                median(std::move(values)), n);
  }

  const auto ns = [&](const char* name) {
    const auto it = ladder.self_ns.find(name);
    return it == ladder.self_ns.end() ? 0.0 : it->second;
  };
  const double admit = ns("gate.admit_release");
  const double admit_bounded = ns("gate.admit_release_bounded");
  const double view = ns("query.answer_view");
  const double walk_ns = ns("handle.relabel_walk");
  const double answer = ns("query.answer");
  const double scan = ns("fault.route_scan");

  // The layers one query of this workload passes through, summed, against
  // its untraced end-to-end median.
  double layer_sum = 0.0;
  switch (args.workload) {
    case WorkloadKind::kHitView: layer_sum = view + walk_ns; break;
    case WorkloadKind::kMissAnswer: layer_sum = answer; break;
    case WorkloadKind::kFaultChurn:
      layer_sum = admit_bounded + ladder.fault_route_median_ns;
      break;
  }
  const double e2e_p50 = plain.latency.percentile_ns(0.50);

  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double hits = delta(after.cache.hits, before.cache.hits);
  const double misses = delta(after.cache.misses, before.cache.misses);
  const double queries = delta(after.queries, before.queries);
  const double calls = delta(counter(after.metrics, "construct.calls"),
                             counter(before.metrics, "construct.calls"));
  const double routes = static_cast<double>(ladder.fault_routes);
  const auto threads = static_cast<double>(callers);

  const std::vector<Metric> metrics{
      {"query.admit_release_ns", admit, "ns", "inert gate"},
      {"query.admit_release_bounded_ns", admit_bounded, "ns",
       "max_in_flight = callers"},
      {"query.view_self_ns", ns("query.view_over_lookup") - admit, "ns",
       "answer_view - lookup hit - admit/release, paired"},
      {"query.answer_self_ns", ns("query.answer_over_lookup") - admit, "ns",
       "answer - lookup miss - materialize - admit/release, paired"},
      {"query.scaling_4v1", threads * ratio(view, ns("query.answer_view_4t")),
       "x", std::to_string(callers) + " callers vs 1, answer_view hits"},
      {"cache.lookup_hit_ns", ns("cache.lookup_hit"), "ns", ""},
      {"cache.lookup_hit_4t_ns", ns("cache.lookup_hit_4t"), "ns",
       "per call, all callers at once"},
      {"cache.lookup_miss_ns", ns("cache.lookup_miss"), "ns", "16 x 64 cache"},
      {"cache.publish_ns", ns("cache.lookup_over_construct"), "ns",
       "lookup miss - construction, paired"},
      {"cache.hit_rate", ratio(hits, hits + misses), "frac",
       "this workload, both phases"},
      {"cache.lookups", hits + misses, "count", "base of cache.hit_rate"},
      {"cache.misses", misses, "count", "base of construct.calls_per_miss"},
      {"cache.evictions_per_query",
       ratio(delta(after.cache.evictions, before.cache.evictions), queries),
       "1/query", count_note(static_cast<std::uint64_t>(queries))},
      {"construct.total_ns", ns("construct.total"), "ns",
       "node_disjoint_paths, warm scratch"},
      {"construct.route_select_ns", ns("construct.route_select"), "ns", ""},
      {"construct.calls_per_miss", ratio(calls, misses), "1/miss",
       "duplicate constructions by racing callers"},
      {"construct.heap_allocs_per_call", ladder.construct_heap_allocs,
       "1/call", ""},
      {"graph.fan_solve_ns", ns("graph.fan_solve"), "ns",
       "exit fan + entry fan"},
      {"handle.relabel_walk_ns", walk_ns, "ns", "read every node"},
      {"handle.materialize_ns", ns("handle.materialize"), "ns", ""},
      {"fault.route_scan_ns", scan, "ns", "routes served by the container"},
      {"fault.route_fallback_ns", ns("fault.route_fallback") - scan, "ns",
       "survivor BFS beyond the scan"},
      {"fault.edge_check_ns", ns("fault.edge_check"), "ns", ""},
      {"fault.breaker_check_ns", ns("fault.breaker_check"), "ns", ""},
      {"fault.fallback_frac",
       ratio(static_cast<double>(ladder.fault_fallback), routes), "frac",
       count_note(ladder.fault_routes)},
      {"fault.guaranteed_frac",
       ratio(static_cast<double>(ladder.fault_guaranteed), routes), "frac",
       count_note(ladder.fault_routes)},
      {"fault.disconnected_frac",
       ratio(static_cast<double>(ladder.fault_disconnected), routes), "frac",
       count_note(ladder.fault_routes)},
      {"fault.routes", routes, "count", "fault_churn's first two epochs"},
      {"obs.hist_record_ns", ns("obs.hist_record"), "ns", ""},
      {"obs.hist_record_4t_ns", ns("obs.hist_record_4t"), "ns",
       "one histogram, all callers"},
      {"ladder.unattributed_frac", 1.0 - ratio(layer_sum, e2e_p50), "frac",
       "layer sum " + json_number(layer_sum) + " ns vs p50 " +
           json_number(e2e_p50) + " ns"},
      {"trace.overhead_frac",
       ratio(traced.latency.percentile_ns(0.50), e2e_p50) - 1.0, "frac",
       "traced vs untraced caller p50"},
  };
  print_meta(args, callers,
             {{"spans_file", json_string(span_path)},
              {"verified_answers", std::to_string(check.checked)},
              {"traced_queries", std::to_string(traced.attempted)}});
  const std::uint64_t failed = plain.not_ok + traced.not_ok + check.failed;
  print_result(plain.attempted + traced.attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::parse_args(argc, argv, args, error)) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "hit_view|miss_answer|fault_churn --seed N --seconds S "
                 "--trace 0|1 [--commit REV] [--out DIR]\n",
                 error.c_str());
    return 2;
  }
  const std::size_t callers = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, perfbench::kMaxCallers);
  try {
    return args.trace == 1 ? perfbench::run_traced(args, callers)
                           : perfbench::run_end_to_end(args, callers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
