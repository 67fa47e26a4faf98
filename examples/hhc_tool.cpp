// hhc_tool — a multi-command CLI over the whole library.
//
//   hhc_tool info      --m 3
//   hhc_tool route     --m 3 --s 0 --t 2047
//   hhc_tool paths     --m 3 --s 0 --t 2047 [--dot]
//   hhc_tool faults    --m 3 --s 0 --t 2047 --count 3 --seed 1
//   hhc_tool broadcast --m 2 --root 0
//   hhc_tool dot       --m 2
//   hhc_tool trace     --m 3 --queries 200 --fault-queries 50 --out trace.json
//   hhc_tool soak      --m 2 --epochs 8 --load 256 --fault-rate 0.5 --seed 1
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "core/broadcast.hpp"
#include "core/disjoint.hpp"
#include "core/fault_model.hpp"
#include "core/io.hpp"
#include "core/local_routing.hpp"
#include "core/metrics.hpp"
#include "fault/adaptive_router.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "query/path_service.hpp"
#include "sim/soak.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace hhc;

// Every subcommand declares its options first. True when --help was given:
// the usage is printed and the subcommand runs nothing. An option the
// subcommand does not declare throws, so a typo fails loudly.
bool help_only(util::Options& opts, const std::string& summary) {
  if (opts.help_requested("hhc_tool " + summary)) return true;
  opts.reject_unknown();
  return false;
}

// The --m/--s/--t options of the single-pair subcommands.
util::Options& describe_pair(util::Options& opts) {
  return opts.describe("m", "cluster dimension (default 3)")
      .describe("s", "source node id (default 0)")
      .describe("t", "target node id (default the last node)");
}

int cmd_info(util::Options& opts) {
  opts.describe("m", "cluster dimension (default 3)");
  if (help_only(opts, "info: network parameters")) return 0;
  const auto m = static_cast<unsigned>(opts.get_int("m", 3));
  const core::HhcTopology net{m};
  std::printf("HHC(%u)\n", net.address_bits());
  std::printf("  m                     %u\n", net.m());
  std::printf("  nodes                 %llu\n",
              static_cast<unsigned long long>(net.node_count()));
  std::printf("  clusters              %llu x Q_%u\n",
              static_cast<unsigned long long>(net.cluster_count()), net.m());
  std::printf("  degree / connectivity %u\n", net.degree());
  std::printf("  diameter              %u%s\n", net.theoretical_diameter(),
              m <= 4 ? " (BFS-verified in tests)" : " (closed form)");
  std::printf("  disjoint paths/pair   %u\n", net.degree());
  return 0;
}

int cmd_route(util::Options& opts) {
  describe_pair(opts);
  if (help_only(opts, "route: constructive single path")) return 0;
  const auto m = static_cast<unsigned>(opts.get_int("m", 3));
  const core::HhcTopology net{m};
  const auto s = static_cast<core::Node>(opts.get_int("s", 0));
  const auto t = static_cast<core::Node>(
      opts.get_int("t", static_cast<std::int64_t>(net.node_count() - 1)));
  const auto path = core::route(net, s, t);
  std::printf("route (%zu hops): %s\n", path.size() - 1,
              core::format_path(net, path).c_str());
  if (m <= 4) {
    std::printf("exact shortest: %zu hops\n",
                core::bfs_shortest_path(net, s, t).size() - 1);
  }
  return 0;
}

int cmd_paths(util::Options& opts) {
  describe_pair(opts).describe("dot", "print the container as Graphviz");
  if (help_only(opts, "paths: m+1 node-disjoint paths")) return 0;
  const auto m = static_cast<unsigned>(opts.get_int("m", 3));
  const core::HhcTopology net{m};
  const auto s = static_cast<core::Node>(opts.get_int("s", 0));
  const auto t = static_cast<core::Node>(
      opts.get_int("t", static_cast<std::int64_t>(net.node_count() - 1)));
  const auto container = core::node_disjoint_paths(net, s, t);
  std::string why;
  if (!core::verify_disjoint_path_set(net, container, s, t, &why)) {
    std::fprintf(stderr, "internal verification failed: %s\n", why.c_str());
    return 1;
  }
  if (opts.get_bool("dot", false)) {
    std::fputs(core::container_to_dot(net, container, s, t).c_str(), stdout);
    return 0;
  }
  std::printf("%zu node-disjoint paths (verified):\n", container.paths.size());
  for (std::size_t i = 0; i < container.paths.size(); ++i) {
    std::printf("  [%zu] len %-3zu %s\n", i, container.paths[i].size() - 1,
                core::format_path(net, container.paths[i]).c_str());
  }
  return 0;
}

int cmd_faults(util::Options& opts) {
  describe_pair(opts)
      .describe("count", "random node faults (default m)")
      .describe("seed", "fault seed (default 1)");
  if (help_only(opts, "faults: route under random node faults")) return 0;
  const auto m = static_cast<unsigned>(opts.get_int("m", 3));
  const core::HhcTopology net{m};
  const auto s = static_cast<core::Node>(opts.get_int("s", 0));
  const auto t = static_cast<core::Node>(
      opts.get_int("t", static_cast<std::int64_t>(net.node_count() - 1)));
  const auto count = static_cast<std::size_t>(opts.get_int("count", m));
  util::Xoshiro256 rng{static_cast<std::uint64_t>(opts.get_int("seed", 1))};
  const auto faults =
      core::FaultModel::random(net, {.node_faults = count}, s, t, rng);

  const auto global = fault::AdaptiveRouter{net}.route(
      query::PairQuery{.s = s, .t = t, .faults = &faults},
      {.skip_fallback = true});
  std::printf("global container router: %s", global.ok() ? "ok" : "FAILED");
  if (global.ok()) std::printf(" (%zu hops)", global.primary().size() - 1);
  std::printf(", %zu/%u paths blocked\n", global.container_paths_blocked,
              net.degree());

  const auto local = core::local_fault_route(net, s, t, faults);
  std::printf("local DFS router:        %s", local.ok() ? "ok" : "FAILED");
  if (local.ok()) std::printf(" (%zu hops)", local.path.size() - 1);
  std::printf(", %zu backtracks\n", local.backtracks);
  return 0;
}

int cmd_broadcast(util::Options& opts) {
  opts.describe("m", "cluster dimension (default 2)")
      .describe("root", "broadcast source (default 0)");
  if (help_only(opts, "broadcast: one-to-all schedule")) return 0;
  const auto m = static_cast<unsigned>(opts.get_int("m", 2));
  const core::HhcTopology net{m};
  const auto root = static_cast<core::Node>(opts.get_int("root", 0));
  const auto schedule = core::broadcast_schedule(net, root);
  if (!core::verify_broadcast_schedule(net, schedule, root)) {
    std::fprintf(stderr, "schedule verification failed\n");
    return 1;
  }
  std::printf("broadcast from %s: %zu rounds (lower bound %u), %zu messages\n",
              core::format_node(net, root).c_str(), schedule.round_count(),
              core::broadcast_lower_bound(net), schedule.message_count());
  return 0;
}

int cmd_dot(util::Options& opts) {
  opts.describe("m", "cluster dimension (default 2)");
  if (help_only(opts, "dot: whole network as Graphviz")) return 0;
  const auto m = static_cast<unsigned>(opts.get_int("m", 2));
  std::fputs(core::to_dot(core::HhcTopology{m}).c_str(), stdout);
  return 0;
}

// Runs a seeded query batch (pristine + fault-aware, so both the cache and
// the adaptive-router stages light up) with tracing enabled and writes the
// spans as Chrome trace_event JSON — load into chrome://tracing or
// https://ui.perfetto.dev. Also prints the per-stage latency histograms
// accumulated in the metric registry.
int cmd_trace(util::Options& opts) {
  opts.describe("m", "cluster dimension (default 3)")
      .describe("queries", "pristine queries (default 200)")
      .describe("fault-queries", "fault-aware queries (default 50)")
      .describe("count", "node faults per fault-aware query (default m)")
      .describe("seed", "query and fault seed (default 1)")
      .describe("out", "Chrome trace file (default trace.json)")
      .describe("csv", "also write the spans as CSV to this file")
      .describe("ring", "trace events kept per thread (default 8192)");
  if (help_only(opts, "trace: Chrome trace of a query batch")) return 0;
  const auto m = static_cast<unsigned>(opts.get_int("m", 3));
  const core::HhcTopology net{m};
  const auto queries = static_cast<std::size_t>(opts.get_int("queries", 200));
  const auto fault_queries =
      static_cast<std::size_t>(opts.get_int("fault-queries", 50));
  const auto fault_count = static_cast<std::size_t>(opts.get_int("count", m));
  const std::string out_path = opts.get("out", "trace.json");
  const std::string csv_path = opts.get("csv", "");
  util::Xoshiro256 rng{static_cast<std::uint64_t>(opts.get_int("seed", 1))};

  query::PathService service{net};
  obs::MetricRegistry::global().reset();
  obs::Tracer::enable(
      static_cast<std::size_t>(opts.get_int("ring", std::int64_t{1} << 13)));

  // Pristine queries, alternating answer() (orbit decode, constructing on
  // a cold record) and answer_view() (the cache's store, publishing on a
  // miss).
  for (std::size_t i = 0; i < queries; ++i) {
    const core::Node s = rng.below(net.node_count());
    const core::Node t = rng.below(net.node_count());
    if (i % 2 == 0) {
      (void)service.answer(query::PairQuery{.s = s, .t = t});
    } else {
      (void)service.answer_view(query::PairQuery{.s = s, .t = t});
    }
  }
  // Fault-aware queries: container scans, with BFS fallbacks when the
  // fault set blocks every container path.
  for (std::size_t i = 0; i < fault_queries; ++i) {
    const core::Node s = rng.below(net.node_count());
    core::Node t = rng.below(net.node_count());
    while (t == s) t = rng.below(net.node_count());
    const auto faults =
        core::FaultModel::random(net, {.node_faults = fault_count}, s, t, rng);
    (void)service.answer(query::PairQuery{.s = s, .t = t, .faults = &faults});
  }
  obs::Tracer::disable();

  const auto events = obs::Tracer::drain();
  {
    std::ofstream file{out_path};
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    file << obs::to_chrome_trace_json(events) << '\n';
  }
  if (!csv_path.empty()) {
    std::ofstream file{csv_path};
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 1;
    }
    file << obs::to_trace_csv(events);
  }

  std::printf("%zu spans -> %s", events.size(), out_path.c_str());
  if (!csv_path.empty()) std::printf(" and %s", csv_path.c_str());
  if (const auto dropped = obs::Tracer::dropped(); dropped != 0) {
    std::printf(" (%llu dropped; raise --ring)",
                static_cast<unsigned long long>(dropped));
  }
  std::printf("\n\n");

  util::Table table{{"stage", "count", "p50 us", "p99 us", "max us"}};
  // One snapshot via the unified stats surface: the per-stage histograms
  // arrive as distribution rows of ServiceStats::rows().
  for (const core::StatRow& row : service.stats().rows()) {
    if (row.kind != core::StatRow::Kind::kDist || row.section != "histogram" ||
        row.count == 0) {
      continue;
    }
    table.row()
        .add(row.name)
        .add(row.count)
        .add(row.p50, 1)
        .add(row.p99, 1)
        .add(row.max, 1);
  }
  table.print(std::cout,
              "per-stage latency (m=" + std::to_string(m) + ", " +
                  std::to_string(queries) + " pristine + " +
                  std::to_string(fault_queries) + " fault-aware queries)");
  return 0;
}

// Replays the chaos/soak harness: open-loop (default) or closed-loop
// traffic with deadlines and admission control over an evolving fault
// schedule, reported per epoch.
int cmd_soak(util::Options& opts) {
  opts.describe("m", "cluster dimension (default 2)")
      .describe("epochs", "fault epochs replayed (default 8)")
      .describe("load", "pool queries per epoch (default 256)")
      .describe("hostile", "inline hostile-pair queries per epoch (default 4)")
      .describe("workers", "consumer threads or closed-loop streams "
                           "(default 4)")
      .describe("max-queued", "open-loop arrival queue bound (default 64)")
      .describe("closed-loop", "issue-on-completion streams (default false)")
      .describe("deadline-us", "per-query budget; 0 = none (default 2000)")
      .describe("fault-rate", "fraction of epochs starting an outage "
                              "(default 0.5)")
      .describe("burst", "node faults per outage (default 2)")
      .describe("repair-after", "epochs until an outage heals (default 1)")
      .describe("seed", "schedule and traffic seed (default 1)")
      .describe("max-in-flight", "admission gate slots; 0 = unlimited "
                                 "(default 8)")
      .describe("breaker", "disconnects that open a pair's breaker; "
                           "0 = off (default 3)")
      .describe("format", "table, csv, or json (default table)");
  if (help_only(opts, "soak: chaos/soak run over evolving faults")) return 0;

  sim::SoakConfig config;
  config.m = static_cast<unsigned>(opts.get_int("m", 2));
  config.epochs = static_cast<std::size_t>(opts.get_int("epochs", 8));
  config.queries_per_epoch =
      static_cast<std::size_t>(opts.get_int("load", 256));
  config.hostile_per_epoch =
      static_cast<std::size_t>(opts.get_int("hostile", 4));
  config.workers = static_cast<std::size_t>(opts.get_int("workers", 4));
  config.max_queued = static_cast<std::size_t>(opts.get_int("max-queued", 64));
  config.closed_loop = opts.get_bool("closed-loop", false);
  config.deadline_us = opts.get_double("deadline-us", 2000.0);
  config.fault_rate = opts.get_double("fault-rate", 0.5);
  config.faults_per_burst =
      static_cast<std::size_t>(opts.get_int("burst", 2));
  config.repair_after =
      static_cast<std::uint64_t>(opts.get_int("repair-after", 1));
  config.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  config.admission.max_in_flight =
      static_cast<std::size_t>(opts.get_int("max-in-flight", 8));
  config.admission.breaker_threshold =
      static_cast<std::size_t>(opts.get_int("breaker", 3));

  const sim::SoakReport report = sim::run_soak(config);
  const std::string format = opts.get("format", "table");
  if (format == "csv") {
    std::cout << report.to_csv() << '\n';
  } else if (format == "json") {
    std::cout << report.to_json() << '\n';
  } else if (format == "table") {
    report.print(std::cout);
  } else {
    std::fprintf(stderr, "unknown --format %s (table|csv|json)\n",
                 format.c_str());
    return 1;
  }
  return report.stuck == 0 ? 0 : 1;
}

void usage() {
  std::puts(
      "hhc_tool <command> [--option value]...\n"
      "commands:\n"
      "  info       network parameters        (--m)\n"
      "  route      constructive single path  (--m --s --t)\n"
      "  paths      m+1 disjoint paths        (--m --s --t [--dot])\n"
      "  faults     route under random faults (--m --s --t --count --seed)\n"
      "  broadcast  one-to-all schedule       (--m --root)\n"
      "  dot        whole network as Graphviz (--m, m <= 2)\n"
      "  trace      Chrome trace of a query batch\n"
      "             (--m --queries --fault-queries --count --seed --out\n"
      "              [--csv file] [--ring events-per-thread])\n"
      "  soak       chaos/soak run: deadlines + admission over evolving "
      "faults\n"
      "             (--m --epochs --load --hostile --workers --max-queued\n"
      "              --closed-loop true|false (issue-on-completion streams)\n"
      "              --deadline-us --fault-rate --burst --repair-after --seed\n"
      "              --max-in-flight --breaker --format table|csv|json)\n"
      "<command> --help lists a command's options.");
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0) {
    usage();
    return argc < 2 ? 1 : 0;
  }
  const std::string command = argv[1];
  util::Options opts{argc - 1, argv + 1};

  if (command == "info") return cmd_info(opts);
  if (command == "route") return cmd_route(opts);
  if (command == "paths") return cmd_paths(opts);
  if (command == "faults") return cmd_faults(opts);
  if (command == "broadcast") return cmd_broadcast(opts);
  if (command == "dot") return cmd_dot(opts);
  if (command == "trace") return cmd_trace(opts);
  if (command == "soak") return cmd_soak(opts);
  std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
  usage();
  return 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
