// Experiment F6 — latency vs offered load (the classic saturation curve).
//
// Part 1: uniform random traffic is injected over a fixed horizon at
// increasing rates; the simulator's single-packet-per-link-per-cycle
// contention model produces the textbook hockey stick: flat latency up to
// saturation, then queueing blow-up. Reported for the HHC at m = 3 (2048
// nodes).
//
// Part 2 (overload sweep): the same question asked of the QUERY ENGINE
// instead of the packet network. Offered load is swept past the service's
// capacity with admission control and per-query deadlines armed; reported
// per level: goodput (authoritative answers per second), p99 latency, and
// the shed rate. A healthy overload posture keeps p99 bounded and goodput
// flat past saturation while the shed rate absorbs the excess — the
// unhealthy alternative (unbounded queueing) shows up as p99 blowing up
// instead. The sweep is appended to BENCH_query.json next to
// bench_query_throughput's output so both engine-level curves live in one
// machine-readable file.
//
// Part 3 (closed-loop sweep + shed cost): the acceptance curve for the
// shed-fast path. Issue-on-completion streams run against a 4-slot gate,
// 1x, 2x, 4x and 8x as many streams as slots, at m = 2 and at m = 4. Past
// 1x, a caller that finds every slot held is shed, so the shed rate rises
// with the stream count; goodput must PLATEAU instead of collapsing,
// because a rejection costs nanoseconds and yields its CPU to a slot
// holder. Each level runs kClosedRepeats times, interleaved with the other
// levels, and reports its median-goodput run. A micro-measurement of
// answer() on an arrival that is already expired reports the cost of the
// refusal path itself (shed_cost_p50/p99_us; the contract is < 1 µs p99).
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "core/io.hpp"
#include "core/routing.hpp"
#include "query/path_service.hpp"
#include "sim/network.hpp"
#include "sim/soak.hpp"
#include "sim/traffic.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

struct OverloadRow {
  unsigned m = 2;
  std::size_t streams = 0;    // closed-loop streams, or open-loop workers
  std::size_t offered_per_epoch = 0;
  std::size_t offered = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;       // door + service sheds
  std::size_t timed_out = 0;
  double goodput_qps = 0.0;   // authoritative answers per second
  double p99_us = 0.0;        // worst per-epoch p99
  double shed_rate = 0.0;
};

// One level of the F6b sweeps: 2 ms deadlines and fault rate 0.5. Open
// loop (m = 2): 4 workers behind a 512-deep arrival queue that sheds the
// excess at the door, and an 8-slot gate. Closed loop: `streams` streams
// issuing on completion against a kClosedBound-slot gate, so offered load
// self-regulates, door_shed is 0 by construction, and an arrival that
// finds every slot held takes the gate's rejection path.
constexpr std::size_t kClosedBound = 4;
constexpr int kClosedRepeats = 3;

OverloadRow run_level(unsigned m, std::size_t streams,
                      std::size_t offered_per_epoch, std::size_t epochs,
                      bool closed_loop) {
  hhc::sim::SoakConfig config;
  config.m = m;
  config.epochs = epochs;
  config.queries_per_epoch = offered_per_epoch;
  config.workers = streams;
  config.max_queued = 512;
  config.closed_loop = closed_loop;
  config.deadline_us = 2000.0;
  config.fault_rate = 0.5;
  config.seed = 99;
  config.admission.max_in_flight = closed_loop ? kClosedBound : 8;
  const hhc::sim::SoakReport report = hhc::sim::run_soak(config);

  OverloadRow row;
  row.m = m;
  row.streams = streams;
  row.offered_per_epoch = offered_per_epoch;
  row.offered = report.offered;
  row.ok = report.ok;
  row.shed = report.shed + report.door_shed;
  row.timed_out = report.timed_out;
  row.goodput_qps = report.goodput_qps();
  for (const auto& epoch : report.epochs) {
    if (epoch.p99_us > row.p99_us) row.p99_us = epoch.p99_us;
  }
  row.shed_rate = report.offered > 0
                      ? static_cast<double>(row.shed) /
                            static_cast<double>(report.offered)
                      : 0.0;
  return row;
}

void print_rows(const std::vector<OverloadRow>& rows,
                const std::string& title) {
  hhc::util::Table table{{"m", "streams", "offered/epoch", "offered", "ok",
                          "shed", "timed-out", "goodput q/s", "p99 us",
                          "shed rate"}};
  for (const OverloadRow& row : rows) {
    table.row()
        .add(std::uint64_t{row.m})
        .add(std::uint64_t{row.streams})
        .add(std::uint64_t{row.offered_per_epoch})
        .add(std::uint64_t{row.offered})
        .add(std::uint64_t{row.ok})
        .add(std::uint64_t{row.shed})
        .add(std::uint64_t{row.timed_out})
        .add(row.goodput_qps, 0)
        .add(row.p99_us, 1)
        .add(row.shed_rate, 3);
  }
  table.print(std::cout, title);
}

// The open-loop sweep: offered load rises at a fixed 4 workers.
std::vector<OverloadRow> run_open_sweep(const std::vector<std::size_t>& levels,
                                        std::size_t epochs) {
  std::vector<OverloadRow> rows;
  for (const std::size_t level : levels) {
    rows.push_back(run_level(2, 4, level, epochs, false));
  }
  return rows;
}

// The closed-loop sweep: at each m, streams rise from 1x to 8x the bound
// at a fixed queries/epoch per m. The repeats run round-robin over the
// levels, so drift in host load reaches every level alike, and each level
// keeps its median-goodput run.
std::vector<OverloadRow> run_closed_sweep(bool smoke) {
  struct Level {
    unsigned m;
    std::size_t streams;
    std::size_t queries_per_epoch;
  };
  std::vector<Level> levels;
  for (const unsigned m : {2u, 4u}) {
    // Legs of tens of ms at the 1x goodput (m = 2 answers are sub-µs; an
    // m = 4 leg also fills orbit records on its fresh service).
    std::size_t queries = m == 2 ? 131072 : 32768;
    if (smoke) queries /= 4;
    for (const std::size_t factor : {1u, 2u, 4u, 8u}) {
      levels.push_back(Level{m, factor * kClosedBound, queries});
    }
  }
  std::vector<std::vector<OverloadRow>> runs(levels.size());
  for (int r = 0; r < kClosedRepeats; ++r) {
    for (std::size_t i = 0; i < levels.size(); ++i) {
      runs[i].push_back(run_level(levels[i].m, levels[i].streams,
                                  levels[i].queries_per_epoch, 2, true));
    }
  }
  std::vector<OverloadRow> rows;
  for (std::vector<OverloadRow>& level_runs : runs) {
    std::sort(level_runs.begin(), level_runs.end(),
              [](const OverloadRow& a, const OverloadRow& b) {
                return a.goodput_qps < b.goodput_qps;
              });
    rows.push_back(level_runs[level_runs.size() / 2]);
  }
  return rows;
}

struct ShedCost {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Times answer() on an arrival that is already expired: the gate refuses
// it (kTimedOut) through the same serve() branch as a full gate's kShed,
// without the one yield a full gate gives its caller. This is the per-call
// cost of the refusal fast path itself, clock overhead included.
ShedCost measure_shed_cost(std::size_t samples) {
  using namespace hhc;
  const core::HhcTopology net{2};
  query::PathService service{net};
  query::PairQuery query{.s = 0, .t = 60};
  query.deadline = util::Deadline::after_micros(0.0);

  std::vector<double> micros(samples);
  for (double& sample : micros) {
    const util::Stopwatch watch;
    (void)service.answer(query);
    sample = watch.micros();
  }
  if (service.stats().timed_out != samples) {
    std::cerr << "shed cost: an expired arrival was not refused\n";
    std::exit(1);
  }
  std::sort(micros.begin(), micros.end());
  return ShedCost{micros[samples / 2], micros[samples * 99 / 100]};
}

void sweep_rows_json(hhc::core::JsonWriter& json,
                     const std::vector<OverloadRow>& rows) {
  for (const OverloadRow& row : rows) {
    json.begin_object();
    json.key("m").value(std::uint64_t{row.m});
    json.key("streams").value(std::uint64_t{row.streams});
    json.key("offered_per_epoch").value(std::uint64_t{row.offered_per_epoch});
    json.key("offered").value(std::uint64_t{row.offered});
    json.key("ok").value(std::uint64_t{row.ok});
    json.key("shed").value(std::uint64_t{row.shed});
    json.key("timed_out").value(std::uint64_t{row.timed_out});
    json.key("goodput_qps").value(row.goodput_qps);
    json.key("p99_us").value(row.p99_us);
    json.key("shed_rate").value(row.shed_rate);
    json.end_object();
  }
}

// Both sweeps plus the shed-cost scalars as an inner fragment
// `"overload_sweep":[...],"overload_sweep_closed":[...],...` (no outer
// braces), ready to splice into an existing JSON object.
std::string sweep_fragment(const std::vector<OverloadRow>& open_rows,
                           const std::vector<OverloadRow>& closed_rows,
                           const ShedCost& cost) {
  hhc::core::JsonWriter json;
  json.begin_object();
  json.key("overload_sweep").begin_array();
  sweep_rows_json(json, open_rows);
  json.end_array();
  json.key("overload_sweep_closed").begin_array();
  sweep_rows_json(json, closed_rows);
  json.end_array();
  json.key("shed_cost_p50_us").value(cost.p50_us);
  json.key("shed_cost_p99_us").value(cost.p99_us);
  json.end_object();
  std::string doc = json.str();
  return doc.substr(1, doc.size() - 2);  // strip the outer { }
}

// Splices the sweep into BENCH_query.json beside bench_query_throughput's
// fields (replacing any sweep from an earlier run); starts a fresh document
// when the file is absent or unusable. String surgery, not parsing — the
// repo has no JSON reader and the file is a single flat object.
void merge_into_bench_query(const std::string& fragment) {
  std::string doc;
  {
    std::ifstream in{"BENCH_query.json"};
    doc.assign(std::istreambuf_iterator<char>{in},
               std::istreambuf_iterator<char>{});
  }
  while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
    doc.pop_back();
  }
  const std::string::size_type old_sweep = doc.find(",\"overload_sweep\"");
  if (old_sweep != std::string::npos) {
    // Drops everything this bench wrote before (both sweeps + shed cost —
    // they always trail the throughput fields) and the closing brace.
    doc.erase(old_sweep);
  } else if (!doc.empty() && doc.back() == '}') {
    doc.pop_back();
  } else {
    doc = "{\"bench\":\"load_latency\"";
  }
  doc += ',' + fragment + '}';
  std::ofstream out{"BENCH_query.json"};
  out << doc << '\n';
  std::cout << "wrote overload sweep into BENCH_query.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hhc;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const core::HhcTopology net{3};
  constexpr std::uint64_t kHorizon = 100;

  util::Table table{{"packets", "load (pkts/cycle)", "delivered", "p50 lat",
                     "p95 lat", "max lat", "drain cycles"}};
  for (const std::size_t packets : {200u, 1000u, 4000u, 16000u, 64000u}) {
    sim::NetworkSimulator simulator{net};
    const auto flows =
        sim::uniform_random_traffic(net, packets, kHorizon, 99);
    for (const auto& f : flows) {
      simulator.inject(core::route(net, f.s, f.t), f.inject_time);
    }
    const auto report = simulator.run(1u << 22);
    table.row()
        .add(packets)
        .add(static_cast<double>(packets) / kHorizon, 2)
        .add(report.delivered)
        .add(report.latency.p50)
        .add(report.latency.p95)
        .add(report.latency.max)
        .add(static_cast<std::uint64_t>(report.cycles));
  }
  table.print(std::cout,
              "F6 (m=3, 2048 nodes): latency vs offered load, uniform random "
              "traffic over 100 cycles");
  std::cout << "\nExpected shape: p50 stays near the average route length at "
               "low load; the tail\n(p95/max) grows once per-link contention "
               "sets in — the saturation hockey stick.\n\n";

  // Part 2: the query-engine overload sweep.
  const std::size_t epochs = smoke ? 2 : 4;
  std::vector<std::size_t> levels{256, 1024, 4096};
  if (!smoke) levels.push_back(16384);

  const std::vector<OverloadRow> rows = run_open_sweep(levels, epochs);
  print_rows(rows,
             "F6b (m=2): query-engine overload sweep — admission-gated "
             "service, 2 ms deadlines");
  std::cout << "\nExpected shape: goodput plateaus at service capacity while "
               "the shed rate rises\nwith offered load; p99 stays bounded by "
               "the deadline instead of blowing up.\n\n";

  // Part 3: the closed-loop goodput plateau + the refusal-path cost.
  const std::vector<OverloadRow> closed_rows = run_closed_sweep(smoke);
  print_rows(closed_rows,
             "F6b closed-loop: issue-on-completion streams against a 4-slot "
             "gate, median of 3 runs");

  const ShedCost cost = measure_shed_cost(smoke ? 20000 : 100000);
  std::cout << "\nrefusal-path cost (answer() on an expired arrival): p50 "
            << cost.p50_us << " us, p99 "
            << cost.p99_us
            << " us (contract: < 1 us p99 — rejection is effectively "
               "free)\n"
            << "Expected shape: at each m, closed-loop goodput FLAT across "
               "stream counts while\nthe shed rate rises — excess arrivals "
               "burn nanoseconds on the striped refusal\npath instead of "
               "dragging capacity down.\n";

  merge_into_bench_query(sweep_fragment(rows, closed_rows, cost));
  return 0;
}
